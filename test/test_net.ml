(* Unit and property tests for Rip_net. *)

module Net = Rip_net.Net
module Segment = Rip_net.Segment
module Zone = Rip_net.Zone
module Geometry = Rip_net.Geometry
module Net_io = Rip_net.Net_io

let qcheck = QCheck_alcotest.to_alcotest
let invalid name f = Alcotest.match_raises name (function Invalid_argument _ -> true | _ -> false) f
let check_float = Alcotest.(check (float 1e-9))

(* --- Segment ------------------------------------------------------------- *)

let test_segment_totals () =
  let s =
    Segment.create ~length:1000.0 ~resistance_per_um:0.1
      ~capacitance_per_um:2e-16 ()
  in
  check_float "R" 100.0 (Segment.total_resistance s);
  Alcotest.(check (float 1e-25)) "C" 2e-13 (Segment.total_capacitance s)

let test_segment_validation () =
  invalid "length" (fun () ->
      ignore
        (Segment.create ~length:0.0 ~resistance_per_um:0.1
           ~capacitance_per_um:1e-16 ()));
  invalid "rc" (fun () ->
      ignore
        (Segment.create ~length:1.0 ~resistance_per_um:(-0.1)
           ~capacitance_per_um:1e-16 ()))

let test_segment_of_layer () =
  let s = Segment.of_layer Rip_tech.Layer.metal4 ~length:500.0 in
  Alcotest.(check string) "layer name" "metal4" s.Segment.layer_name;
  check_float "r" Rip_tech.Layer.metal4.Rip_tech.Layer.resistance_per_um
    s.Segment.resistance_per_um

(* --- Zone ---------------------------------------------------------------- *)

let test_zone_open_interval () =
  let z = Zone.create ~z_start:10.0 ~z_end:20.0 in
  Alcotest.(check bool) "inside" true (Zone.contains z 15.0);
  Alcotest.(check bool) "start edge legal" false (Zone.contains z 10.0);
  Alcotest.(check bool) "end edge legal" false (Zone.contains z 20.0);
  check_float "length" 10.0 (Zone.length z)

let test_zone_validation () =
  invalid "reversed" (fun () -> ignore (Zone.create ~z_start:5.0 ~z_end:5.0));
  invalid "negative" (fun () ->
      ignore (Zone.create ~z_start:(-1.0) ~z_end:5.0))

let test_zone_normalize_merges () =
  let zones =
    [
      Zone.create ~z_start:30.0 ~z_end:40.0;
      Zone.create ~z_start:10.0 ~z_end:20.0;
      Zone.create ~z_start:15.0 ~z_end:35.0;
    ]
  in
  match Zone.normalize zones with
  | [ z ] ->
      check_float "merged start" 10.0 z.Zone.z_start;
      check_float "merged end" 40.0 z.Zone.z_end
  | other ->
      Alcotest.failf "expected one merged zone, got %d" (List.length other)

let test_zone_normalize_keeps_disjoint () =
  let zones =
    [ Zone.create ~z_start:50.0 ~z_end:60.0; Zone.create ~z_start:10.0 ~z_end:20.0 ]
  in
  match Zone.normalize zones with
  | [ a; b ] ->
      check_float "sorted first" 10.0 a.Zone.z_start;
      check_float "sorted second" 50.0 b.Zone.z_start
  | other -> Alcotest.failf "expected two zones, got %d" (List.length other)

let test_zone_snapping () =
  let zones = [ Zone.create ~z_start:10.0 ~z_end:20.0 ] in
  check_float "snap forward" 20.0 (Zone.first_allowed_at_or_after zones 15.0);
  check_float "snap back" 10.0 (Zone.last_allowed_at_or_before zones 15.0);
  check_float "already legal" 5.0 (Zone.first_allowed_at_or_after zones 5.0)

let prop_normalize_disjoint_sorted =
  QCheck.Test.make ~name:"normalize yields sorted disjoint zones" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 8)
        (pair (float_range 0.0 100.0) (float_range 0.1 40.0)))
    (fun raw ->
      let zones =
        List.map (fun (s, l) -> Zone.create ~z_start:s ~z_end:(s +. l)) raw
      in
      let normalized = Zone.normalize zones in
      let rec ok = function
        | a :: (b :: _ as rest) ->
            a.Zone.z_end < b.Zone.z_start && ok rest
        | [ _ ] | [] -> true
      in
      ok normalized)

let prop_normalize_preserves_blocking =
  QCheck.Test.make ~name:"normalize preserves blocked positions" ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 6)
           (pair (float_range 0.0 100.0) (float_range 0.1 30.0)))
        (float_range 0.0 140.0))
    (fun (raw, x) ->
      let zones =
        List.map (fun (s, l) -> Zone.create ~z_start:s ~z_end:(s +. l)) raw
      in
      Zone.blocked zones x = Zone.blocked (Zone.normalize zones) x)

(* --- Net ----------------------------------------------------------------- *)

let two_segment_net () =
  Net.create
    ~segments:
      [
        Segment.of_layer Rip_tech.Layer.metal4 ~length:1000.0;
        Segment.of_layer Rip_tech.Layer.metal5 ~length:2000.0;
      ]
    ~zones:[ Zone.create ~z_start:500.0 ~z_end:800.0 ]
    ~driver_width:20.0 ~receiver_width:40.0 ()

let test_net_totals () =
  let net = two_segment_net () in
  check_float "length" 3000.0 (Net.total_length net);
  Alcotest.(check int) "segments" 2 (Net.segment_count net);
  let m4 = Rip_tech.Layer.metal4 and m5 = Rip_tech.Layer.metal5 in
  check_float "wire R"
    ((1000.0 *. m4.Rip_tech.Layer.resistance_per_um)
    +. (2000.0 *. m5.Rip_tech.Layer.resistance_per_um))
    (Net.total_wire_resistance net)

let test_net_position_legal () =
  let net = two_segment_net () in
  Alcotest.(check bool) "driver end" true (Net.position_legal net 0.0);
  Alcotest.(check bool) "receiver end" true (Net.position_legal net 3000.0);
  Alcotest.(check bool) "inside zone" false (Net.position_legal net 600.0);
  Alcotest.(check bool) "zone edge" true (Net.position_legal net 500.0);
  Alcotest.(check bool) "beyond net" false (Net.position_legal net 3001.0);
  Alcotest.(check bool) "before net" false (Net.position_legal net (-1.0))

let test_net_validation () =
  invalid "no segments" (fun () ->
      ignore
        (Net.create ~segments:[] ~zones:[] ~driver_width:1.0
           ~receiver_width:1.0 ()));
  invalid "bad pin" (fun () ->
      ignore
        (Net.create
           ~segments:[ Segment.of_layer Rip_tech.Layer.metal4 ~length:10.0 ]
           ~zones:[] ~driver_width:0.0 ~receiver_width:1.0 ()));
  invalid "zone outside" (fun () ->
      ignore
        (Net.create
           ~segments:[ Segment.of_layer Rip_tech.Layer.metal4 ~length:10.0 ]
           ~zones:[ Zone.create ~z_start:5.0 ~z_end:20.0 ]
           ~driver_width:1.0 ~receiver_width:1.0 ()))

let test_net_uniform () =
  let net =
    Net.uniform Rip_tech.Layer.metal4 ~length:4000.0 ~segment_count:4
      ~driver_width:10.0 ~receiver_width:10.0
  in
  Alcotest.(check int) "pieces" 4 (Net.segment_count net);
  check_float "length" 4000.0 (Net.total_length net)

(* --- Geometry ------------------------------------------------------------ *)

let test_geometry_boundaries () =
  let net = two_segment_net () in
  let g = Geometry.of_net net in
  Alcotest.(check (list (float 1e-9))) "boundaries" [ 0.0; 1000.0; 3000.0 ]
    (Geometry.boundaries g)

let test_geometry_side_lookup () =
  let net = two_segment_net () in
  let g = Geometry.of_net net in
  Alcotest.(check int) "left of boundary" 0
    (Geometry.segment_index_at g Geometry.Left 1000.0);
  Alcotest.(check int) "right of boundary" 1
    (Geometry.segment_index_at g Geometry.Right 1000.0);
  Alcotest.(check int) "interior" 0
    (Geometry.segment_index_at g Geometry.Left 400.0);
  Alcotest.(check int) "at zero" 0
    (Geometry.segment_index_at g Geometry.Left 0.0);
  Alcotest.(check int) "at end" 1
    (Geometry.segment_index_at g Geometry.Right 3000.0)

let test_geometry_unit_rc_sides () =
  let net = two_segment_net () in
  let g = Geometry.of_net net in
  let r_left, _ = Geometry.unit_rc_at g Geometry.Left 1000.0 in
  let r_right, _ = Geometry.unit_rc_at g Geometry.Right 1000.0 in
  check_float "left is metal4"
    Rip_tech.Layer.metal4.Rip_tech.Layer.resistance_per_um r_left;
  check_float "right is metal5"
    Rip_tech.Layer.metal5.Rip_tech.Layer.resistance_per_um r_right

let test_geometry_out_of_range () =
  let net = two_segment_net () in
  let g = Geometry.of_net net in
  invalid "far outside" (fun () ->
      ignore (Geometry.cumulative_resistance g 5000.0))

let prop_resistance_matches_integration =
  QCheck.Test.make ~name:"resistance_between equals numeric integration"
    ~count:60
    (Helpers.net_with_span_arb ())
    (fun (net, (a, b)) ->
      let g = Geometry.of_net net in
      Helpers.close ~rel:1e-6
        (Helpers.brute_resistance net ~a ~b)
        (Geometry.resistance_between g a b))

let prop_capacitance_matches_integration =
  QCheck.Test.make ~name:"capacitance_between equals numeric integration"
    ~count:60
    (Helpers.net_with_span_arb ())
    (fun (net, (a, b)) ->
      let g = Geometry.of_net net in
      Helpers.close ~rel:1e-6
        (Helpers.brute_capacitance net ~a ~b)
        (Geometry.capacitance_between g a b))

let prop_wire_elmore_matches_integration =
  QCheck.Test.make ~name:"wire_elmore_between equals numeric integration"
    ~count:60
    (Helpers.net_with_span_arb ())
    (fun (net, (a, b)) ->
      let g = Geometry.of_net net in
      Helpers.close ~rel:1e-3
        (Helpers.brute_wire_elmore net ~a ~b)
        (Geometry.wire_elmore_between g a b))

let prop_spans_additive =
  QCheck.Test.make ~name:"wire R and C are additive over adjacent spans"
    ~count:200
    (Helpers.net_with_span_arb ())
    (fun (net, (a, b)) ->
      let g = Geometry.of_net net in
      let mid = 0.5 *. (a +. b) in
      Helpers.close ~rel:1e-9
        (Geometry.resistance_between g a b)
        (Geometry.resistance_between g a mid
        +. Geometry.resistance_between g mid b)
      && Helpers.close ~rel:1e-9
           (Geometry.capacitance_between g a b)
           (Geometry.capacitance_between g a mid
           +. Geometry.capacitance_between g mid b))

let prop_wire_elmore_matches_eq1_sum =
  (* Independent closed form: the last term of Eq. (1) summed over the
     whole pieces between a and b — a different derivation than both the
     prefix sums and numeric integration. *)
  QCheck.Test.make
    ~name:"wire elmore equals the segment-wise Eq. (1) sum" ~count:80
    (Helpers.net_with_span_arb ())
    (fun (net, (a, b)) ->
      let g = Geometry.of_net net in
      let cuts =
        List.filter (fun x -> x > a && x < b) (Geometry.boundaries g)
      in
      let points = (a :: cuts) @ [ b ] in
      let rec pieces = function
        | x :: (y :: _ as rest) -> (x, y) :: pieces rest
        | [ _ ] | [] -> []
      in
      let eq1 =
        List.fold_left
          (fun acc (x, y) ->
            let r, c = Geometry.unit_rc_at g Geometry.Right x in
            let l = y -. x in
            let downstream = Geometry.capacitance_between g y b in
            acc +. (r *. l *. ((0.5 *. c *. l) +. downstream)))
          0.0 (pieces points)
      in
      (* 1e-6, not 1e-9: the prefix-sum form cancels catastrophically on
         sub-micron pieces (e.g. a ~0.5 um forbidden zone splitting a
         span), which occasionally overruns a 1e-9 relative bound. *)
      Helpers.close ~rel:1e-6 eq1 (Geometry.wire_elmore_between g a b))

let prop_wire_elmore_nonnegative_monotone =
  QCheck.Test.make ~name:"wire elmore is non-negative and grows with span"
    ~count:200
    (Helpers.net_with_span_arb ())
    (fun (net, (a, b)) ->
      let g = Geometry.of_net net in
      let d = Geometry.wire_elmore_between g a b in
      let wider =
        Geometry.wire_elmore_between g (0.8 *. a)
          (b +. (0.1 *. (Rip_net.Net.total_length net -. b)))
      in
      d >= 0.0 && wider >= d -. 1e-18)

(* --- Net_io ---------------------------------------------------------------- *)

let test_io_round_trip_simple () =
  let net = two_segment_net () in
  match Net_io.parse_string (Net_io.to_string net) with
  | Ok parsed -> Alcotest.(check bool) "equal" true (Net.equal net parsed)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_io_parse_example () =
  let body =
    "# a comment\n\
     net example\n\
     driver 20\n\
     receiver 40\n\
     segment 1800 0.06 0.48 metal4\n\
     segment 2200 0.05 0.52 metal5\n\
     zone 1500 2600\n"
  in
  match Net_io.parse_string body with
  | Ok net ->
      Alcotest.(check string) "name" "example" net.Net.name;
      Alcotest.(check int) "segments" 2 (Net.segment_count net);
      check_float "length" 4000.0 (Net.total_length net);
      Alcotest.(check int) "zones" 1 (List.length net.Net.zones)
  | Error e -> Alcotest.failf "parse failed: %s" e

let expect_error body fragment =
  match Net_io.parse_string body with
  | Ok _ -> Alcotest.failf "expected parse error mentioning %S" fragment
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" e fragment)
        true
        (Helpers.contains e fragment)

let test_io_parse_errors () =
  expect_error "receiver 40\nsegment 100 0.1 0.1\n" "driver";
  expect_error "driver 20\nsegment 100 0.1 0.1\n" "receiver";
  expect_error "driver 20\nreceiver 40\n" "segment";
  expect_error "driver x\nreceiver 40\nsegment 100 0.1 0.1\n" "line 1";
  expect_error "driver 20\nreceiver 40\nsegment 100 0.1 0.1\nfrobnicate 1\n"
    "frobnicate";
  expect_error "driver 20\nreceiver 40\nsegment 100 0.1 0.1\nzone 90 80\n"
    "Zone"

let test_io_missing_file () =
  match Net_io.parse_file "/nonexistent/path/foo.net" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error"

let test_io_file_round_trip () =
  let net = two_segment_net () in
  let path = Filename.temp_file "rip_test" ".net" in
  Net_io.write_file path net;
  (match Net_io.parse_file path with
  | Ok parsed -> Alcotest.(check bool) "equal" true (Net.equal net parsed)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  Sys.remove path

let prop_io_round_trip =
  QCheck.Test.make ~name:"net files round-trip exactly" ~count:100
    (Helpers.net_arb ())
    (fun net ->
      let body = Net_io.to_string net in
      List.for_all
        (function Ok parsed -> Net.equal net parsed | Error _ -> false)
        [
          Net_io.parse_string body;
          Net_io.parse_lines (String.split_on_char '\n' body);
        ])

(* Stronger than value equality: re-rendering the parse reproduces the
   file byte for byte, so a net can shuttle through the service protocol
   (SOLVE bodies reuse this format) any number of times without drift. *)
let prop_io_reprint_identical =
  QCheck.Test.make ~name:"net file reprint is byte-identical" ~count:100
    (Helpers.net_arb ())
    (fun net ->
      let body = Net_io.to_string net in
      match Net_io.parse_string body with
      | Ok parsed -> String.equal body (Net_io.to_string parsed)
      | Error _ -> false)

let rename net name =
  Net.create ~name
    ~segments:(Array.to_list net.Net.segments)
    ~zones:net.Net.zones ~driver_width:net.Net.driver_width
    ~receiver_width:net.Net.receiver_width ()

let prop_digest_ignores_names =
  QCheck.Test.make ~name:"canonical digest ignores cosmetic names" ~count:100
    (Helpers.net_arb ())
    (fun net ->
      String.equal (Net.canonical_digest net)
        (Net.canonical_digest (rename net "renamed")))

let prop_digest_survives_io =
  QCheck.Test.make ~name:"canonical digest survives a file round trip"
    ~count:100 (Helpers.net_arb ())
    (fun net ->
      match Net_io.parse_string (Net_io.to_string net) with
      | Ok parsed ->
          String.equal (Net.canonical_digest net)
            (Net.canonical_digest parsed)
      | Error _ -> false)

(* The digest hashes IEEE bits, so it sees exactly what %.17g text
   saw: one value spelled three ways is one key, a one-ulp move of any
   field the solver reads is another, and -0 stays apart from 0. *)
let digest_net ?(name = "d") ~driver ~length ?(zone = "zone 1500 2600") () =
  match
    Net_io.parse_string
      (String.concat "\n"
         [
           "net " ^ name;
           "driver " ^ driver;
           "receiver 60";
           "segment " ^ length ^ " 0.075 0.118 metal4";
           "segment 2200 0.045 0.134 metal5";
           zone;
         ])
  with
  | Ok net -> net
  | Error e -> Alcotest.fail e

let test_digest_spellings () =
  let digest ?name driver length =
    Net.canonical_digest (digest_net ?name ~driver ~length ())
  in
  let base = digest "1000" "1800" in
  List.iter
    (fun (what, d) -> Alcotest.(check string) what base d)
    [
      ("renamed", digest ~name:"other" "1000" "1800");
      ("driver 1e3", digest "1e3" "1800");
      ("driver 1000.000", digest "1000.000" "1800");
      ("segment 1.8e3", digest "1000" "1.8e3");
      ("segment 1800.0", digest "1000" "1800.0");
    ]

let test_digest_ulp () =
  let net = digest_net ~driver:"1000" ~length:"1800" () in
  let base = Net.canonical_digest net in
  let up = Float.succ in
  let rebuild ?(segments = Array.to_list net.Net.segments)
      ?(zones = net.Net.zones) ?(driver = net.Net.driver_width)
      ?(receiver = net.Net.receiver_width) () =
    Net.create ~name:net.Net.name ~segments ~zones ~driver_width:driver
      ~receiver_width:receiver ()
  in
  let segment i f =
    rebuild
      ~segments:
        (List.mapi
           (fun j (s : Segment.t) -> if i = j then f s else s)
           (Array.to_list net.Net.segments))
      ()
  in
  let with_segment (s : Segment.t) ?(length = s.length)
      ?(r = s.resistance_per_um) ?(c = s.capacitance_per_um) () =
    Segment.create ~layer_name:s.layer_name ~length ~resistance_per_um:r
      ~capacitance_per_um:c ()
  in
  let zone = List.hd net.Net.zones in
  List.iter
    (fun (what, moved) ->
      Alcotest.(check bool) what false
        (String.equal base (Net.canonical_digest moved)))
    [
      ("driver width", rebuild ~driver:(up net.Net.driver_width) ());
      ("receiver width", rebuild ~receiver:(up net.Net.receiver_width) ());
      ("segment length", segment 1 (fun s -> with_segment s ~length:(up s.length) ()));
      ( "segment resistance",
        segment 0 (fun s -> with_segment s ~r:(up s.resistance_per_um) ()) );
      ( "segment capacitance",
        segment 1 (fun s -> with_segment s ~c:(up s.capacitance_per_um) ()) );
      ( "zone start",
        rebuild
          ~zones:[ Zone.create ~z_start:(up zone.Zone.z_start) ~z_end:zone.Zone.z_end ]
          () );
      ( "zone end",
        rebuild
          ~zones:[ Zone.create ~z_start:zone.Zone.z_start ~z_end:(up zone.Zone.z_end) ]
          () );
    ]

let test_digest_signed_zero () =
  let at start =
    Net.canonical_digest
      (digest_net ~driver:"1000" ~length:"1800"
         ~zone:(Printf.sprintf "zone %.17g 2600" start)
         ())
  in
  Alcotest.(check string) "%.17g keeps the sign of zero" "-0"
    (Printf.sprintf "%.17g" (-0.0));
  Alcotest.(check bool) "-0 and 0 keep distinct digests" false
    (String.equal (at (-0.0)) (at 0.0))

let suite =
  [
    ( "net.segment",
      [
        Alcotest.test_case "totals" `Quick test_segment_totals;
        Alcotest.test_case "validation" `Quick test_segment_validation;
        Alcotest.test_case "of_layer" `Quick test_segment_of_layer;
      ] );
    ( "net.zone",
      [
        Alcotest.test_case "open interval" `Quick test_zone_open_interval;
        Alcotest.test_case "validation" `Quick test_zone_validation;
        Alcotest.test_case "normalize merges" `Quick
          test_zone_normalize_merges;
        Alcotest.test_case "normalize keeps disjoint" `Quick
          test_zone_normalize_keeps_disjoint;
        Alcotest.test_case "snapping" `Quick test_zone_snapping;
        qcheck prop_normalize_disjoint_sorted;
        qcheck prop_normalize_preserves_blocking;
      ] );
    ( "net.net",
      [
        Alcotest.test_case "totals" `Quick test_net_totals;
        Alcotest.test_case "position legality" `Quick test_net_position_legal;
        Alcotest.test_case "validation" `Quick test_net_validation;
        Alcotest.test_case "uniform" `Quick test_net_uniform;
      ] );
    ( "net.geometry",
      [
        Alcotest.test_case "boundaries" `Quick test_geometry_boundaries;
        Alcotest.test_case "side lookup" `Quick test_geometry_side_lookup;
        Alcotest.test_case "unit rc sides" `Quick test_geometry_unit_rc_sides;
        Alcotest.test_case "out of range" `Quick test_geometry_out_of_range;
        qcheck prop_resistance_matches_integration;
        qcheck prop_capacitance_matches_integration;
        qcheck prop_wire_elmore_matches_integration;
        qcheck prop_wire_elmore_matches_eq1_sum;
        qcheck prop_spans_additive;
        qcheck prop_wire_elmore_nonnegative_monotone;
      ] );
    ( "net.io",
      [
        Alcotest.test_case "round trip" `Quick test_io_round_trip_simple;
        Alcotest.test_case "parse example" `Quick test_io_parse_example;
        Alcotest.test_case "parse errors" `Quick test_io_parse_errors;
        Alcotest.test_case "missing file" `Quick test_io_missing_file;
        Alcotest.test_case "file round trip" `Quick test_io_file_round_trip;
        qcheck prop_io_round_trip;
        qcheck prop_io_reprint_identical;
        qcheck prop_digest_ignores_names;
        qcheck prop_digest_survives_io;
        Alcotest.test_case "digest: one double, three spellings" `Quick
          test_digest_spellings;
        Alcotest.test_case "digest: a one-ulp move changes it" `Quick
          test_digest_ulp;
        Alcotest.test_case "digest: -0 and 0 stay distinct" `Quick
          test_digest_signed_zero;
      ] );
  ]
