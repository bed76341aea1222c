(* Shared generators and reference implementations for the test suite. *)

module Net = Rip_net.Net
module Segment = Rip_net.Segment
module Zone = Rip_net.Zone
module Geometry = Rip_net.Geometry

let process = Rip_tech.Process.default_180nm
let repeater = process.Rip_tech.Process.repeater

(* The total delay of an insertion, given as ordered (position, width)
   repeaters, recomputed stage by stage on a discretised RC ladder: an
   oracle independent of the closed forms that produced the answer. *)
let ladder_delay (net : Net.t) geometry repeaters =
  let pins =
    ((0.0, net.Net.driver_width) :: repeaters)
    @ [ (Net.total_length net, net.Net.receiver_width) ]
  in
  let rec sum acc = function
    | (a, wa) :: ((b, wb) :: _ as rest) ->
        sum
          (acc
          +. Rip_elmore.Rc_ladder.stage_delay_discretised repeater geometry
               ~driver_pos:a ~driver_width:wa ~load_pos:b ~load_width:wb
               ~lumps_per_um:1.0)
          rest
    | [ _ ] | [] -> acc
  in
  sum 0.0 pins

(* --- Random nets -------------------------------------------------------- *)

let segment_gen =
  QCheck.Gen.(
    let* length = float_range 200.0 3000.0 in
    let* r = float_range 0.02 0.2 in
    let* c = float_range 0.05 0.6 in
    return
      (Segment.create ~length ~resistance_per_um:r
         ~capacitance_per_um:(c *. 1e-15) ()))

let net_gen ?(with_zone = true) () =
  QCheck.Gen.(
    let* segments = list_size (int_range 1 8) segment_gen in
    let* segments = return (if segments = [] then [ Segment.of_layer Rip_tech.Layer.metal4 ~length:1000.0 ] else segments) in
    let total =
      List.fold_left (fun acc s -> acc +. s.Segment.length) 0.0 segments
    in
    let* driver_width = float_range 10.0 120.0 in
    let* receiver_width = float_range 10.0 120.0 in
    let* zones =
      if with_zone then
        let* use = bool in
        if use && total > 400.0 then
          let* zlen = float_range 50.0 (0.35 *. total) in
          let* zstart = float_range 0.0 (total -. zlen) in
          return [ Zone.create ~z_start:zstart ~z_end:(zstart +. zlen) ]
        else return []
      else return []
    in
    return (Net.create ~segments ~zones ~driver_width ~receiver_width ()))

let net_arb ?with_zone () =
  QCheck.make ~print:(Fmt.str "%a" Net.pp) (net_gen ?with_zone ())

(* A position pair 0 <= a <= b <= L for a given net. *)
let span_gen net =
  QCheck.Gen.(
    let length = Net.total_length net in
    let* x = float_range 0.0 length in
    let* y = float_range 0.0 length in
    return (Float.min x y, Float.max x y))

let net_with_span_arb ?with_zone () =
  let gen =
    QCheck.Gen.(
      let* net = net_gen ?with_zone () in
      let* span = span_gen net in
      return (net, span))
  in
  QCheck.make
    ~print:(fun (net, (a, b)) -> Fmt.str "%a span (%g, %g)" Net.pp net a b)
    gen

(* --- Brute-force wire integrals (piecewise midpoint sums) ---------------- *)

(* Midpoint sums, split at segment boundaries so each sub-interval sees a
   single segment: the integrands are at most linear per segment, which the
   midpoint rule integrates exactly. *)
let integrate net ~a ~b f =
  if b <= a then 0.0
  else begin
    let geometry = Geometry.of_net net in
    let cuts =
      List.filter (fun x -> x > a && x < b) (Geometry.boundaries geometry)
    in
    let points = (a :: cuts) @ [ b ] in
    let rec pieces acc = function
      | x :: (y :: _ as rest) -> pieces ((x, y) :: acc) rest
      | [ _ ] | [] -> List.rev acc
    in
    List.fold_left
      (fun total (x, y) ->
        let steps = 200 in
        let h = (y -. x) /. float_of_int steps in
        let acc = ref 0.0 in
        for i = 0 to steps - 1 do
          let t = x +. ((float_of_int i +. 0.5) *. h) in
          acc := !acc +. (f geometry t *. h)
        done;
        total +. !acc)
      0.0 (pieces [] points)
  end

let unit_r geometry x =
  fst (Geometry.unit_rc_at geometry Geometry.Right x)

let unit_c geometry x =
  snd (Geometry.unit_rc_at geometry Geometry.Right x)

let brute_resistance net ~a ~b = integrate net ~a ~b unit_r
let brute_capacitance net ~a ~b = integrate net ~a ~b unit_c

let brute_wire_elmore net ~a ~b =
  let geometry = Geometry.of_net net in
  let cap_to_b x = Geometry.capacitance_between geometry x b in
  integrate net ~a ~b (fun g x -> unit_r g x *. cap_to_b x)

(* Bit-for-bit equality of two power-DP results. *)
let identical_results (a : Rip_dp.Power_dp.result)
    (b : Rip_dp.Power_dp.result) =
  let module Solution = Rip_elmore.Solution in
  let eq = List.for_all2 Float.equal in
  eq (Solution.positions a.solution) (Solution.positions b.solution)
  && eq (Solution.widths a.solution) (Solution.widths b.solution)
  && Float.equal a.delay b.delay
  && Float.equal a.total_width b.total_width

(* Substring test for error-message assertions. *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

(* Relative closeness for physical quantities. *)
let close ?(rel = 1e-3) expected actual =
  let scale = Float.max (Float.abs expected) (Float.abs actual) in
  scale = 0.0 || Float.abs (expected -. actual) /. scale <= rel

(* The value of one unlabelled series in a METRICS body — the way tests
   read a server's or a router's counters. *)
let metric body name =
  match Rip_obs.Metrics.scalar body name with
  | Some v -> v
  | None -> Alcotest.failf "METRICS has no %s series" name

let count body name = int_of_float (metric body name)
