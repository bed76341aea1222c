(* Unit and property tests for Rip_dp, including certification of the DP
   against exhaustive enumeration on small instances. *)

module Geometry = Rip_net.Geometry
module Net = Rip_net.Net
module Zone = Rip_net.Zone
module Solution = Rip_elmore.Solution
module Delay = Rip_elmore.Delay
module Repeater_library = Rip_dp.Repeater_library
module Candidates = Rip_dp.Candidates
module Chain = Rip_dp.Chain
module Power_dp = Rip_dp.Power_dp
module Min_delay = Rip_dp.Min_delay
module Exhaustive = Rip_dp.Exhaustive

let qcheck = QCheck_alcotest.to_alcotest
let invalid name f = Alcotest.match_raises name (function Invalid_argument _ -> true | _ -> false) f
let check_float = Alcotest.(check (float 1e-9))
let repeater = Helpers.repeater

(* Most tests go through the request/run entry point production callers
   use. *)
let run_dp ?frontier_cap ?width_bound ?price ?arena ?hooks geometry repeater
    ~library ~candidates ~budget =
  Power_dp.run
    (Power_dp.request ?frontier_cap ?width_bound ?price ?arena ?hooks geometry
       repeater ~library ~candidates ~budget)

(* --- Repeater_library ------------------------------------------------------ *)

let test_library_create () =
  let l = Repeater_library.create [ 30.0; 10.0; 30.0; 20.0 ] in
  Alcotest.(check (list (float 1e-9))) "sorted dedup" [ 10.0; 20.0; 30.0 ]
    (Repeater_library.widths l);
  Alcotest.(check int) "size" 3 (Repeater_library.size l);
  check_float "min" 10.0 (Repeater_library.min_width l);
  check_float "max" 30.0 (Repeater_library.max_width l);
  Alcotest.(check bool) "mem" true (Repeater_library.mem l 20.0);
  Alcotest.(check bool) "not mem" false (Repeater_library.mem l 25.0)

let test_library_validation () =
  invalid "empty" (fun () -> ignore (Repeater_library.create []));
  invalid "non-positive" (fun () -> ignore (Repeater_library.create [ 0.0 ]))

(* The printer must not wrap, even past the formatter's margin: a trace
   line that prints a library stays one line. *)
let test_library_pp_one_line () =
  let library = Rip_core.Config.reference_library in
  List.iter
    (fun (what, text) ->
      Alcotest.(check bool) what false (String.contains text '\n'))
    [
      ("alone", Fmt.str "%a" Repeater_library.pp library);
      ( "after a long prefix",
        Fmt.str "%s %a" (String.make 70 'x') Repeater_library.pp library );
      ( "a long library",
        Fmt.str "%a" Repeater_library.pp
          (Repeater_library.uniform ~min_width:10.0 ~step:10.0 ~count:40) );
    ]

let test_library_uniform_range () =
  Alcotest.(check (list (float 1e-9))) "uniform"
    [ 80.0; 160.0; 240.0; 320.0; 400.0 ]
    (Repeater_library.widths
       (Repeater_library.uniform ~min_width:80.0 ~step:80.0 ~count:5));
  let paper_baseline =
    Repeater_library.uniform ~min_width:10.0 ~step:10.0 ~count:10
  in
  check_float "baseline cap" 100.0 (Repeater_library.max_width paper_baseline);
  Alcotest.(check int) "range size"
    40
    (Repeater_library.size
       (Repeater_library.range ~min_width:10.0 ~max_width:400.0 ~step:10.0))

let test_library_round_to_grid () =
  let l =
    Repeater_library.round_to_grid ~granularity:10.0 ~min_width:10.0
      ~max_width:400.0 [ 23.2; 396.0 ]
  in
  (* 23.2 snaps to 20 with neighbours 10 and 30; 396 snaps to 400 with
     neighbour 390 (410 clamps onto 400). *)
  Alcotest.(check (list (float 1e-9))) "snapped"
    [ 10.0; 20.0; 30.0; 390.0; 400.0 ]
    (Repeater_library.widths l)

let test_library_round_clamps () =
  let l =
    Repeater_library.round_to_grid ~granularity:10.0 ~min_width:10.0
      ~max_width:400.0 [ 2.0; 1000.0 ]
  in
  check_float "floor" 10.0 (Repeater_library.min_width l);
  check_float "ceiling" 400.0 (Repeater_library.max_width l)

(* --- Candidates ------------------------------------------------------------- *)

let zoned_net () =
  Net.create
    ~segments:[ Rip_net.Segment.of_layer Rip_tech.Layer.metal4 ~length:2000.0 ]
    ~zones:[ Zone.create ~z_start:700.0 ~z_end:1300.0 ]
    ~driver_width:20.0 ~receiver_width:40.0 ()

let test_candidates_uniform () =
  let sites = Candidates.uniform (zoned_net ()) ~pitch:200.0 in
  (* 200..1800 step 200, minus zone interior (800..1200) and endpoints. *)
  Alcotest.(check (list (float 1e-9)))
    "sites" [ 200.0; 400.0; 600.0; 1400.0; 1600.0; 1800.0 ] sites

let test_candidates_around () =
  let sites =
    Candidates.around (zoned_net ()) ~centers:[ 500.0 ] ~radius:2 ~pitch:100.0
  in
  (* 300..700; 700 is the zone edge hence legal. *)
  Alcotest.(check (list (float 1e-9)))
    "window" [ 300.0; 400.0; 500.0; 600.0; 700.0 ] sites

let prop_candidates_legal =
  QCheck.Test.make ~name:"uniform candidates are interior and zone-free"
    ~count:150
    (Helpers.net_arb ())
    (fun net ->
      let sites = Candidates.uniform net ~pitch:150.0 in
      let length = Net.total_length net in
      List.for_all
        (fun x -> x > 0.0 && x < length && Net.position_legal net x)
        sites
      && List.sort compare sites = sites)

(* --- Chain ------------------------------------------------------------------- *)

let prop_chain_stage_matches_stage =
  QCheck.Test.make
    ~name:"chain stage delay equals the geometry stage delay" ~count:80
    (Helpers.net_with_span_arb ~with_zone:false ())
    (fun (net, (a, b)) ->
      let length = Net.total_length net in
      QCheck.assume (a > 1.0 && b < length -. 1.0 && b -. a > 1.0);
      let geometry = Geometry.of_net net in
      let chain = Chain.create geometry repeater ~candidates:[ a; b ] in
      let via_chain =
        Chain.stage_delay chain ~from_site:1 ~from_width:33.0 ~to_site:2
          ~to_width:77.0
      in
      let direct =
        Rip_elmore.Stage.delay repeater geometry ~driver_pos:a
          ~driver_width:33.0 ~load_pos:b ~load_width:77.0
      in
      Helpers.close ~rel:1e-9 via_chain direct)

let test_chain_sites () =
  let net = zoned_net () in
  let geometry = Geometry.of_net net in
  let chain = Chain.create geometry repeater ~candidates:[ 500.0; 1500.0 ] in
  Alcotest.(check int) "sites" 4 (Chain.site_count chain);
  Alcotest.(check int) "interior" 2 (Chain.interior_count chain);
  Alcotest.(check bool) "driver not interior" false (Chain.is_interior chain 0);
  Alcotest.(check bool) "receiver not interior" false
    (Chain.is_interior chain 3);
  Alcotest.(check bool) "site 1 interior" true (Chain.is_interior chain 1)

(* --- Power_dp vs Exhaustive --------------------------------------------------- *)

let small_instance_gen =
  QCheck.Gen.(
    let* net = Helpers.net_gen () in
    let length = Rip_net.Net.total_length net in
    let* site_count = int_range 2 5 in
    let* sites =
      list_repeat site_count (float_range (0.02 *. length) (0.98 *. length))
    in
    let sites = List.filter (Net.position_legal net) sites in
    let* widths = list_size (int_range 1 3) (float_range 10.0 200.0) in
    let widths = if widths = [] then [ 50.0 ] else widths in
    let* slack = float_range 0.9 2.5 in
    return (net, sites, widths, slack))

let small_instance_arb =
  QCheck.make
    ~print:(fun (net, sites, widths, slack) ->
      Fmt.str "%a sites=%a widths=%a slack=%g" Rip_net.Net.pp net
        Fmt.(Dump.list float)
        sites
        Fmt.(Dump.list float)
        widths slack)
    small_instance_gen

let prop_power_dp_optimal =
  QCheck.Test.make ~name:"power DP matches exhaustive enumeration" ~count:60
    small_instance_arb
    (fun (net, sites, widths, slack) ->
      let geometry = Geometry.of_net net in
      let library = Repeater_library.create widths in
      let bare = Delay.total repeater geometry Solution.empty in
      let budget = bare *. slack /. 1.5 in
      let dp =
        run_dp geometry repeater ~library ~candidates:sites ~budget
      in
      let brute =
        Exhaustive.min_width_under_budget geometry repeater ~library
          ~candidates:sites ~budget
      in
      match (dp, brute) with
      | None, None -> true
      | Some dp, Some (_, brute_width) ->
          Helpers.close ~rel:1e-9 dp.Power_dp.total_width brute_width
      | Some _, None | None, Some _ -> false)

let prop_power_dp_valid =
  QCheck.Test.make ~name:"power DP output is legal and meets its budget"
    ~count:60 small_instance_arb
    (fun (net, sites, widths, slack) ->
      let geometry = Geometry.of_net net in
      let library = Repeater_library.create widths in
      let bare = Delay.total repeater geometry Solution.empty in
      let budget = bare *. slack in
      match run_dp geometry repeater ~library ~candidates:sites ~budget
      with
      | None -> true
      | Some r ->
          r.Power_dp.delay <= budget +. (1e-9 *. budget)
          && Solution.legal net r.Power_dp.solution
          && Helpers.close ~rel:1e-9
               (Solution.total_width r.Power_dp.solution)
               r.Power_dp.total_width)

let prop_power_dp_monotone_in_budget =
  QCheck.Test.make ~name:"looser budgets never cost more width" ~count:40
    small_instance_arb
    (fun (net, sites, widths, _) ->
      let geometry = Geometry.of_net net in
      let library = Repeater_library.create widths in
      let bare = Delay.total repeater geometry Solution.empty in
      let width_at budget =
        run_dp geometry repeater ~library ~candidates:sites ~budget
        |> Option.map (fun r -> r.Power_dp.total_width)
      in
      match (width_at (0.8 *. bare), width_at (1.1 *. bare)) with
      | Some tight, Some loose -> loose <= tight +. 1e-9
      | None, _ -> true
      | Some _, None -> false)

let test_power_dp_generous_budget_is_free () =
  let net = zoned_net () in
  let geometry = Geometry.of_net net in
  let bare = Delay.total repeater geometry Solution.empty in
  let library = Repeater_library.uniform ~min_width:10.0 ~step:10.0 ~count:5 in
  match
    run_dp geometry repeater ~library
      ~candidates:(Candidates.uniform net ~pitch:200.0)
      ~budget:(10.0 *. bare)
  with
  | Some r -> check_float "no repeaters needed" 0.0 r.Power_dp.total_width
  | None -> Alcotest.fail "generous budget must be feasible"

let test_power_dp_impossible_budget () =
  let net = zoned_net () in
  let geometry = Geometry.of_net net in
  let library = Repeater_library.uniform ~min_width:10.0 ~step:10.0 ~count:5 in
  Alcotest.(check bool) "infeasible" true
    (run_dp geometry repeater ~library
       ~candidates:(Candidates.uniform net ~pitch:200.0)
       ~budget:1e-15
    = None)

let test_power_dp_zone_respected () =
  (* All candidate sites come from the generator, which excludes zones, so
     any solution is zone-free; verify on a zone-heavy net. *)
  let net =
    Net.create
      ~segments:[ Rip_net.Segment.of_layer Rip_tech.Layer.metal4 ~length:8000.0 ]
      ~zones:[ Zone.create ~z_start:1000.0 ~z_end:7000.0 ]
      ~driver_width:20.0 ~receiver_width:40.0 ()
  in
  let geometry = Geometry.of_net net in
  let bare = Delay.total repeater geometry Solution.empty in
  let library = Repeater_library.range ~min_width:10.0 ~max_width:400.0 ~step:30.0 in
  match
    run_dp geometry repeater ~library
      ~candidates:(Candidates.uniform net ~pitch:100.0)
      ~budget:(0.75 *. bare)
  with
  | Some r ->
      Alcotest.(check bool) "legal" true (Solution.legal net r.Power_dp.solution)
  | None -> Alcotest.fail "expected feasible"

(* --- Min_delay ----------------------------------------------------------------- *)

let prop_min_delay_optimal =
  QCheck.Test.make ~name:"min-delay DP matches exhaustive enumeration"
    ~count:60 small_instance_arb
    (fun (net, sites, widths, _) ->
      let geometry = Geometry.of_net net in
      let library = Repeater_library.create widths in
      let dp = Min_delay.solve geometry repeater ~library ~candidates:sites in
      let _, brute =
        Exhaustive.min_delay geometry repeater ~library ~candidates:sites
      in
      Helpers.close ~rel:1e-9 dp.Min_delay.delay brute)

let prop_min_delay_consistent =
  QCheck.Test.make
    ~name:"min-delay DP's reported delay matches its solution" ~count:60
    small_instance_arb
    (fun (net, sites, widths, _) ->
      let geometry = Geometry.of_net net in
      let library = Repeater_library.create widths in
      let dp = Min_delay.solve geometry repeater ~library ~candidates:sites in
      Helpers.close ~rel:1e-9 dp.Min_delay.delay
        (Delay.total repeater geometry dp.Min_delay.solution))

let prop_min_delay_lower_bounds_power_dp =
  QCheck.Test.make ~name:"tau_min lower-bounds every feasible budget"
    ~count:40 small_instance_arb
    (fun (net, sites, widths, slack) ->
      let geometry = Geometry.of_net net in
      let library = Repeater_library.create widths in
      let tau =
        Min_delay.tau_min geometry repeater ~library ~candidates:sites
      in
      let bare = Delay.total repeater geometry Solution.empty in
      match
        run_dp geometry repeater ~library ~candidates:sites
          ~budget:(bare *. slack)
      with
      | None -> true
      | Some r -> r.Power_dp.delay >= tau -. (1e-9 *. tau))

(* --- Exhaustive ------------------------------------------------------------------ *)

let test_enumeration_size () =
  Alcotest.(check int) "3 sites 2 widths" 27
    (Exhaustive.enumeration_size ~sites:3 ~library_size:2)

let test_enumeration_guard () =
  let net = zoned_net () in
  let geometry = Geometry.of_net net in
  let library = Repeater_library.range ~min_width:10.0 ~max_width:400.0 ~step:10.0 in
  invalid "too large" (fun () ->
      ignore
        (Exhaustive.min_delay geometry repeater ~library
           ~candidates:(List.init 12 (fun i -> 100.0 +. float_of_int i))))

(* Regression for the frontier collection order: labels are gathered
   from a Hashtbl, so without the canonical pre-sort the result could
   depend on hash iteration order.  Two solves must agree bit-for-bit. *)
let prop_power_dp_deterministic =
  QCheck.Test.make
    ~name:"two solves of the same net return identical solutions" ~count:40
    small_instance_arb
    (fun (net, sites, widths, slack) ->
      let geometry = Geometry.of_net net in
      let library = Repeater_library.create widths in
      let bare = Delay.total repeater geometry Solution.empty in
      let budget = bare *. slack in
      let solve () =
        run_dp geometry repeater ~library ~candidates:sites ~budget
      in
      let identical (a : Power_dp.result) (b : Power_dp.result) =
        let eq = List.for_all2 Float.equal in
        eq (Solution.positions a.solution) (Solution.positions b.solution)
        && eq (Solution.widths a.solution) (Solution.widths b.solution)
        && Float.equal a.delay b.delay
        && Float.equal a.total_width b.total_width
      in
      match (solve (), solve ()) with
      | None, None -> true
      | Some a, Some b -> identical a b
      | Some _, None | None, Some _ -> false)

(* The cancellation hook must be a pure observer: threading a token that
   never fires through the DP — one without a deadline, and one whose
   deadline lies far in the future, so every poll reads the clock — has
   to leave the result bit-identical to a solve without the hook. *)
let prop_power_dp_cancel_identity =
  QCheck.Test.make
    ~name:"a never-firing cancel token leaves the solve bit-identical"
    ~count:40 small_instance_arb
    (fun (net, sites, widths, slack) ->
      let geometry = Geometry.of_net net in
      let library = Repeater_library.create widths in
      let bare = Delay.total repeater geometry Solution.empty in
      let budget = bare *. slack in
      let plain =
        run_dp geometry repeater ~library ~candidates:sites ~budget
      in
      let hooked token =
        run_dp
          ~hooks:
            (Rip_numerics.Hooks.make ~cancel:(Rip_engine.Cancel.hook token) ())
          geometry repeater ~library ~candidates:sites ~budget
      in
      let far_future = Rip_numerics.Cpu_clock.monotonic_seconds () +. 1e6 in
      let identical (a : Power_dp.result) (b : Power_dp.result) =
        let eq = List.for_all2 Float.equal in
        eq (Solution.positions a.solution) (Solution.positions b.solution)
        && eq (Solution.widths a.solution) (Solution.widths b.solution)
        && Float.equal a.delay b.delay
        && Float.equal a.total_width b.total_width
      in
      List.for_all
        (fun token ->
          match (plain, hooked token) with
          | None, None -> true
          | Some a, Some b -> identical a b
          | Some _, None | None, Some _ -> false)
        [
          Rip_engine.Cancel.create ();
          Rip_engine.Cancel.create ~deadline:far_future ();
        ])

(* --- The DP against its oracle ---------------------------------------------- *)

(* The core contract: the O(bn^2)-pruned flat-arena DP returns the same
   solution, bit for bit, as the reference frontier DP.  Run uncapped
   (the documented divergence caveat only concerns a binding frontier
   cap), and thread a never-firing cancel token through the fast side so
   its poll points are covered too. *)
let prop_backend_equivalence =
  QCheck.Test.make
    ~name:"fast backend is bit-identical to the reference backend" ~count:80
    small_instance_arb
    (fun (net, sites, widths, slack) ->
      let geometry = Geometry.of_net net in
      let library = Repeater_library.create widths in
      let bare = Delay.total repeater geometry Solution.empty in
      List.for_all
        (fun budget ->
          let reference =
            Power_dp.reference
              (Power_dp.request geometry repeater ~library ~candidates:sites
                 ~budget)
          in
          let token = Rip_engine.Cancel.create () in
          let fast =
            run_dp
              ~hooks:
                (Rip_numerics.Hooks.make ~cancel:(Rip_engine.Cancel.hook token)
                   ())
              geometry repeater ~library ~candidates:sites ~budget
          in
          match (reference, fast) with
          | None, None -> true
          | Some a, Some b ->
              Helpers.identical_results a b
              && a.Power_dp.stats.Power_dp.sites
                 = b.Power_dp.stats.Power_dp.sites
          | Some _, None | None, Some _ -> false)
        [ bare *. slack /. 1.5; bare *. slack; bare *. slack *. 2.0 ])

(* Metamorphic: more candidate sites never make the exact DP's answer
   wider.  Every insertion over a subset of the sites is legal over the
   whole set, so the uncapped DP over the whole set answers wherever the
   subset's does, at most as wide in the label units it minimises.  The
   subset keeps the sites whose bit is set in [mask]. *)
let prop_superset_never_wider =
  QCheck.Test.make ~name:"more candidate sites never widen the exact answer"
    ~count:80
    (QCheck.pair small_instance_arb (QCheck.int_bound 31))
    (fun ((net, sites, widths, slack), mask) ->
      let geometry = Geometry.of_net net in
      let library = Repeater_library.create widths in
      let bare = Delay.total repeater geometry Solution.empty in
      let subset = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) sites in
      List.for_all
        (fun budget ->
          let solve candidates =
            run_dp geometry repeater ~library ~candidates ~budget
          in
          match (solve subset, solve sites) with
          | None, _ -> true
          | Some _, None -> false
          | Some sub, Some full ->
              Power_dp.width_units full <= Power_dp.width_units sub)
        [ bare *. slack /. 1.5; bare *. slack; bare *. slack *. 2.0 ])

(* The width bound: any bound at or above the optimum's label units leaves
   the fast DP's answer bit-identical, and one unit below it leaves
   no answer.  The instances are bigger than the exhaustive ones (8-30
   sites, up to 6 widths) so frontiers have labels for the bound to cut;
   ties at the bound are the common case, since the receiver's optimum
   label sits exactly on it. *)
let bound_instance_arb =
  let gen =
    QCheck.Gen.(
      let* net = Helpers.net_gen () in
      let* site_count = int_range 8 30 in
      let length = Net.total_length net in
      let sites =
        Candidates.uniform net ~pitch:(length /. float_of_int site_count)
      in
      let* widths = list_size (int_range 2 6) (float_range 10.0 200.0) in
      let* slack = float_range 0.9 2.5 in
      let* extra = int_range 1 5000 in
      return (net, sites, widths, slack, extra))
  in
  QCheck.make
    ~print:(fun (net, sites, widths, slack, extra) ->
      Fmt.str "%a sites=%d widths=%a slack=%g extra=%d" Rip_net.Net.pp net
        (List.length sites)
        Fmt.(Dump.list float)
        widths slack extra)
    gen

let prop_width_bound_exact =
  QCheck.Test.make
    ~name:"a width bound at or above the optimum changes nothing" ~count:80
    bound_instance_arb
    (fun (net, sites, widths, slack, extra) ->
      let geometry = Geometry.of_net net in
      let library = Repeater_library.create widths in
      let bare = Delay.total repeater geometry Solution.empty in
      let bounded width_bound budget =
        run_dp ~width_bound geometry repeater ~library ~candidates:sites
          ~budget
      in
      List.for_all
        (fun budget ->
          match
            run_dp geometry repeater ~library ~candidates:sites ~budget
          with
          | None -> bounded max_int budget = None
          | Some optimum -> (
              let units = Power_dp.width_units optimum in
              let same = function
                | Some r -> Helpers.identical_results optimum r
                | None -> false
              in
              same (bounded units budget)
              && same (bounded (units + extra) budget)
              && bounded (units - 1) budget = None))
        [ bare *. slack /. 2.0; bare *. slack /. 1.5; bare *. slack ])

(* The price: a Lagrangian multiplier on delay that sharpens a width
   bound.  With the bound at or above the optimum, any positive price
   gives the unpriced answer bit for bit, and one unit below it still
   gives none.  The prices are REFINE's multiplier at the optimum (as
   [Rip] passes it, in label units per second), that times 1e-3 and 1e3,
   and 1 unit/s, which leaves the price nearly nothing to prune.  Without
   a bound a price is ignored. *)
let prop_price_exact =
  QCheck.Test.make
    ~name:"a price leaves a bounded pass's answer unchanged" ~count:60
    bound_instance_arb
    (fun (net, sites, widths, slack, extra) ->
      let geometry = Geometry.of_net net in
      let library = Repeater_library.create widths in
      let bare = Delay.total repeater geometry Solution.empty in
      let priced ?width_bound price budget =
        run_dp ?width_bound ~price geometry repeater ~library
          ~candidates:sites ~budget
      in
      List.for_all
        (fun budget ->
          match
            run_dp geometry repeater ~library ~candidates:sites ~budget
          with
          | None ->
              priced ~width_bound:max_int 1.0 budget = None
              && priced 1.0 budget = None
          | Some optimum ->
              let units = Power_dp.width_units optimum in
              let refine_like =
                match
                  Rip_refine.Refine.run geometry repeater ~budget
                    ~initial:optimum.Power_dp.solution
                with
                | Some o
                  when Float.is_finite o.Rip_refine.Refine.lambda
                       && o.Rip_refine.Refine.lambda > 0.0 ->
                    Rip_dp.Fast_dp.units_per_u *. o.Rip_refine.Refine.lambda
                | Some _ | None -> float_of_int (units + 1) /. budget
              in
              let same = function
                | Some r -> Helpers.identical_results optimum r
                | None -> false
              in
              List.for_all
                (fun price ->
                  same (priced ~width_bound:units price budget)
                  && same (priced ~width_bound:(units + extra) price budget)
                  && priced ~width_bound:(units - 1) price budget = None
                  && same (priced price budget))
                [ refine_like; 1e-3 *. refine_like; 1e3 *. refine_like; 1.0 ])
        [ bare *. slack /. 2.0; bare *. slack /. 1.5; bare *. slack ])

(* The price's strength: every label's priced completion is bounded
   below by the Lagrangian dual value L* = min over all chains of
   [width units + price * delay], computed here by a plain shortest-path
   DP.  So a bound under [L* - price * budget] leaves a priced pass no
   label anywhere, not even at the first site, although the width bound
   alone keeps many.  A weaker completion table or a weaker forward test
   keeps some. *)
let lagrangian_dual geometry ~library ~candidates ~price =
  let chain = Chain.create geometry repeater ~candidates in
  let last = Chain.site_count chain - 1 in
  let widths_at site =
    if site = 0 then [| chain.Chain.driver_width |]
    else if site = last then [| chain.Chain.receiver_width |]
    else Array.of_list (Repeater_library.widths library)
  in
  let cost = Array.init (last + 1) (fun site ->
      Array.make (Array.length (widths_at site)) infinity) in
  cost.(0).(0) <- 0.0;
  for t = 1 to last do
    Array.iteri
      (fun wj to_width ->
        let own =
          if Chain.is_interior chain t then
            float_of_int (Rip_dp.Fast_dp.width_units to_width)
          else 0.0
        in
        for s = 0 to t - 1 do
          Array.iteri
            (fun wi from_width ->
              let stage =
                Chain.stage_delay chain ~from_site:s ~from_width ~to_site:t
                  ~to_width
              in
              let c = cost.(s).(wi) +. own +. (price *. stage) in
              if c < cost.(t).(wj) then cost.(t).(wj) <- c)
            (widths_at s)
        done)
      (widths_at t)
  done;
  cost.(last).(0)

let prop_price_reaches_dual_bound =
  QCheck.Test.make
    ~name:"under the Lagrangian bound a priced pass keeps no label" ~count:60
    bound_instance_arb
    (fun (net, sites, widths, slack, _) ->
      let geometry = Geometry.of_net net in
      let library = Repeater_library.create widths in
      let bare = Delay.total repeater geometry Solution.empty in
      List.for_all
        (fun budget ->
          match
            run_dp geometry repeater ~library ~candidates:sites ~budget
          with
          | None -> true
          | Some optimum ->
              let units = Power_dp.width_units optimum in
              let kept width_bound price =
                let total = ref 0 in
                let probe (Power_dp.Column { kept; _ }) =
                  total := !total + kept
                in
                ignore
                  (run_dp ~width_bound ?price
                     ~hooks:(Rip_numerics.Hooks.make ~probe ())
                     geometry repeater ~library ~candidates:sites ~budget);
                !total
              in
              List.for_all
                (fun price ->
                  let dual =
                    lagrangian_dual geometry ~library ~candidates:sites ~price
                    -. (price *. budget)
                  in
                  (* A margin of a unit plus a relative 1e-6 covers both
                     passes' rounding and the pass's 1e-9 slack. *)
                  let bound =
                    int_of_float
                      (Float.floor (dual -. (1e-6 *. Float.abs dual)))
                    - 1
                  in
                  bound < 0 || bound >= units
                  || kept bound (Some price) = 0)
                (let lambda = float_of_int (units + 1) /. budget in
                 [ lambda; 10.0 *. lambda ]))
        [ bare *. slack /. 2.0; bare *. slack /. 1.5; bare *. slack ])

(* One arena reused across many fast solves must behave exactly like a
   fresh arena per solve, and its capacity must stop growing once it has
   seen the biggest instance. *)
let test_arena_reuse () =
  let net = zoned_net () in
  let geometry = Geometry.of_net net in
  let bare = Delay.total repeater geometry Solution.empty in
  let library =
    Repeater_library.range ~min_width:10.0 ~max_width:400.0 ~step:30.0
  in
  let candidates = Candidates.uniform net ~pitch:100.0 in
  let arena = Rip_dp.Fast_dp.Arena.create () in
  let budgets = [ 0.7 *. bare; 0.8 *. bare; 1.1 *. bare; 0.7 *. bare ] in
  let shared =
    List.map
      (fun budget ->
        run_dp ~arena geometry repeater ~library ~candidates ~budget)
      budgets
  in
  let capacity_after_warmup = Rip_dp.Fast_dp.Arena.capacity arena in
  let fresh =
    List.map
      (fun budget ->
        run_dp geometry repeater ~library ~candidates ~budget)
      budgets
  in
  List.iter2
    (fun shared fresh ->
      match (shared, fresh) with
      | None, None -> ()
      | Some a, Some b ->
          Alcotest.(check bool)
            "shared arena result equals fresh arena result" true
            (Helpers.identical_results a b)
      | Some _, None | None, Some _ ->
          Alcotest.fail "shared/fresh arena feasibility mismatch")
    shared fresh;
  List.iter
    (fun budget ->
      ignore
        (run_dp ~arena geometry repeater ~library ~candidates ~budget))
    budgets;
  Alcotest.(check int) "capacity stabilises after warmup" capacity_after_warmup
    (Rip_dp.Fast_dp.Arena.capacity arena)

let test_run_rejects_tiny_cap () =
  let net = zoned_net () in
  let geometry = Geometry.of_net net in
  let library = Repeater_library.uniform ~min_width:10.0 ~step:10.0 ~count:5 in
  let candidates = Candidates.uniform net ~pitch:200.0 in
  let request =
    Power_dp.request ~frontier_cap:1 geometry repeater ~library ~candidates
      ~budget:1e-9
  in
  invalid "cap of 1" (fun () -> ignore (Power_dp.run request));
  invalid "cap of 1, oracle" (fun () -> ignore (Power_dp.reference request))

let test_run_rejects_bad_price () =
  let net = zoned_net () in
  let geometry = Geometry.of_net net in
  let library = Repeater_library.uniform ~min_width:10.0 ~step:10.0 ~count:5 in
  let candidates = Candidates.uniform net ~pitch:200.0 in
  List.iter
    (fun price ->
      invalid
        (Printf.sprintf "price of %g" price)
        (fun () ->
          ignore
            (run_dp ~width_bound:1000 ~price geometry repeater ~library
               ~candidates ~budget:1e-9)))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

let suite =
  [
    ( "dp.repeater_library",
      [
        Alcotest.test_case "create" `Quick test_library_create;
        Alcotest.test_case "validation" `Quick test_library_validation;
        Alcotest.test_case "uniform and range" `Quick
          test_library_uniform_range;
        Alcotest.test_case "round to grid" `Quick test_library_round_to_grid;
        Alcotest.test_case "round clamps" `Quick test_library_round_clamps;
        Alcotest.test_case "printer never wraps" `Quick
          test_library_pp_one_line;
      ] );
    ( "dp.candidates",
      [
        Alcotest.test_case "uniform excludes zone" `Quick
          test_candidates_uniform;
        Alcotest.test_case "around window" `Quick test_candidates_around;
        qcheck prop_candidates_legal;
      ] );
    ( "dp.chain",
      [
        Alcotest.test_case "site bookkeeping" `Quick test_chain_sites;
        qcheck prop_chain_stage_matches_stage;
      ] );
    ( "dp.power_dp",
      [
        Alcotest.test_case "generous budget" `Quick
          test_power_dp_generous_budget_is_free;
        Alcotest.test_case "impossible budget" `Quick
          test_power_dp_impossible_budget;
        Alcotest.test_case "zones respected" `Quick test_power_dp_zone_respected;
        qcheck prop_power_dp_optimal;
        qcheck prop_power_dp_valid;
        qcheck prop_power_dp_monotone_in_budget;
        qcheck prop_power_dp_deterministic;
        qcheck prop_power_dp_cancel_identity;
      ] );
    ( "dp.backends",
      [
        qcheck prop_backend_equivalence;
        qcheck prop_superset_never_wider;
        qcheck prop_width_bound_exact;
        qcheck prop_price_exact;
        qcheck prop_price_reaches_dual_bound;
        Alcotest.test_case "arena reuse" `Quick test_arena_reuse;
        Alcotest.test_case "tiny frontier cap rejected" `Quick
          test_run_rejects_tiny_cap;
        Alcotest.test_case "bad price rejected" `Quick
          test_run_rejects_bad_price;
      ] );
    ( "dp.min_delay",
      [
        qcheck prop_min_delay_optimal;
        qcheck prop_min_delay_consistent;
        qcheck prop_min_delay_lower_bounds_power_dp;
      ] );
    ( "dp.exhaustive",
      [
        Alcotest.test_case "enumeration size" `Quick test_enumeration_size;
        Alcotest.test_case "size guard" `Quick test_enumeration_guard;
      ] );
  ]
