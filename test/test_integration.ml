(* End-to-end integration tests: the full RIP pipeline against the paper's
   headline claims, on hand-built and generated nets, through the public
   API only. *)

module Net = Rip_net.Net
module Zone = Rip_net.Zone
module Segment = Rip_net.Segment
module Geometry = Rip_net.Geometry
module Net_io = Rip_net.Net_io
module Solution = Rip_elmore.Solution
module Delay = Rip_elmore.Delay
module Validate = Rip_core.Validate
module Rip = Rip_core.Rip
module Baseline = Rip_workload.Baseline
module Suite = Rip_workload.Suite
module Config = Rip_core.Config
module Power_dp = Rip_dp.Power_dp
module Netgen = Rip_workload.Netgen
module Min_delay = Rip_dp.Min_delay
module Candidates = Rip_dp.Candidates

let qcheck = QCheck_alcotest.to_alcotest

let process = Helpers.process
let repeater = Helpers.repeater

(* A hand-built 5-segment multi-layer net crossing one macro block. *)
let macro_net () =
  Net.create ~name:"macro_crossing"
    ~segments:
      [
        Segment.of_layer Rip_tech.Layer.metal4 ~length:2100.0;
        Segment.of_layer Rip_tech.Layer.metal5 ~length:1700.0;
        Segment.of_layer Rip_tech.Layer.metal4 ~length:2400.0;
        Segment.of_layer Rip_tech.Layer.metal5 ~length:1300.0;
        Segment.of_layer Rip_tech.Layer.metal4 ~length:2000.0;
      ]
    ~zones:[ Zone.create ~z_start:3200.0 ~z_end:6100.0 ]
    ~driver_width:20.0 ~receiver_width:40.0 ()

let test_full_pipeline_on_macro_net () =
  let net = macro_net () in
  let geometry = Geometry.of_net net in
  let tau_min = Rip.tau_min process geometry in
  List.iter
    (fun slack ->
      let budget = slack *. tau_min in
      match Rip.solve (Rip.problem ~geometry process net ~budget) with
      | Error e ->
          Alcotest.failf "x%.2f failed: %s" slack (Rip.error_to_string e)
      | Ok r ->
          Alcotest.(check bool)
            (Printf.sprintf "valid at x%.2f" slack)
            true
            (Validate.is_valid ~min_width:10.0 ~max_width:400.0 process net
               ~budget r.Rip.solution))
    [ 1.05; 1.25; 1.55; 2.05 ]

let test_pipeline_through_file_round_trip () =
  (* Write the net to a file, parse it back, solve, and compare widths. *)
  let net = macro_net () in
  let path = Filename.temp_file "rip_integration" ".net" in
  Net_io.write_file path net;
  let parsed =
    match Net_io.parse_file path with
    | Ok n -> n
    | Error e -> Alcotest.failf "parse: %s" e
  in
  Sys.remove path;
  let budget = 1.4 *. Rip.tau_min process (Geometry.of_net net) in
  match
    ( Rip.solve (Rip.problem process net ~budget),
      Rip.solve (Rip.problem process parsed ~budget) )
  with
  | Ok a, Ok b ->
      Alcotest.(check bool) "same result through the file" true
        (Solution.equal a.Rip.solution b.Rip.solution)
  | _, _ -> Alcotest.fail "both solves should succeed"

let test_refine_improves_coarse_seed () =
  (* The analytical stage is the paper's contribution: on the macro net it
     must strictly improve the coarse seed for mid-range budgets. *)
  let net = macro_net () in
  let geometry = Geometry.of_net net in
  let tau_min = Rip.tau_min process geometry in
  match
    Rip.solve (Rip.problem ~geometry process net ~budget:(1.35 *. tau_min))
  with
  | Error e -> Alcotest.failf "failed: %s" (Rip.error_to_string e)
  | Ok r -> (
      match (r.Rip.trace.Rip.coarse, r.Rip.trace.Rip.refined) with
      | Some coarse, Some refined ->
          Alcotest.(check bool) "refine below coarse" true
            (refined.Rip_refine.Refine.total_width
            < coarse.Rip_dp.Power_dp.total_width +. 1e-9);
          Alcotest.(check bool) "final below coarse" true
            (r.Rip.total_width <= coarse.Rip_dp.Power_dp.total_width +. 1e-9)
      | _ -> Alcotest.fail "trace incomplete")

let test_rip_never_violates_where_baseline_does () =
  (* Zone I of Figure 7(a): budgets the capped baseline cannot meet, RIP
     must still meet. *)
  let nets = Suite.nets ~count:5 () in
  let found_zone1 = ref false in
  List.iter
    (fun net ->
      let geometry = Geometry.of_net net in
      let tau_min = Rip.tau_min process geometry in
      List.iter
        (fun slack ->
          let budget = slack *. tau_min in
          let base =
            Baseline.solve (Baseline.fixed_size ~granularity:10.0) process
              geometry ~budget
          in
          if base.Baseline.result = None then begin
            found_zone1 := true;
            match Rip.solve (Rip.problem ~geometry process net ~budget) with
            | Ok r ->
                Alcotest.(check bool) "RIP feasible in zone I" true
                  (Validate.is_valid process net ~budget r.Rip.solution)
            | Error e ->
                Alcotest.failf "RIP must not violate (%s): %s" net.Net.name
                  (Rip.error_to_string e)
          end)
        [ 1.05; 1.10; 1.15 ])
    nets;
  Alcotest.(check bool) "zone I exercised" true !found_zone1

let test_rip_beats_coarse_baseline_on_average () =
  (* The headline claim, in miniature: against the g=40u baseline, RIP's
     mean saving across a small sweep is solidly positive. *)
  let nets = Suite.nets ~count:4 () in
  let savings = ref [] in
  List.iter
    (fun net ->
      let geometry = Geometry.of_net net in
      let tau_min = Rip.tau_min process geometry in
      List.iter
        (fun slack ->
          let budget = slack *. tau_min in
          let base =
            Baseline.solve (Baseline.fixed_size ~granularity:40.0) process
              geometry ~budget
          in
          match
            ( base.Baseline.result,
              Rip.solve (Rip.problem ~geometry process net ~budget) )
          with
          | Some b, Ok r when b.Rip_dp.Power_dp.total_width > 0.0 ->
              savings :=
                (100.0
                *. (b.Rip_dp.Power_dp.total_width -. r.Rip.total_width)
                /. b.Rip_dp.Power_dp.total_width)
                :: !savings
          | _ -> ())
        [ 1.1; 1.3; 1.5; 1.7; 1.9 ])
    nets;
  let mean = Rip_numerics.Stats.mean !savings in
  Alcotest.(check bool)
    (Printf.sprintf "mean saving %.1f%% > 5%%" mean)
    true (mean > 5.0)

let test_rip_runtime_beats_fine_baseline () =
  (* Table 2's speedup claim, in miniature: RIP is at least 5x faster than
     the g_DP = 10u fixed-range baseline at comparable quality. *)
  let net = List.hd (Suite.nets ~count:1 ()) in
  let geometry = Geometry.of_net net in
  let tau_min = Rip.tau_min process geometry in
  let budget = 1.3 *. tau_min in
  let base =
    Baseline.solve (Baseline.fixed_range ~granularity:10.0) process geometry
      ~budget
  in
  match
    ( base.Baseline.result,
      Rip.solve (Rip.problem ~geometry process net ~budget) )
  with
  | Some _, Ok r ->
      Alcotest.(check bool)
        (Printf.sprintf "speedup %.0fx >= 5x"
           (base.Baseline.runtime_seconds /. r.Rip.runtime_seconds))
        true
        (base.Baseline.runtime_seconds >= 5.0 *. r.Rip.runtime_seconds)
  | _ -> Alcotest.fail "both should solve"

let test_stage_delay_additivity_across_pipeline () =
  (* The delay reported by RIP equals an independent re-evaluation. *)
  let net = macro_net () in
  let geometry = Geometry.of_net net in
  let tau_min = Rip.tau_min process geometry in
  match
    Rip.solve (Rip.problem ~geometry process net ~budget:(1.5 *. tau_min))
  with
  | Error e -> Alcotest.failf "failed: %s" (Rip.error_to_string e)
  | Ok r ->
      Alcotest.(check bool) "delay re-evaluates" true
        (Helpers.close ~rel:1e-12 r.Rip.delay
           (Delay.total repeater geometry r.Rip.solution))

(* A zone that starts at the driver pin: the analytic min-delay seed used
   to snap onto the zone's start, position 0, and crash the width solver,
   so [tau_min] raised, and so did every solve that reached the
   infeasible-budget hint or the rescue pass. *)
let zone_at_driver () =
  Net.create ~name:"zone_at_driver"
    ~segments:
      [
        Segment.of_layer Rip_tech.Layer.metal4 ~length:2000.0;
        Segment.of_layer Rip_tech.Layer.metal5 ~length:2500.0;
        Segment.of_layer Rip_tech.Layer.metal4 ~length:1800.0;
      ]
    ~zones:[ Zone.create ~z_start:0.0 ~z_end:3000.0 ]
    ~driver_width:20.0 ~receiver_width:40.0 ()

let test_zone_at_driver_pin () =
  let net = zone_at_driver () in
  let geometry = Geometry.of_net net in
  let tau_min = Rip.tau_min process geometry in
  Alcotest.(check bool) "tau_min finite" true
    (Float.is_finite tau_min && tau_min > 0.0);
  (match Rip.solve (Rip.problem ~geometry process net ~budget:100e-12) with
  | Error (Rip.Infeasible_budget { tau_min_hint = Some hint; _ }) ->
      Alcotest.(check (float 0.0)) "hint is tau_min" tau_min hint
  | Error e -> Alcotest.failf "wrong error: %s" (Rip.error_to_string e)
  | Ok _ -> Alcotest.fail "100 ps cannot be feasible");
  List.iter
    (fun slack ->
      let budget = slack *. tau_min in
      match Rip.solve (Rip.problem ~geometry process net ~budget) with
      | Ok r ->
          Alcotest.(check bool)
            (Printf.sprintf "legal at x%.2f" slack)
            true
            (Validate.is_valid process net ~budget r.Rip.solution)
      | Error e ->
          Alcotest.failf "x%.2f failed: %s" slack (Rip.error_to_string e))
    [ 1.05; 1.3; 2.0 ]

(* The reference pipeline: RIP's passes over [Rip.Chain] with every DP
   pass on the oracle [Power_dp.reference] under the production cap.  The
   oracle ignores width bounds and prices, so the pipeline runs no subset
   pass and no seed bound: each pass runs once, unbounded.  Production
   runs every DP pass subset first and bounds the full pass by the
   subset's width; the two pipelines must agree bit for bit. *)
let reference_solve geometry ~budget =
  let module Reference_chain = struct
    include Rip.Chain

    let halve _ _ = None
    let rounded_up _ _ ~library:_ = None

    let power_dp _ ?width_bound:_ ?price:_ ~library ~budget candidates =
      Power_dp.reference
        (Power_dp.request ~frontier_cap:Config.frontier_cap geometry repeater
           ~library ~candidates ~budget)
  end in
  let module Reference_pipeline = Rip_core.Pipeline.Make (Reference_chain) in
  Reference_pipeline.run ~config:Config.default ~hooks:Rip_core.Hooks.default
    (Rip.Chain.create process geometry)
    ~budget

(* Production's passes, counting the DP passes that ran under a width
   bound and found no answer.  Every bound production derives (a subset's
   answer, REFINE's rounded insertion, a narrower window's answer) is a
   legal insertion over the pass's sites, so it is at or above the
   optimum and the bounded pass answers; only a binding frontier cap
   could empty one (DESIGN.md 3.2a).  A count above zero means a bound
   fell below the optimum, which the answers alone cannot show: the pass
   reruns unbounded. *)
let bounded_misses geometry ~budget =
  let misses = ref 0 in
  let module Counting_chain = struct
    include Rip.Chain

    let power_dp t ?width_bound ?price ~library ~budget sites =
      let answer = power_dp t ?width_bound ?price ~library ~budget sites in
      if Option.is_some width_bound && Option.is_none answer then incr misses;
      answer
  end in
  let module Counting_pipeline = Rip_core.Pipeline.Make (Counting_chain) in
  ignore
    (Counting_pipeline.run ~config:Config.default
       ~hooks:Rip_core.Hooks.default
       (Rip.Chain.create process geometry)
       ~budget);
  !misses

let same_pass = Option.equal Helpers.identical_results
let same_floats = List.equal Float.equal

(* REFINE's whole outcome: its insertion, multiplier, iterations, moves
   and width evaluations. *)
let same_refine (a : Rip_refine.Refine.outcome) (b : Rip_refine.Refine.outcome)
    =
  Solution.equal a.solution b.solution
  && Float.equal a.lambda b.lambda
  && a.iterations = b.iterations && a.moves = b.moves
  && Float.equal a.initial_total_width b.initial_total_width
  && Float.equal a.total_width b.total_width
  && Float.equal a.delay b.delay
  && a.converged = b.converged && a.evaluations = b.evaluations

(* The production answer and every phase of its trace against the
   reference pipeline's: coarse pass, REFINE, library B, the final
   window's radius and sites, final, rescue and anchor passes.  Only
   [core_bound] is left out, because the reference runs no seed bound. *)
let matches_reference production reference =
  match (production, reference) with
  | Ok (r : Rip.report), Ok ((t : _ Rip_core.Pipeline.trace), best) ->
      let p = r.Rip.trace in
      Solution.equal r.Rip.solution best.Power_dp.solution
      && Float.equal r.Rip.total_width best.Power_dp.total_width
      && same_pass p.Rip.coarse (Some t.coarse)
      && p.Rip.used_fallback_library = t.used_fallback_library
      && Option.equal same_refine p.Rip.refined t.refined
      && Option.equal
           (fun a b ->
             same_floats
               (Rip_dp.Repeater_library.widths a)
               (Rip_dp.Repeater_library.widths b))
           p.Rip.refined_library t.refined_library
      && same_floats p.Rip.refined_candidates
           (Option.value t.refined_sites ~default:[])
      && p.Rip.final_radius = t.final_radius
      && same_pass p.Rip.final t.final
      && same_pass p.Rip.rescue t.rescue
      && same_pass p.Rip.anchor t.anchor
  | Error (Rip.Infeasible_budget { tau_min_hint = Some a; _ }), Error b ->
      Float.equal a b
  | Ok _, Error _ | Error _, _ -> false

(* Section-6 nets, shortened to 2-4 segments so the reference DP stays
   quick, with the zone moved anywhere along the net, touching either
   pin included, at 1.02-3.0 x tau_min. *)
let bounded_pipeline_arb =
  let config = { Netgen.default with min_segments = 2; max_segments = 4 } in
  let gen =
    QCheck.Gen.(
      let* index = int_range 1 10_000 in
      let* pin = int_range 0 2 in
      let* place = float_range 0.0 1.0 in
      let* slack = float_range 1.02 3.0 in
      let base =
        Netgen.generate ~config (Rip_numerics.Prng.create 19L) ~index
      in
      let length = Net.total_length base in
      let zone_length =
        match base.Net.zones with
        | z :: _ -> z.Zone.z_end -. z.Zone.z_start
        | [] -> 0.25 *. length
      in
      let z_start =
        match pin with
        | 0 -> 0.0
        | 1 -> length -. zone_length
        | _ -> place *. (length -. zone_length)
      in
      let net =
        Net.create ~name:base.Net.name
          ~segments:(Array.to_list base.Net.segments)
          ~zones:
            [ Zone.create ~z_start ~z_end:(z_start +. zone_length) ]
          ~driver_width:base.Net.driver_width
          ~receiver_width:base.Net.receiver_width ()
      in
      return (net, slack))
  in
  QCheck.make
    ~print:(fun (net, slack) -> Fmt.str "%a x%g" Net.pp net slack)
    gen

(* The seed bound of the final pass's core subset is REFINE's insertion
   with each width rounded up to the refined library, and it meets the
   budget. *)
let core_bound_sound ~budget (r : Rip.report) =
  match (r.Rip.trace.Rip.core_bound, r.Rip.trace.Rip.refined,
         r.Rip.trace.Rip.refined_library) with
  | None, _, _ -> true
  | Some bound, Some refined, Some library ->
      let placed = Solution.repeaters refined.Rip_refine.Refine.solution in
      let rounded = Solution.repeaters bound.Power_dp.solution in
      List.compare_lengths placed rounded = 0
      && List.for_all2
           (fun (p : Solution.repeater) (q : Solution.repeater) ->
             Float.equal p.position q.position
             && Rip_dp.Repeater_library.mem library q.width
             && q.width >= p.width
             && q.width -. p.width
                < 2.0 *. Config.default.Config.refined_granularity)
           placed rounded
      && bound.Power_dp.delay <= budget
  | Some _, _, _ -> false

(* How many production solves of the qchecks below had a seed bound. *)
let seeded = ref 0

let prop_bounded_passes_match_reference =
  QCheck.Test.make ~name:"bounded passes match reference" ~count:25
    bounded_pipeline_arb (fun (net, slack) ->
      let geometry = Geometry.of_net net in
      let budget = slack *. Rip.tau_min process geometry in
      let production = Rip.solve (Rip.problem ~geometry process net ~budget) in
      (match production with
      | Ok r when Option.is_some r.Rip.trace.Rip.core_bound -> incr seeded
      | Ok _ | Error _ -> ());
      matches_reference production (reference_solve geometry ~budget)
      && bounded_misses geometry ~budget = 0
      && Result.fold ~ok:(core_bound_sound ~budget) ~error:(Fun.const true)
           production)

(* The qcheck, then a check that the seeded core pass ran in some of its
   cases, so the qcheck compares it against the reference. *)
let bounded_passes_case =
  let name, speed, run = qcheck prop_bounded_passes_match_reference in
  ( name,
    speed,
    fun () ->
      seeded := 0;
      run ();
      Alcotest.(check bool) "the seeded core pass ran" true (!seeded > 0) )

(* Metamorphic: the coarse, final and rescue passes are the answers RIP
   picks the narrowest from, so whenever one of them meets the budget by
   the pipeline's own rule (to 1 ppm), RIP answers and its width is at
   most that pass's width, exactly.  For the coarse pass this is the
   ROADMAP's "never more width than a feasible coarse seed". *)
let prop_never_wider_than_a_feasible_pass =
  QCheck.Test.make
    ~name:"RIP is never wider than a pass that meets the budget" ~count:60
    bounded_pipeline_arb (fun (net, slack) ->
      let geometry = Geometry.of_net net in
      let budget = slack *. Rip.tau_min process geometry in
      let meets (pass : Power_dp.result) =
        pass.Power_dp.delay <= budget +. (1e-6 *. Float.abs budget)
      in
      match Rip.solve (Rip.problem ~geometry process net ~budget) with
      | Error _ -> false
      | Ok r ->
          let t = r.Rip.trace in
          List.for_all
            (fun pass ->
              (not (meets pass))
              || r.Rip.total_width <= pass.Power_dp.total_width)
            (List.filter_map Fun.id [ t.Rip.coarse; t.Rip.final; t.Rip.rescue ]))

(* The nets [netgen_cli --count 3] writes (the suite generator at its
   default seed), read back through [Net_io] as [rip_cli] reads them, at
   1.05, 1.1, 1.3 (the default target) and 2.0 x tau_min: the same
   checks on full-size Section-6 nets. *)
let test_netgen_nets_match_reference () =
  List.iter
    (fun generated ->
      let net =
        match Net_io.parse_string (Net_io.to_string generated) with
        | Ok net -> net
        | Error e -> Alcotest.failf "parse: %s" e
      in
      let geometry = Geometry.of_net net in
      let tau_min = Rip.tau_min process geometry in
      List.iter
        (fun slack ->
          let budget = slack *. tau_min in
          let case = Printf.sprintf "%s at x%g" net.Net.name slack in
          Alcotest.(check bool) case true
            (matches_reference
               (Rip.solve (Rip.problem ~geometry process net ~budget))
               (reference_solve geometry ~budget));
          Alcotest.(check int)
            (case ^ ": every bounded pass answered")
            0
            (bounded_misses geometry ~budget))
        [ 1.05; 1.1; 1.3; 2.0 ])
    (Suite.nets ~count:3 ())

(* A perfbench-recipe net whose final window widens from radius 2 to the
   ceiling at [widening_slack]: the radius-2 answer puts a repeater on
   the window's outermost slot, and the ceiling's answer drops one of
   its three repeaters (200 u -> 180 u). *)
let widening_net () =
  match
    Net_io.parse_string
      "net n6_23\ndriver 20\nreceiver 40\n\
       segment 1551.2252507703377 0.06 0.48 metal4\n\
       segment 1588.7897123755724 0.05 0.52 metal5\n\
       segment 1435.4950633971537 0.05 0.52 metal5\n\
       segment 1946.0163932138908 0.06 0.48 metal4\n\
       segment 1322.3122465812921 0.06 0.48 metal4\n\
       segment 2332.0993083614626 0.06 0.48 metal4\n\
       zone 3269.503803016879 5569.242454846884\n"
  with
  | Ok net -> net
  | Error e -> Alcotest.failf "parse: %s" e

let widening_slack = 1.483429

(* A seed bound one unit (1e-3 u) below the optimum of the final pass's
   first, radius-2 window: the bounded pass finds nothing and reruns
   unbounded, and each wider window is bounded by the previous answer.
   The window widens, so the last final pass runs under the same bound
   either way: the answer and that pass, its work counts included, are
   bit-identical to the real seed's. *)
let test_seed_below_core_optimum () =
  let net = widening_net () in
  let geometry = Geometry.of_net net in
  let budget = widening_slack *. Rip.tau_min process geometry in
  let config = Config.default in
  let bounded_misses = ref 0 in
  let module Low_seed = struct
    include Rip.Chain

    let rounded_up t outcome ~library =
      let core =
        around t ~centers:(placed outcome)
          ~radius:Rip_core.Pipeline.start_radius
          ~pitch:config.Config.refined_pitch
      in
      match power_dp t ~library ~budget core with
      | None -> Alcotest.fail "the radius-2 window has an answer"
      | Some optimum -> (
          match Solution.repeaters optimum.Power_dp.solution with
          | [] -> Alcotest.fail "the radius-2 optimum has a repeater"
          | first :: rest ->
              let lowered =
                Solution.create
                  ((first.position, first.width -. 1e-3)
                  :: List.map
                       (fun (r : Solution.repeater) -> (r.position, r.width))
                       rest)
              in
              Some
                { optimum with
                  Power_dp.solution = lowered;
                  total_width = optimum.Power_dp.total_width -. 1e-3 })

    let power_dp t ?width_bound ?price ~library ~budget sites =
      let answer = power_dp t ?width_bound ?price ~library ~budget sites in
      (match (width_bound, answer) with
      | Some _, None -> incr bounded_misses
      | Some _, Some _ | None, _ -> ());
      answer
  end in
  let module Low_pipeline = Rip_core.Pipeline.Make (Low_seed) in
  let expected =
    match Rip.solve ~config (Rip.problem ~geometry process net ~budget) with
    | Ok r -> r
    | Error e -> Alcotest.fail (Rip.error_to_string e)
  in
  Alcotest.(check bool) "the real seed bounds the first window" true
    (Option.is_some expected.Rip.trace.Rip.core_bound);
  Alcotest.(check bool) "the window widened" true
    (Option.fold ~none:false
       ~some:(fun r -> r > Rip_core.Pipeline.start_radius)
       expected.Rip.trace.Rip.final_radius);
  match
    Low_pipeline.run ~config ~hooks:Rip_core.Hooks.default
      (Rip.Chain.create ~config process geometry)
      ~budget
  with
  | Error _ -> Alcotest.fail "the low seed lost the answer"
  | Ok (trace, best) ->
      Alcotest.(check int) "only the seeded first window found nothing" 1
        !bounded_misses;
      Alcotest.(check (option int)) "same final radius"
        expected.Rip.trace.Rip.final_radius
        trace.Rip_core.Pipeline.final_radius;
      Alcotest.(check bool) "same answer" true
        (Solution.equal best.Power_dp.solution expected.Rip.solution
        && Float.equal best.Power_dp.total_width expected.Rip.total_width);
      match (trace.Rip_core.Pipeline.final, expected.Rip.trace.Rip.final) with
      | Some low, Some real ->
          Alcotest.(check bool) "same final pass" true
            (Helpers.identical_results low real
            && low.Power_dp.stats = real.Power_dp.stats)
      | _ -> Alcotest.fail "both runs have a final pass"

let ladder_delay net geometry solution =
  Helpers.ladder_delay net geometry
    (List.map
       (fun (r : Solution.repeater) -> (r.position, r.width))
       (Solution.repeaters solution))

let legal_and_meets net geometry ~budget (r : Rip.report) =
  Validate.is_valid process net ~budget r.Rip.solution
  && ladder_delay net geometry r.Rip.solution <= budget *. (1.0 +. 1e-4)

let solve_at_radius radius net ~geometry ~budget =
  Rip.solve
    ~config:{ Config.default with Config.refined_radius = radius }
    (Rip.problem ~geometry process net ~budget)

(* The pinned net's window widens past radius 2, and the wider window's
   answer is narrower than the answer with the ceiling at radius 2. *)
let test_window_widens () =
  let net = widening_net () in
  let geometry = Geometry.of_net net in
  let budget = widening_slack *. Rip.tau_min process geometry in
  match
    ( Rip.solve (Rip.problem ~geometry process net ~budget),
      solve_at_radius Rip_core.Pipeline.start_radius net ~geometry ~budget )
  with
  | Ok widened, Ok core ->
      Alcotest.(check (option int)) "radius 2 stops at radius 2"
        (Some Rip_core.Pipeline.start_radius)
        core.Rip.trace.Rip.final_radius;
      Alcotest.(check (option int)) "the window widened to the ceiling"
        (Some Config.default.Config.refined_radius)
        widened.Rip.trace.Rip.final_radius;
      Alcotest.(check bool) "the last window's sites are recorded" true
        (List.compare_lengths widened.Rip.trace.Rip.refined_candidates
           core.Rip.trace.Rip.refined_candidates
        > 0);
      Alcotest.(check bool) "legal and meets the budget on the RC ladder"
        true
        (legal_and_meets net geometry ~budget widened);
      Alcotest.(check bool) "narrower than the radius-2 answer" true
        (widened.Rip.total_width < core.Rip.total_width)
  | Error e, _ | _, Error e -> Alcotest.fail (Rip.error_to_string e)

(* Whatever the schedule does, its answer is legal, meets the budget on
   the RC ladder and is never wider than the answer with the ceiling at
   radius 2, whose only window is the schedule's first.  Section-6
   Netgen nets at 1.05-2.0 x tau_min. *)
let widening_arb =
  let gen =
    QCheck.Gen.(
      let* index = int_range 1 10_000 in
      let* slack = float_range 1.05 2.0 in
      return (Netgen.generate (Rip_numerics.Prng.create 31L) ~index, slack))
  in
  QCheck.make
    ~print:(fun (net, slack) -> Fmt.str "%a x%g" Net.pp net slack)
    gen

(* How many cases of the qcheck below widened past radius 2. *)
let widened_cases = ref 0

let prop_widening_never_loses =
  QCheck.Test.make ~name:"the widened window never loses to radius 2"
    ~count:60 widening_arb (fun (net, slack) ->
      let geometry = Geometry.of_net net in
      let budget = slack *. Rip.tau_min process geometry in
      match
        ( Rip.solve (Rip.problem ~geometry process net ~budget),
          solve_at_radius Rip_core.Pipeline.start_radius net ~geometry
            ~budget )
      with
      | Ok widened, Ok core ->
          if widened.Rip.trace.Rip.final_radius
             <> core.Rip.trace.Rip.final_radius
          then incr widened_cases;
          legal_and_meets net geometry ~budget widened
          && widened.Rip.total_width <= core.Rip.total_width
      | Ok widened, Error _ -> legal_and_meets net geometry ~budget widened
      | Error _, _ -> false)

(* The seeded qcheck, then a check that some of its windows widened. *)
let widening_case =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 41 |])
      prop_widening_never_loses
  in
  ( name,
    speed,
    fun () ->
      widened_cases := 0;
      run ();
      Alcotest.(check bool) "some window widened" true (!widened_cases > 0) )

(* The insertion behind [Rip.tau_min]'s gridded half. *)
let gridded_min_delay net geometry =
  (Min_delay.solve geometry repeater ~library:Config.tau_min_library
     ~candidates:(Candidates.uniform net ~pitch:Config.tau_min_pitch))
    .Min_delay.solution

(* Two perfbench-recipe nets whose gridded min-delay insertion meets the
   budget while every RIP pass misses it: coarse, REFINE, final and
   rescue all came back infeasible, so the solve answered
   [Infeasible_budget].  The anchor pass answers them. *)
let anchor_nets =
  [
    ( "net n5_27\ndriver 20\nreceiver 40\n\
       segment 2043.3839619195232 0.06 0.48 metal4\n\
       segment 1849.936651726313 0.06 0.48 metal4\n\
       segment 2100.273949350301 0.05 0.52 metal5\n\
       segment 2235.507966999741 0.05 0.52 metal5\n\
       segment 2358.0988984429778 0.05 0.52 metal5\n\
       zone 1273.9990728852 5393.372115261061\n",
      1373.4402e-12 );
    ( "net n8_03\ndriver 20\nreceiver 40\n\
       segment 2328.023300526707 0.06 0.48 metal4\n\
       segment 1355.4406603741704 0.05 0.52 metal5\n\
       segment 2358.9664576797695 0.06 0.48 metal4\n\
       segment 1107.0707203525374 0.06 0.48 metal4\n\
       segment 1657.4000879432651 0.06 0.48 metal4\n\
       segment 1756.8868171285767 0.05 0.52 metal5\n\
       segment 1445.7116487048727 0.06 0.48 metal4\n\
       segment 1272.1402141113228 0.05 0.52 metal5\n\
       zone 1319.650466122908 5884.142885090335\n",
      1675.707e-12 );
  ]

let test_anchor_answers () =
  List.iter
    (fun (text, budget) ->
      let net =
        match Net_io.parse_string text with
        | Ok net -> net
        | Error e -> Alcotest.failf "parse: %s" e
      in
      let geometry = Geometry.of_net net in
      let name = net.Net.name in
      Alcotest.(check bool)
        (name ^ ": the gridded insertion meets the budget")
        true
        (Delay.total repeater geometry (gridded_min_delay net geometry)
        <= budget);
      match Rip.solve (Rip.problem ~geometry process net ~budget) with
      | Ok r ->
          Alcotest.(check bool)
            (name ^ ": legal and meets the budget on the RC ladder")
            true
            (legal_and_meets net geometry ~budget r);
          Alcotest.(check bool)
            (name ^ ": the anchor pass answered")
            true
            (Option.is_some r.Rip.trace.Rip.anchor)
      | Error e -> Alcotest.failf "%s: %s" name (Rip.error_to_string e))
    anchor_nets

(* The contract behind [tau_min]: whenever the gridded min-delay
   insertion meets the budget, RIP answers, legally and within the
   budget.  Section-6 Netgen nets with the zone anywhere, a third of them
   starting within 250 um of the driver and a third ending within 250 um
   of the receiver.  Budgets sit 0-20 % above the gridded insertion's
   own delay, half of them within 1 %, where the passes above the anchor
   miss most often (about 7 % of such cases before the anchor pass, 0.3 %
   over the whole 0-20 %).  Neither
   [tau_min] nor the solve may raise, and every answer, anchored or not,
   must check out. *)
let anchor_gate_arb =
  let gen =
    QCheck.Gen.(
      let* index = int_range 1 10_000 in
      let* pin = int_range 0 2 in
      let* place = float_range 0.0 1.0 in
      let* slack = oneof [ float_range 1.0 1.01; float_range 1.0 1.2 ] in
      let base = Netgen.generate (Rip_numerics.Prng.create 23L) ~index in
      let length = Net.total_length base in
      let zone_length =
        match base.Net.zones with
        | z :: _ -> z.Zone.z_end -. z.Zone.z_start
        | [] -> 0.25 *. length
      in
      let z_start =
        match pin with
        | 0 -> place *. 250.0
        | 1 -> length -. zone_length -. (place *. 250.0)
        | _ -> place *. (length -. zone_length)
      in
      let net =
        Net.create ~name:base.Net.name
          ~segments:(Array.to_list base.Net.segments)
          ~zones:[ Zone.create ~z_start ~z_end:(z_start +. zone_length) ]
          ~driver_width:base.Net.driver_width
          ~receiver_width:base.Net.receiver_width ()
      in
      return (net, slack))
  in
  QCheck.make
    ~print:(fun (net, slack) -> Fmt.str "%a x%g" Net.pp net slack)
    gen

let prop_anchor_gate =
  QCheck.Test.make ~name:"answers wherever the gridded insertion meets"
    ~count:100 anchor_gate_arb (fun (net, slack) ->
      let geometry = Geometry.of_net net in
      let tau_min = Rip.tau_min process geometry in
      let gridded =
        Delay.total repeater geometry (gridded_min_delay net geometry)
      in
      let budget = slack *. gridded in
      Float.is_finite tau_min
      &&
      match Rip.solve (Rip.problem ~geometry process net ~budget) with
      | Ok r -> legal_and_meets net geometry ~budget r
      | Error _ -> false)

let suite =
  [
    ( "integration",
      [
        Alcotest.test_case "full pipeline on macro-crossing net" `Slow
          test_full_pipeline_on_macro_net;
        Alcotest.test_case "file round trip through solve" `Slow
          test_pipeline_through_file_round_trip;
        Alcotest.test_case "REFINE improves the coarse seed" `Slow
          test_refine_improves_coarse_seed;
        Alcotest.test_case "RIP feasible across zone I" `Slow
          test_rip_never_violates_where_baseline_does;
        Alcotest.test_case "mean saving vs g=40u baseline" `Slow
          test_rip_beats_coarse_baseline_on_average;
        Alcotest.test_case "speedup vs fine baseline" `Slow
          test_rip_runtime_beats_fine_baseline;
        Alcotest.test_case "reported delay re-evaluates" `Slow
          test_stage_delay_additivity_across_pipeline;
        Alcotest.test_case "zone at the driver pin" `Quick
          test_zone_at_driver_pin;
        Alcotest.test_case "anchor answers where every pass missed" `Quick
          test_anchor_answers;
        qcheck prop_anchor_gate;
        bounded_passes_case;
        qcheck prop_never_wider_than_a_feasible_pass;
        Alcotest.test_case "bounded passes match reference on netgen nets"
          `Slow test_netgen_nets_match_reference;
        Alcotest.test_case "a seed bound below the radius-2 optimum" `Quick
          test_seed_below_core_optimum;
        Alcotest.test_case "a window on its edge widens" `Quick
          test_window_widens;
        widening_case;
      ] );
  ]
