module Geometry = Rip_net.Geometry
module Net = Rip_net.Net
module Solution = Rip_elmore.Solution
module Delay = Rip_elmore.Delay
module Power_dp = Rip_dp.Power_dp
module Fast_dp = Rip_dp.Fast_dp
module Min_delay = Rip_dp.Min_delay
module Candidates = Rip_dp.Candidates
module Repeater_library = Rip_dp.Repeater_library
module Refine = Rip_refine.Refine
module Process = Rip_tech.Process
module Power_model = Rip_tech.Power_model

type phase_trace = {
  coarse : Power_dp.result option;
  used_fallback_library : bool;
  refined : Refine.outcome option;
  refined_library : Repeater_library.t option;
  refined_candidates : float list;
  final : Power_dp.result option;
  rescue : Power_dp.result option;
  anchor : Power_dp.result option;
}

type report = {
  solution : Solution.t;
  total_width : float;
  delay : float;
  power_watts : float;
  runtime_seconds : float;
  trace : phase_trace;
}

(* The anchor takes the better of the analytical continuous minimum and a
   fine-grid DP minimum: the analytic descent can miss globally (greedy),
   the DP is grid-limited; their min is a tight yet reachable target. *)
let gridded_min_delay (process : Process.t) geometry =
  let net = Geometry.net geometry in
  Min_delay.solve geometry process.Process.repeater
    ~library:Config.tau_min_library
    ~candidates:(Candidates.uniform net ~pitch:Config.tau_min_pitch)

let tau_min_of (process : Process.t) geometry (gridded : Min_delay.result) =
  Float.min gridded.Min_delay.delay
    (Rip_refine.Min_delay_analytic.tau_min geometry process.Process.repeater)

let tau_min process geometry =
  tau_min_of process geometry (gridded_min_delay process geometry)

(* Line 3: library B from the refined continuous widths, location set S
   around the refined positions. *)
let refined_space (config : Config.t) net (outcome : Refine.outcome) =
  let widths = Solution.widths outcome.Refine.solution in
  let library =
    match widths with
    | [] -> None
    | _ :: _ ->
      Some
        (Repeater_library.round_to_grid
           ~granularity:config.Config.refined_granularity
           ~min_width:config.Config.min_width
           ~max_width:config.Config.max_width widths)
  in
  let candidates =
    Candidates.around net
      ~centers:(Solution.positions outcome.Refine.solution)
      ~radius:config.Config.refined_radius
      ~pitch:config.Config.refined_pitch
  in
  (library, candidates)

(* The subsets the DP passes solve first (see [solve_prepared]).  A coarse
   or fallback pass halves its candidates down to [halving_floor]; a final
   or rescue pass keeps the [core_slots] slots either side of each window
   center, filtered out of the full list so it is a true subset even
   where [Candidates] merged two windows. *)
let halving_floor = 8
let core_slots = 2

let every_other candidates = List.filteri (fun i _ -> i mod 2 = 1) candidates

let window_core ~centers ~pitch candidates =
  let reach = (float_of_int core_slots +. 0.5) *. pitch in
  List.filter
    (fun x -> List.exists (fun c -> Float.abs (x -. c) < reach) centers)
    candidates

let make_report process geometry ~runtime_seconds ~trace
    (dp : Power_dp.result) =
  let repeater = process.Process.repeater in
  {
    solution = dp.Power_dp.solution;
    total_width = dp.Power_dp.total_width;
    delay = Delay.total repeater geometry dp.Power_dp.solution;
    power_watts =
      Power_model.repeater_power process.Process.power ~repeater
        ~total_width:dp.Power_dp.total_width;
    runtime_seconds;
    trace;
  }

type error =
  | Infeasible_budget of { budget : float; tau_min_hint : float option }
  | Invalid_net of Validate.violation list
  | Internal of string

let pp_error ppf = function
  | Infeasible_budget { budget; tau_min_hint } -> (
      Fmt.pf ppf "infeasible: no legal insertion meets %.4g ps"
        (budget *. 1e12);
      match tau_min_hint with
      | Some tau ->
          Fmt.pf ppf " (the net's minimum achievable delay is %.4g ps)"
            (tau *. 1e12)
      | None -> ())
  | Invalid_net violations ->
      Fmt.pf ppf "invalid problem: %a"
        (Fmt.list ~sep:(Fmt.any "; ") Validate.pp_violation)
        violations
  | Internal message -> Fmt.pf ppf "internal error: %s" message

let error_to_string error = Fmt.str "%a" pp_error error

type problem = {
  process : Process.t;
  net : Net.t;
  geometry : Geometry.t option;
  budget : float;
}

let problem ?geometry process net ~budget = { process; net; geometry; budget }

type probe_event =
  | Dp of Power_dp.probe_event
  | Refine of Refine.probe_event

let solve_prepared ?(config = Config.default) ?(hooks = Hooks.default) process
    geometry ~budget =
  let started = Rip_numerics.Cpu_clock.thread_seconds () in
  (* Sub-solver hook bundles: same cancel token, events re-tagged with the
     pipeline-level constructors.  When [hooks.probe] is [None] the
     contramapped probes are [None] too, so the sub-solvers stay on their
     allocation-free paths. *)
  let dp_hooks = Hooks.contramap (fun e -> Dp e) hooks in
  let refine_hooks = Hooks.contramap (fun e -> Refine e) hooks in
  let in_phase name f = Hooks.in_phase hooks name f in
  let net = Geometry.net geometry in
  let repeater = process.Process.repeater in
  let backend = config.Config.dp.Config.backend in
  let frontier_cap = config.Config.dp.Config.frontier_cap in
  (* One label arena shared by every DP pass of this solve (coarse,
     final-per-round, rescue): the final DPs reuse the capacity the coarse
     pass grew.  Arenas are single-owner; a solve is single-threaded, so
     this is safe. *)
  let arena = Fast_dp.Arena.create () in
  let run_dp ?width_bound ?price ~library candidates =
    Power_dp.run
      (Power_dp.request ~backend ?frontier_cap ?width_bound ?price ~arena
         ~hooks:dp_hooks geometry repeater ~library ~candidates ~budget)
  in
  (* Every DP pass solves a subset of its candidates first.  The subset's
     answer is a legal insertion over the full set too, so its width
     bounds the full optimum, and the full pass under that bound drops
     every label that cannot finish within it: same answer, far fewer
     labels (DESIGN.md 3.2a).  [Reference] ignores bounds, so it skips
     the subset passes.  A [price] applies to the bounded full pass only
     (an unbounded pass ignores it). *)
  let bounded = backend = Power_dp.Fast in
  let subset_first ?price ~library ~solve_subset candidates =
    let full width_bound = run_dp ?width_bound ?price ~library candidates in
    match if bounded then solve_subset () else None with
    | None -> full None
    | Some sub -> (
        match full (Some (Power_dp.width_units sub)) with
        | Some _ as answer -> answer
        (* Only a binding frontier cap can push the full pass's answer
           above a subset's; rerun it as it would run alone. *)
        | None -> full None)
  in
  let rec halving ~library candidates =
    if List.compare_length_with candidates halving_floor < 0 then
      run_dp ~library candidates
    else
      subset_first ~library candidates ~solve_subset:(fun () ->
          halving ~library (every_other candidates))
  in
  let windowed ?price ~library ~centers candidates =
    let core =
      window_core ~centers ~pitch:config.Config.refined_pitch candidates
    in
    if List.compare_lengths core candidates = 0 then run_dp ~library candidates
    else
      subset_first ?price ~library candidates ~solve_subset:(fun () ->
          run_dp ~library core)
  in
  let coarse_candidates =
    Candidates.uniform net ~pitch:config.Config.coarse_pitch
  in
  (* Line 1, with a fallback library for budgets the coarse grid misses.
     For budgets below what any 200 um-pitch DP can reach, seed REFINE
     with the min-delay insertion instead: the analytical movement plus
     the fine-pitch final DP can still land under the budget. *)
  let coarse, used_fallback_library =
    in_phase "coarse_dp" @@ fun () ->
    match halving ~library:config.Config.coarse_library coarse_candidates with
    | Some r -> (Some r, false)
    | None -> (
        match
          halving ~library:config.Config.fallback_library coarse_candidates
        with
        | Some r -> (Some r, true)
        | None ->
            let fastest =
              Min_delay.solve geometry repeater
                ~library:config.Config.fallback_library
                ~candidates:coarse_candidates
            in
            ( Some
                {
                  Power_dp.solution = fastest.Min_delay.solution;
                  total_width =
                    Solution.total_width fastest.Min_delay.solution;
                  delay = fastest.Min_delay.delay;
                  stats = { Power_dp.sites = 0; transitions = 0; labels = 0 };
                },
              true ))
  in
  match coarse with
  | None ->
      Error
        (Infeasible_budget
           { budget; tau_min_hint = Some (tau_min process geometry) })
  | Some coarse_result ->
      (* Lines 2-4, optionally iterated (config.refine_passes): each round
         seeds REFINE with the previous round's discrete solution. *)
      let run_round seed =
        match
          in_phase "refine" (fun () ->
              Rip_refine.Refine.run ~config:config.Config.refine
                ~hooks:refine_hooks geometry repeater ~budget ~initial:seed)
        with
        | None -> (None, None, [], None)
        | Some outcome ->
            let library, candidates = refined_space config net outcome in
            let final =
              match library with
              | None ->
                  (* REFINE emptied the net: the bare wire meets timing. *)
                  Some
                    {
                      Power_dp.solution = Solution.empty;
                      total_width = 0.0;
                      delay = Delay.total repeater geometry Solution.empty;
                      stats =
                        { Power_dp.sites = 2; transitions = 0; labels = 0 };
                    }
              | Some library ->
                  (* REFINE's multiplier prices delay in the final pass:
                     it is in u/s, labels are in milli-u (DESIGN.md
                     3.2a, "The price"). *)
                  let price =
                    let p = Fast_dp.units_per_u *. outcome.Refine.lambda in
                    if Float.is_finite p && p > 0.0 then Some p else None
                  in
                  in_phase "final_dp" (fun () ->
                      windowed ?price ~library
                        ~centers:(Solution.positions outcome.Refine.solution)
                        candidates)
            in
            (Some outcome, library, candidates, final)
      in
      let refined, refined_library, refined_candidates, first_final =
        run_round coarse_result.Power_dp.solution
      in
      let final =
        let passes = Stdlib.max 1 config.Config.refine_passes in
        let rec iterate best k =
          if k >= passes then best
          else
            match best with
            | None -> best
            | Some (previous : Power_dp.result) -> (
                match run_round previous.Power_dp.solution with
                | _, _, _, Some next
                  when next.Power_dp.total_width
                       < previous.Power_dp.total_width ->
                    iterate (Some next) (k + 1)
                | _, _, _, (Some _ | None) -> best)
        in
        iterate first_final 1
      in
      (* Last resort for budgets every grid missed: fine-pitch DP around
         the analytical min-delay locations with the full library. *)
      let tolerance = 1e-6 *. Float.abs budget in
      let coarse_feasible =
        coarse_result.Power_dp.delay <= budget +. tolerance
      in
      let rescue =
        let need =
          (not coarse_feasible)
          && (match final with
             | Some f -> f.Power_dp.delay > budget +. tolerance
             | None -> true)
        in
        if not need then None
        else
          in_phase "rescue_dp" @@ fun () ->
          let fastest =
            Rip_refine.Min_delay_analytic.solve
              ~min_width:config.Config.min_width
              ~max_width:config.Config.max_width geometry repeater
          in
          let centers =
            Solution.positions fastest.Rip_refine.Min_delay_analytic.solution
          in
          let candidates =
            Candidates.around net ~centers ~radius:config.Config.refined_radius
              ~pitch:config.Config.refined_pitch
          in
          (* Same trick as line 3: a tiny library synthesised from the
             analytical widths.  The full reference library here would
             reintroduce the pseudo-polynomial blow-up the hybrid scheme
             exists to avoid. *)
          let library =
            match
              Solution.widths fastest.Rip_refine.Min_delay_analytic.solution
            with
            | [] -> config.Config.fallback_library
            | widths ->
                Repeater_library.round_to_grid
                  ~granularity:config.Config.refined_granularity
                  ~min_width:config.Config.min_width
                  ~max_width:config.Config.max_width widths
          in
          windowed ~library ~centers candidates
      in
      (* Keep the narrowest budget-meeting result among line 4, line 1
         and the rescue pass.  A min-delay seed that itself misses the
         budget is never returned. *)
      let narrowest results =
        List.fold_left
          (fun acc (r : Power_dp.result) ->
            match acc with
            | Some (b : Power_dp.result)
              when b.Power_dp.total_width <= r.Power_dp.total_width ->
                acc
            | Some _ | None ->
                if r.Power_dp.delay <= budget +. tolerance then Some r else acc)
          None results
      in
      let best =
        narrowest
          (List.filter_map Fun.id
             [
               final;
               (if coarse_feasible then Some coarse_result else None);
               rescue;
             ])
      in
      let answer ~anchor result =
        let trace =
          { coarse = Some coarse_result; used_fallback_library; refined;
            refined_library; refined_candidates; final; rescue; anchor }
        in
        let runtime_seconds =
          Rip_numerics.Cpu_clock.thread_seconds () -. started
        in
        Ok (make_report process geometry ~runtime_seconds ~trace result)
      in
      match best with
      | Some best -> answer ~anchor:None best
      | None -> (
          (* Last resort: the anchor's own insertion.  A budget the gridded
             min-delay insertion behind [tau_min] meets is reachable, so
             when every pass above missed it, answer with that insertion
             or a DP around it over its own widths, whichever is
             narrower. *)
          let gridded = gridded_min_delay process geometry in
          let solution = gridded.Min_delay.solution in
          let seed =
            {
              Power_dp.solution;
              total_width = Solution.total_width solution;
              delay = Delay.total repeater geometry solution;
              stats = { Power_dp.sites = 0; transitions = 0; labels = 0 };
            }
          in
          let around widths =
            let centers = Solution.positions solution in
            windowed
              ~library:(Repeater_library.create widths)
              ~centers
              (Candidates.around net ~centers
                 ~radius:config.Config.refined_radius
                 ~pitch:config.Config.refined_pitch)
          in
          let anchor =
            if seed.Power_dp.delay > budget +. tolerance then None
            else
              match Solution.widths solution with
              | [] -> Some seed
              | widths -> narrowest (seed :: Option.to_list (around widths))
          in
          match anchor with
          | Some result -> answer ~anchor result
          | None ->
              Error
                (Infeasible_budget
                   {
                     budget;
                     tau_min_hint = Some (tau_min_of process geometry gridded);
                   }))

let solve ?config ?hooks { process; net; geometry; budget } =
  match Validate.check_problem ?geometry net ~budget with
  | _ :: _ as violations -> Error (Invalid_net violations)
  | [] ->
      let geometry =
        match geometry with Some g -> g | None -> Geometry.of_net net
      in
      solve_prepared ?config ?hooks process geometry ~budget
