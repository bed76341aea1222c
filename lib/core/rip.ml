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
  core_bound : Power_dp.result option;
  final_radius : int option;
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
let tau_min_of geometry repeater gridded =
  Float.min gridded (Rip_refine.Min_delay_analytic.tau_min geometry repeater)

let tau_min (process : Process.t) geometry =
  let repeater = process.Process.repeater in
  tau_min_of geometry repeater
    (Min_delay.tau_min geometry repeater ~library:Config.tau_min_library
       ~candidates:
         (Candidates.uniform (Geometry.net geometry)
            ~pitch:Config.tau_min_pitch))

(* A coarse or fallback pass solves every other candidate first (see
   [Pipeline]), halved down to [halving_floor]. *)
let halving_floor = 8

(* The chain substrate of the hybrid pipeline: the power DP, REFINE and
   the analytical min-delay insertion over one net. *)
module Chain = struct
  type t = {
    config : Config.t;
    geometry : Geometry.t;
    repeater : Rip_tech.Repeater_model.t;
    arena : Fast_dp.Arena.t;
    dp_hooks : Power_dp.probe_event Hooks.t;
    refine_hooks : Refine.probe_event Hooks.t;
  }

  let create ?(config = Config.default) ?(dp_hooks = Hooks.default)
      ?(refine_hooks = Hooks.default) (process : Process.t) geometry =
    { config; geometry; repeater = process.Process.repeater;
      arena = Fast_dp.Arena.create (); dp_hooks; refine_hooks }

  type sites = float list
  type solution = Solution.t
  type dp = Power_dp.result
  type continuous = Refine.outcome

  let net t = Geometry.net t.geometry
  let uniform t ~pitch = Candidates.uniform (net t) ~pitch

  let around t ~centers ~radius ~pitch =
    Candidates.around (net t) ~centers:(Solution.positions centers) ~radius
      ~pitch

  (* [Reference] ignores width bounds, so it skips the subset passes. *)
  let bounded t = t.config.Config.dp.Config.backend = Power_dp.Fast

  let halve t candidates =
    if bounded t && List.compare_length_with candidates halving_floor >= 0
    then Some (List.filteri (fun i _ -> i mod 2 = 1) candidates)
    else None

  (* The schedule is part of the algorithm: both backends widen alike. *)
  let widens = true

  (* A site of a window is [center + k * pitch] with [|k| <= radius], so
     a repeater no center holds within [radius - 1/2] slots sits on the
     outermost slot of every window it is in. *)
  let at_edge _ ~centers ~radius ~pitch solution =
    let inner = (float_of_int radius -. 0.5) *. pitch in
    let centers = Solution.positions centers in
    List.exists
      (fun x -> List.for_all (fun c -> Float.abs (x -. c) > inner) centers)
      (Solution.positions solution)

  (* One label arena serves every DP pass of a solve (coarse, final per
     round, rescue): the final DPs reuse the capacity the coarse pass
     grew.  Arenas are single-owner; a solve is single-threaded. *)
  let power_dp t ?width_bound ?price ~library ~budget candidates =
    let dp = t.config.Config.dp in
    Power_dp.run
      (Power_dp.request ~backend:dp.Config.backend
         ?frontier_cap:dp.Config.frontier_cap
         ?width_bound:(Option.map Power_dp.width_units width_bound)
         ?price ~arena:t.arena ~hooks:t.dp_hooks t.geometry t.repeater
         ~library ~candidates ~budget)

  let min_delay t ~library candidates =
    let r = Min_delay.solve t.geometry t.repeater ~library ~candidates in
    (r.Min_delay.solution, r.Min_delay.delay)

  let continuous t ~budget ~seed =
    Refine.run ~config:t.config.Config.refine ~hooks:t.refine_hooks
      t.geometry t.repeater ~budget ~initial:seed

  let placed (outcome : continuous) = outcome.Refine.solution

  (* REFINE's multiplier is in u/s, labels are in milli-u (DESIGN.md 3.2a,
     "The price"). *)
  let price (outcome : continuous) =
    let p = Fast_dp.units_per_u *. outcome.Refine.lambda in
    if Float.is_finite p && p > 0.0 then Some p else None

  let fastest t =
    (Rip_refine.Min_delay_analytic.solve ~min_width:t.config.Config.min_width
       ~max_width:t.config.Config.max_width t.geometry t.repeater)
      .Rip_refine.Min_delay_analytic.solution

  let tau_min t ~gridded = tau_min_of t.geometry t.repeater gridded
  let solution (r : dp) = r.Power_dp.solution
  let width (r : dp) = r.Power_dp.total_width
  let delay (r : dp) = r.Power_dp.delay
  let widths = Solution.widths

  let result t ?delay ~sites solution =
    {
      Power_dp.solution;
      total_width = Solution.total_width solution;
      delay =
        (match delay with
        | Some d -> d
        | None -> Delay.total t.repeater t.geometry solution);
      stats = { Power_dp.sites; transitions = 0; labels = 0 };
    }

  let seed t ?delay solution = result t ?delay ~sites:0 solution
  let bare t = result t ~sites:2 Solution.empty

  let rounded_up t (outcome : continuous) ~library =
    let rec round acc = function
      | [] -> Some (Solution.create (List.rev acc))
      | (r : Solution.repeater) :: rest -> (
          match Repeater_library.round_up library r.width with
          | Some w -> round ((r.position, w) :: acc) rest
          | None -> None)
    in
    if not (bounded t) then None
    else Option.map (seed t) (round [] (Solution.repeaters (placed outcome)))
end

module Chain_pipeline = Pipeline.Make (Chain)

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
  let chain =
    Chain.create ~config
      ~dp_hooks:(Hooks.contramap (fun e -> Dp e) hooks)
      ~refine_hooks:(Hooks.contramap (fun e -> Refine e) hooks)
      process geometry
  in
  match Chain_pipeline.run ~config ~hooks chain ~budget with
  | Error tau_min ->
      Error (Infeasible_budget { budget; tau_min_hint = Some tau_min })
  | Ok (t, best) ->
      let trace =
        {
          coarse = Some t.Pipeline.coarse;
          used_fallback_library = t.Pipeline.used_fallback_library;
          refined = t.Pipeline.refined;
          refined_library = t.Pipeline.refined_library;
          refined_candidates =
            Option.value t.Pipeline.refined_sites ~default:[];
          core_bound = t.Pipeline.core_bound;
          final_radius = t.Pipeline.final_radius;
          final = t.Pipeline.final;
          rescue = t.Pipeline.rescue;
          anchor = t.Pipeline.anchor;
        }
      in
      let repeater = process.Process.repeater in
      Ok
        {
          solution = best.Power_dp.solution;
          total_width = best.Power_dp.total_width;
          delay = Delay.total repeater geometry best.Power_dp.solution;
          power_watts =
            Power_model.repeater_power process.Process.power ~repeater
              ~total_width:best.Power_dp.total_width;
          runtime_seconds =
            Rip_numerics.Cpu_clock.thread_seconds () -. started;
          trace;
        }

let solve ?config ?hooks { process; net; geometry; budget } =
  match Validate.check_problem ?geometry net ~budget with
  | _ :: _ as violations -> Error (Invalid_net violations)
  | [] ->
      let geometry =
        match geometry with Some g -> g | None -> Geometry.of_net net
      in
      solve_prepared ?config ?hooks process geometry ~budget
