module Repeater_library = Rip_dp.Repeater_library

module type SUBSTRATE = sig
  type t
  type sites
  type solution
  type dp
  type continuous

  val uniform : t -> pitch:float -> sites
  val around : t -> centers:solution -> radius:int -> pitch:float -> sites
  val halve : t -> sites -> sites option
  val widens : bool
  val at_edge :
    t -> centers:solution -> radius:int -> pitch:float -> solution -> bool

  val power_dp :
    t -> ?width_bound:dp -> ?price:float -> library:Repeater_library.t ->
    budget:float -> sites -> dp option

  val min_delay : t -> library:Repeater_library.t -> sites -> solution * float
  val continuous : t -> budget:float -> seed:solution -> continuous option
  val placed : continuous -> solution
  val rounded_up :
    t -> continuous -> library:Repeater_library.t -> dp option
  val price : continuous -> float option
  val fastest : t -> solution
  val tau_min : t -> gridded:float -> float
  val solution : dp -> solution
  val width : dp -> float
  val delay : dp -> float
  val widths : solution -> float list
  val seed : t -> ?delay:float -> solution -> dp
  val bare : t -> dp
end

type ('dp, 'continuous, 'sites) trace = {
  coarse : 'dp;
  used_fallback_library : bool;
  refined : 'continuous option;
  refined_library : Repeater_library.t option;
  refined_sites : 'sites option;
  core_bound : 'dp option;
  final_radius : int option;
  final : 'dp option;
  rescue : 'dp option;
  anchor : 'dp option;
}

(* One round of lines 2-4. *)
type ('dp, 'continuous, 'sites) round = {
  outcome : 'continuous;
  library : Repeater_library.t option;
  sites : 'sites;
  core_bound : 'dp option;
  radius : int option;
  final : 'dp option;
}

let rounded_library (config : Config.t) widths =
  Repeater_library.round_to_grid ~granularity:config.Config.refined_granularity
    ~min_width:config.Config.min_width ~max_width:config.Config.max_width
    widths

let start_radius = 2

module Make (S : SUBSTRATE) = struct
  let run ~(config : Config.t) ~hooks t ~budget =
    let in_phase name f = Hooks.in_phase hooks name f in
    let pitch = config.Config.refined_pitch in
    let ceiling = config.Config.refined_radius in
    let run_dp ?width_bound ?price ~library sites =
      S.power_dp t ?width_bound ?price ~library ~budget sites
    in
    (* A pass under a width bound drops every label that cannot finish
       within it: the optimum when the bound is at or above it, else no
       answer, and then the pass reruns unbounded.  So any bound leaves
       the answer as the unbounded pass finds it (DESIGN.md 3.2a); a
       [price] sharpens the bound and is ignored without one. *)
    let bounded ?price ~library ~bound sites =
      let pass width_bound = run_dp ?width_bound ?price ~library sites in
      match bound with
      | None -> pass None
      | Some _ -> (
          match pass bound with Some _ as answer -> answer | None -> pass None)
    in
    (* A pass with a subset solves it first: the subset's answer is a
       legal insertion over the full set too, so its width bounds the full
       optimum. *)
    let rec halving ~library sites =
      match S.halve t sites with
      | None -> run_dp ~library sites
      | Some half ->
          bounded ~library sites ~bound:(halving ~library half)
    in
    (* A window pass around [centers] starts at [start_radius] slots,
       bounded by [seed], and doubles the radius up to the ceiling while a
       repeater of its answer sits on a window's outermost slot; a window
       without an answer widens straight to the ceiling.  Each wider
       window holds the narrower one's sites, so the previous answer
       bounds it.  Returns the last window's sites and radius with its
       answer. *)
    let windowed ?price ?seed ~library ~centers () =
      let solve radius bound =
        let sites = S.around t ~centers ~radius ~pitch in
        (sites, radius, bounded ?price ~library ~bound sites)
      in
      let rec widen ((_, radius, answer) as window) =
        if radius >= ceiling then window
        else
          match answer with
          | None -> solve ceiling None
          | Some a ->
              if S.at_edge t ~centers ~radius ~pitch (S.solution a) then
                widen (solve (Int.min ceiling (2 * radius)) answer)
              else window
      in
      let first = if S.widens then Int.min start_radius ceiling else ceiling in
      widen (solve first seed)
    in
    let window_answer ~library ~centers =
      let _, _, answer = windowed ~library ~centers () in
      answer
    in
    let coarse_sites = S.uniform t ~pitch:config.Config.coarse_pitch in
    (* Line 1, with a fallback library for budgets the coarse grid misses.
       For budgets below what any coarse-pitch DP can reach, seed the
       continuous step with the min-delay insertion instead: it and the
       fine-pitch final DP can still land under the budget. *)
    let coarse, used_fallback_library =
      in_phase "coarse_dp" @@ fun () ->
      match halving ~library:config.Config.coarse_library coarse_sites with
      | Some r -> (r, false)
      | None -> (
          match
            halving ~library:config.Config.fallback_library coarse_sites
          with
          | Some r -> (r, true)
          | None ->
              let solution, delay =
                S.min_delay t ~library:config.Config.fallback_library
                  coarse_sites
              in
              (S.seed t ~delay solution, true))
    in
    (* Lines 2-4, optionally iterated (config.refine_passes): each round
       seeds the continuous step with the previous round's answer. *)
    let run_round seed =
      match in_phase "refine" (fun () -> S.continuous t ~budget ~seed) with
      | None -> None
      | Some outcome ->
          let placed = S.placed outcome in
          let library =
            match S.widths placed with
            | [] -> None
            | widths -> Some (rounded_library config widths)
          in
          (* The continuous insertion with its widths rounded up to the
             final library: when it meets the budget it is a legal answer
             over the first window's sites (they hold its positions), so
             its width bounds that pass. *)
          let core_bound =
            Option.bind library (fun library ->
                match S.rounded_up t outcome ~library with
                | Some r when S.delay r <= budget -> Some r
                | Some _ | None -> None)
          in
          let sites, radius, final =
            match library with
            | None ->
                (S.around t ~centers:placed ~radius:ceiling ~pitch, None,
                 Some (S.bare t))
            | Some library ->
                let sites, radius, final =
                  in_phase "final_dp" (fun () ->
                      windowed ?price:(S.price outcome) ?seed:core_bound
                        ~library ~centers:placed ())
                in
                (sites, Some radius, final)
          in
          Some { outcome; library; sites; core_bound; radius; final }
    in
    let first = run_round (S.solution coarse) in
    let final =
      let passes = Stdlib.max 1 config.Config.refine_passes in
      let rec iterate best k =
        if k >= passes then best
        else
          match best with
          | None -> best
          | Some previous -> (
              match run_round (S.solution previous) with
              | Some { final = Some next; _ }
                when S.width next < S.width previous ->
                  iterate (Some next) (k + 1)
              | Some _ | None -> best)
      in
      iterate (Option.bind first (fun r -> r.final)) 1
    in
    let tolerance = 1e-6 *. Float.abs budget in
    let misses r = S.delay r > budget +. tolerance in
    let coarse_feasible = not (misses coarse) in
    (* Last resort for budgets every grid missed: a DP around the fastest
       insertion, over a tiny library rounded from its widths (the full
       reference library would reintroduce the pseudo-polynomial blow-up
       the hybrid scheme exists to avoid). *)
    let rescue =
      let need =
        (not coarse_feasible) && Option.fold ~none:true ~some:misses final
      in
      if not need then None
      else
        in_phase "rescue_dp" @@ fun () ->
        let fastest = S.fastest t in
        let library =
          match S.widths fastest with
          | [] -> config.Config.fallback_library
          | widths -> rounded_library config widths
        in
        window_answer ~library ~centers:fastest
    in
    (* The narrowest budget-meeting result; a min-delay seed that itself
       misses the budget is never returned. *)
    let narrowest results =
      List.fold_left
        (fun acc r ->
          match acc with
          | Some b when S.width b <= S.width r -> acc
          | Some _ | None -> if misses r then acc else Some r)
        None results
    in
    let best =
      narrowest
        (List.filter_map Fun.id
           [ final; (if coarse_feasible then Some coarse else None); rescue ])
    in
    let answer ~anchor result =
      let round f = Option.bind first f in
      Ok
        ( { coarse; used_fallback_library;
            refined = Option.map (fun r -> r.outcome) first;
            refined_library = round (fun r -> r.library);
            refined_sites = Option.map (fun r -> r.sites) first;
            core_bound = round (fun r -> r.core_bound);
            final_radius = round (fun r -> r.radius);
            final; rescue; anchor },
          result )
    in
    match best with
    | Some best -> answer ~anchor:None best
    | None -> (
        (* Last resort: the anchor's own insertion.  A budget the gridded
           min-delay insertion behind [tau_min] meets is reachable, so when
           every pass above missed it, answer with that insertion or a DP
           around it over its own widths, whichever is narrower. *)
        let solution, gridded =
          S.min_delay t ~library:Config.tau_min_library
            (S.uniform t ~pitch:Config.tau_min_pitch)
        in
        let seed = S.seed t solution in
        let anchor =
          if misses seed then None
          else
            match S.widths solution with
            | [] -> Some seed
            | widths ->
                narrowest
                  (seed
                  :: Option.to_list
                       (window_answer
                          ~library:(Repeater_library.create widths)
                          ~centers:solution))
        in
        match anchor with
        | Some result -> answer ~anchor result
        | None -> Error (S.tau_min t ~gridded))
end
