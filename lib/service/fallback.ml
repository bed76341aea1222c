module Rip = Rip_core.Rip
module Net = Rip_net.Net
module Zone = Rip_net.Zone
module Solution = Rip_elmore.Solution

(* The analytic fallback tier, shared by the shard server (overload,
   deadline, worker loss) and the router (no candidate shard left,
   shards lost mid-forward).  When the full solve is skipped or abandoned, the
   reply still carries a usable insertion: the analytical minimum-delay
   solution, budget-improved by a short REFINE run when it has slack,
   with widths rounded to the coarse library and positions re-legalised
   against the forbidden zones.  Every step is cheap (no DP) and total —
   the empty insertion is the last resort — so a degraded answer is
   produced in microseconds-to-milliseconds regardless of how hostile
   the request was. *)

let nearest_library_width library w =
  Array.fold_left
    (fun best candidate ->
      if Float.abs (candidate -. w) < Float.abs (best -. w) then candidate
      else best)
    library.(0) library

let legalise_positions net length pairs =
  let zones = net.Net.zones in
  let shifted =
    List.map
      (fun (p, w) ->
        if Net.position_legal net p then (p, w)
        else
          let after = Zone.first_allowed_at_or_after zones p in
          let before = Zone.last_allowed_at_or_before zones p in
          let q =
            if after -. p <= p -. before && after < length then after
            else before
          in
          (q, w))
      pairs
  in
  (* Keep strictly increasing interior positions; drop offenders rather
     than shuffling them (a dropped repeater only costs delay, never
     legality). *)
  let _, kept =
    List.fold_left
      (fun (last, acc) (p, w) ->
        if p > last && p < length && Net.position_legal net p then
          (p, (p, w) :: acc)
        else (last, acc))
      (0.0, []) shifted
  in
  List.rev kept

let degraded ~process ~budget ~net reason =
  let repeater = process.Rip_tech.Process.repeater in
  let power = process.Rip_tech.Process.power in
  let solver_config = Rip_core.Config.default in
  let geometry = Rip_net.Geometry.of_net net in
  let length = Rip_net.Geometry.total_length geometry in
  let analytic =
    (Rip_refine.Min_delay_analytic.solve
       ~min_width:solver_config.Rip_core.Config.min_width
       ~max_width:solver_config.Rip_core.Config.max_width geometry repeater)
      .Rip_refine.Min_delay_analytic.solution
  in
  let library =
    Rip_dp.Repeater_library.to_array
      solver_config.Rip_core.Config.coarse_library
  in
  let discretise continuous =
    let rounded =
      List.map
        (fun (r : Solution.repeater) ->
          (r.position, nearest_library_width library r.width))
        (Solution.repeaters continuous)
    in
    match Solution.create (legalise_positions net length rounded) with
    | s -> s
    | exception Invalid_argument _ -> Solution.empty
  in
  let delay_of = Rip_elmore.Delay.total repeater geometry in
  let fastest = discretise analytic in
  let solution =
    if delay_of fastest > budget then fastest
    else
      (* Slack available: spend a short REFINE run trading it for width.
         Capped iterations keep the fallback fast even on long nets.
         REFINE spends the slack on continuous widths, so rounding them
         can push the delay past the budget; the rounded min-delay
         insertion, which met it, is then the answer. *)
      let refine_config =
        { solver_config.Rip_core.Config.refine with max_iterations = 16 }
      in
      match
        Rip_refine.Refine.run ~config:refine_config geometry repeater ~budget
          ~initial:analytic
      with
      | Some outcome ->
          let refined = discretise outcome.Rip_refine.Refine.solution in
          if delay_of refined > budget then fastest else refined
      | None -> fastest
  in
  let total_width = Solution.total_width solution in
  Protocol.Degraded
    {
      reason;
      answer =
        Protocol.answer
          {
            Protocol.repeaters =
              List.map
                (fun (r : Solution.repeater) -> (r.position, r.width))
                (Solution.repeaters solution);
            total_width;
            delay = delay_of solution;
            power_watts =
              Rip_tech.Power_model.repeater_power power ~repeater ~total_width;
          };
    }
