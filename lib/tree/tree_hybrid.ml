module Config = Rip_core.Config
module Pipeline = Rip_core.Pipeline
module Process = Rip_tech.Process

type trace = (Tree_dp.result, Tree_solution.t, float list array) Pipeline.trace

type report = {
  solution : Tree_solution.t;
  total_width : float;
  max_delay : float;
  runtime_seconds : float;
  trace : trace;
}

let tau_min (process : Process.t) tree =
  Tree_min_delay.tau_min process.Process.repeater tree
    ~library:Config.tau_min_library
    ~sites:(Tree_dp.uniform_sites tree ~pitch:Config.tau_min_pitch)

(* The tree substrate of the hybrid pipeline.  [Tree_dp] takes no width
   bound, so no pass has a subset and each wider window would rerun its
   DP from scratch: every window runs once at the ceiling.  The
   continuous step is [Tree_sizing] at the seed's placements, which
   neither moves repeaters nor yields a price. *)
module Tree_substrate = struct
  type t = {
    config : Config.t;
    repeater : Rip_tech.Repeater_model.t;
    tree : Tree.t;
  }
  type sites = float list array
  type solution = Tree_solution.t
  type dp = Tree_dp.result
  type continuous = Tree_solution.t

  let uniform t ~pitch = Tree_dp.uniform_sites t.tree ~pitch
  let around t ~centers ~radius ~pitch =
    Tree_dp.around_sites t.tree ~centers ~radius ~pitch

  let halve _ _ = None
  let widens = false
  let at_edge _ ~centers:_ ~radius:_ ~pitch:_ _ = false

  let power_dp t ?width_bound:_ ?price:_ ~library ~budget sites =
    Tree_dp.solve t.repeater t.tree ~library ~sites ~budget

  let min_delay t ~library sites =
    let r = Tree_min_delay.solve t.repeater t.tree ~library ~sites in
    (r.Tree_min_delay.solution, r.Tree_min_delay.delay)

  let continuous t ~budget ~seed =
    Option.map
      (fun (sized : Tree_sizing.result) ->
        Tree_solution.with_widths seed sized.Tree_sizing.widths)
      (Tree_sizing.solve t.repeater t.tree ~placements:seed ~budget)

  let placed sized = sized
  let rounded_up _ _ ~library:_ = None
  let price _ = None

  (* The tree has no analytical min-delay solver: the rescue searches
     around the min-delay DP's insertion over the coarse sites. *)
  let fastest t =
    fst
      (min_delay t ~library:t.config.Config.fallback_library
         (uniform t ~pitch:t.config.Config.coarse_pitch))

  let tau_min _ ~gridded = gridded
  let solution (r : dp) = r.Tree_dp.solution
  let width (r : dp) = r.Tree_dp.total_width
  let delay (r : dp) = r.Tree_dp.max_delay
  let widths = Tree_solution.widths

  let seed t ?delay solution =
    {
      Tree_dp.solution;
      total_width = Tree_solution.total_width solution;
      max_delay =
        (match delay with
        | Some d -> d
        | None -> Tree_delay.max_delay t.repeater t.tree solution);
      stats = { Tree_dp.sites = 0; labels = 0 };
    }

  let bare t = seed t Tree_solution.empty
end

module Tree_pipeline = Pipeline.Make (Tree_substrate)

let solve ?(config = Config.default) ?(hooks = Rip_core.Hooks.default)
    (process : Process.t) tree ~budget =
  let started = Rip_numerics.Cpu_clock.thread_seconds () in
  let substrate =
    { Tree_substrate.config; repeater = process.Process.repeater; tree }
  in
  match Tree_pipeline.run ~config ~hooks substrate ~budget with
  | Error tau_min ->
      Error
        (Rip_core.Rip.Infeasible_budget
           { budget; tau_min_hint = Some tau_min })
  | Ok (trace, best) ->
      Ok
        {
          solution = best.Tree_dp.solution;
          total_width = best.Tree_dp.total_width;
          max_delay = best.Tree_dp.max_delay;
          runtime_seconds =
            Rip_numerics.Cpu_clock.thread_seconds () -. started;
          trace;
        }
