module Tree = Rip_tree.Tree
module Tree_dp = Rip_tree.Tree_dp
module Tree_hybrid = Rip_tree.Tree_hybrid
module Tree_delay = Rip_tree.Tree_delay
module Repeater_library = Rip_dp.Repeater_library
module Stats = Rip_numerics.Stats

type row = {
  tree_name : string;
  sinks : int;
  tau_min : float;
  hybrid_mean_width : float;
  coarse_mean_width : float;
  fine_mean_width : float;
  saving_vs_coarse : float;
  hybrid_mean_runtime : float;
  fine_mean_runtime : float;
  hybrid_violations : int;
}

let fine_library =
  Repeater_library.range ~min_width:10.0 ~max_width:400.0 ~step:20.0

let run ?trees ?(targets_per_tree = 6) (process : Rip_tech.Process.t) =
  let trees = match trees with Some t -> t | None -> Tree_gen.suite () in
  let repeater = process.Rip_tech.Process.repeater in
  List.map
    (fun tree ->
      let tau_min = Tree_hybrid.tau_min process tree in
      let sites = Tree_dp.uniform_sites tree ~pitch:200.0 in
      let hybrid_w = ref [] and coarse_w = ref [] and fine_w = ref [] in
      let hybrid_t = ref [] and fine_t = ref [] in
      let violations = ref 0 in
      List.iter
        (fun k ->
          let budget =
            (1.1 +. (0.9 *. float_of_int k /. float_of_int
                       (Stdlib.max 1 (targets_per_tree - 1))))
            *. tau_min
          in
          (match Tree_hybrid.solve process tree ~budget with
          | Ok r ->
              hybrid_w := r.Tree_hybrid.total_width :: !hybrid_w;
              hybrid_t := r.Tree_hybrid.runtime_seconds :: !hybrid_t;
              (* A coarse-only DP answers where the coarse pass met the
                 budget, not where it fell back to the min-delay seed. *)
              let c = r.Tree_hybrid.trace.Rip_core.Pipeline.coarse in
              if
                Tree_delay.meets_budget repeater tree c.Tree_dp.solution
                  ~budget
              then coarse_w := c.Tree_dp.total_width :: !coarse_w
          | Error _ -> incr violations);
          let t0 = Rip_numerics.Cpu_clock.thread_seconds () in
          (match
             Tree_dp.solve repeater tree ~library:fine_library ~sites ~budget
           with
          | Some f -> fine_w := f.Tree_dp.total_width :: !fine_w
          | None -> ());
          fine_t :=
            (Rip_numerics.Cpu_clock.thread_seconds () -. t0) :: !fine_t)
        (List.init targets_per_tree (fun k -> k));
      let hybrid_mean = Stats.mean !hybrid_w in
      let coarse_mean = Stats.mean !coarse_w in
      {
        tree_name = tree.Tree.name;
        sinks = Tree.sink_count tree;
        tau_min;
        hybrid_mean_width = hybrid_mean;
        coarse_mean_width = coarse_mean;
        fine_mean_width = Stats.mean !fine_w;
        saving_vs_coarse = Stats.ratio_percent coarse_mean hybrid_mean;
        hybrid_mean_runtime = Stats.mean !hybrid_t;
        fine_mean_runtime = Stats.mean !fine_t;
        hybrid_violations = !violations;
      })
    trees

let render rows =
  let row r =
    [
      r.tree_name;
      string_of_int r.sinks;
      Printf.sprintf "%.1f" (r.tau_min *. 1e12);
      Printf.sprintf "%.0f" r.hybrid_mean_width;
      Printf.sprintf "%.0f" r.coarse_mean_width;
      Printf.sprintf "%.0f" r.fine_mean_width;
      Table.percent r.saving_vs_coarse;
      Table.seconds r.hybrid_mean_runtime;
      Table.seconds r.fine_mean_runtime;
      string_of_int r.hybrid_violations;
    ]
  in
  Table.render
    ~header:
      [ "tree"; "sinks"; "taumin(ps)"; "hybrid(u)"; "coarse(u)"; "fine(u)";
        "D vs coarse(%)"; "T_hyb(s)"; "T_fine(s)"; "viol" ]
    ~rows:(List.map row rows)
