(* Unit tests for Rip_workload: the Section-6 generator, fixed suite,
   baselines, table rendering and experiment arithmetic. *)

module Net = Rip_net.Net
module Zone = Rip_net.Zone
module Geometry = Rip_net.Geometry
module Prng = Rip_numerics.Prng
module Netgen = Rip_workload.Netgen
module Suite = Rip_workload.Suite
module Baseline = Rip_workload.Baseline
module Table = Rip_workload.Table
module Experiments = Rip_workload.Experiments
module Repeater_library = Rip_dp.Repeater_library
module Power_dp = Rip_dp.Power_dp
module Solution = Rip_elmore.Solution
module Rip = Rip_core.Rip

let qcheck = QCheck_alcotest.to_alcotest
let process = Helpers.process

(* --- Netgen ---------------------------------------------------------------- *)

let test_netgen_deterministic () =
  let rng1 = Prng.create 99L and rng2 = Prng.create 99L in
  let a = Netgen.generate rng1 ~index:3 in
  let b = Netgen.generate rng2 ~index:3 in
  Alcotest.(check bool) "equal nets" true (Net.equal a b)

let test_netgen_index_isolation () =
  (* Generating net 1 first must not change net 2. *)
  let rng1 = Prng.create 7L in
  let _ = Netgen.generate rng1 ~index:1 in
  let after = Netgen.generate rng1 ~index:2 in
  let rng2 = Prng.create 7L in
  let direct = Netgen.generate rng2 ~index:2 in
  Alcotest.(check bool) "order independent" true (Net.equal after direct)

let prop_netgen_respects_recipe =
  QCheck.Test.make ~name:"generated nets follow the Section 6 recipe"
    ~count:100
    QCheck.(int_range 1 10_000)
    (fun index ->
      let rng = Prng.create 5L in
      let net = Netgen.generate rng ~index in
      let m = Net.segment_count net in
      let total = Net.total_length net in
      let segment_lengths_ok =
        Array.for_all
          (fun (s : Rip_net.Segment.t) ->
            s.Rip_net.Segment.length >= 1000.0
            && s.Rip_net.Segment.length <= 2500.0)
          net.Net.segments
      in
      let layers_ok =
        Array.for_all
          (fun (s : Rip_net.Segment.t) ->
            s.Rip_net.Segment.layer_name = "metal4"
            || s.Rip_net.Segment.layer_name = "metal5")
          net.Net.segments
      in
      let zone_ok =
        match net.Net.zones with
        | [ z ] ->
            let f = Zone.length z /. total in
            f >= 0.199 && f <= 0.401 && z.Zone.z_start >= 0.0
            && z.Zone.z_end <= total +. 1e-6
        | _ -> false
      in
      m >= 4 && m <= 10 && segment_lengths_ok && layers_ok && zone_ok)

let test_netgen_custom_config () =
  let config =
    { Netgen.default with
      Netgen.zone_count = 0; min_segments = 2; max_segments = 2;
      driver_width = 11.0; receiver_width = 13.0 }
  in
  let net = Netgen.generate ~config (Prng.create 1L) ~index:1 in
  Alcotest.(check int) "segments" 2 (Net.segment_count net);
  Alcotest.(check (list Alcotest.reject)) "no zones" [] net.Net.zones;
  Alcotest.(check (float 1e-9)) "driver" 11.0 net.Net.driver_width

(* --- Suite ------------------------------------------------------------------- *)

let test_suite_stable () =
  let a = Suite.nets () and b = Suite.nets () in
  Alcotest.(check int) "count" Suite.default_count (List.length a);
  Alcotest.(check bool) "deterministic" true (List.for_all2 Net.equal a b)

let test_suite_names () =
  match Suite.nets ~count:2 () with
  | [ a; b ] ->
      Alcotest.(check string) "first" "net01" a.Net.name;
      Alcotest.(check string) "second" "net02" b.Net.name
  | _ -> Alcotest.fail "expected two nets"

let test_timing_targets () =
  let targets = Suite.timing_targets ~tau_min:100.0 () in
  Alcotest.(check int) "20 targets" 20 (List.length targets);
  Alcotest.(check (float 1e-9)) "first" 105.0 (List.hd targets);
  Alcotest.(check (float 1e-9)) "last" 205.0 (List.nth targets 19);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "increasing" true (increasing targets)

(* --- Baseline ----------------------------------------------------------------- *)

let test_baseline_fixed_size () =
  let b = Baseline.fixed_size ~granularity:20.0 in
  Alcotest.(check int) "ten widths" 10 (Repeater_library.size b.Baseline.library);
  Alcotest.(check (float 1e-9)) "min" 10.0
    (Repeater_library.min_width b.Baseline.library);
  Alcotest.(check (float 1e-9)) "max" 190.0
    (Repeater_library.max_width b.Baseline.library)

let test_baseline_fixed_range () =
  let b = Baseline.fixed_range ~granularity:40.0 in
  Alcotest.(check (float 1e-9)) "min" 10.0
    (Repeater_library.min_width b.Baseline.library);
  Alcotest.(check bool) "max within range" true
    (Repeater_library.max_width b.Baseline.library <= 400.0)

let test_baseline_solve_runs () =
  let net = List.hd (Suite.nets ~count:1 ()) in
  let geometry = Geometry.of_net net in
  let tau_min = Rip.tau_min process geometry in
  let run =
    Baseline.solve (Baseline.fixed_size ~granularity:40.0) process geometry
      ~budget:(1.5 *. tau_min)
  in
  Alcotest.(check bool) "feasible" true (run.Baseline.result <> None);
  Alcotest.(check bool) "timed" true (run.Baseline.runtime_seconds >= 0.0)

(* --- Table ---------------------------------------------------------------------- *)

let test_table_render () =
  let s =
    Table.render ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "four lines + trailing" 5 (List.length lines);
  Alcotest.(check bool) "pads ragged rows" true
    (Helpers.contains s "333")

let test_table_formats () =
  Alcotest.(check string) "percent" "22.95" (Table.percent 22.951);
  Alcotest.(check string) "seconds small" "0.0010" (Table.seconds 0.001);
  Alcotest.(check string) "seconds mid" "0.50" (Table.seconds 0.5);
  Alcotest.(check string) "seconds large" "34.5" (Table.seconds 34.45)

(* --- Experiments ------------------------------------------------------------------ *)

let fake_rip ~width : Rip.report =
  {
    Rip.solution =
      (if width > 0.0 then Solution.create [ (100.0, width) ]
       else Solution.empty);
    total_width = width;
    delay = 0.0;
    power_watts = 0.0;
    runtime_seconds = 0.0;
    trace =
      { Rip.coarse = None; used_fallback_library = false; refined = None;
        refined_library = None; refined_candidates = []; core_bound = None;
        final_radius = None; final = None; rescue = None; anchor = None };
  }

let fake_baseline ~width : Power_dp.result =
  {
    Power_dp.solution =
      (if width > 0.0 then Solution.create [ (100.0, width) ]
       else Solution.empty);
    total_width = width;
    delay = 0.0;
    stats = { Power_dp.sites = 0; transitions = 0; labels = 0 };
  }

let test_saving_percent () =
  let check msg expected baseline rip =
    Alcotest.(check (option (float 1e-9))) msg expected
      (Experiments.saving_percent ~baseline:(fake_baseline ~width:baseline)
         ~rip:(fake_rip ~width:rip))
  in
  check "normal saving" (Some 25.0) 100.0 75.0;
  check "negative saving" (Some (-50.0)) 100.0 150.0;
  check "both zero" (Some 0.0) 0.0 0.0;
  check "only baseline zero" None 0.0 10.0

let test_small_sweep_structure () =
  let nets = Suite.nets ~count:2 () in
  let runs =
    Experiments.run_suite ~granularities:[ 20.0; 40.0 ] ~nets
      ~targets_per_net:3 process
  in
  Alcotest.(check int) "two nets" 2 (List.length runs);
  List.iter
    (fun (run : Experiments.net_run) ->
      Alcotest.(check int) "three cells" 3
        (List.length run.Experiments.cells);
      List.iter
        (fun (cell : Experiments.cell) ->
          Alcotest.(check int) "two baselines" 2
            (List.length cell.Experiments.baselines);
          Alcotest.(check bool) "rip succeeded" true
            (Result.is_ok cell.Experiments.rip))
        run.Experiments.cells)
    runs;
  (* Table 1 and Figure 7 render without raising and contain the nets. *)
  let t1 = Experiments.render_table1 (Experiments.table1 runs) in
  Alcotest.(check bool) "table1 mentions net01" true
    (Helpers.contains t1 "net01");
  let fig = Experiments.fig7 ~granularity:40.0 runs in
  Alcotest.(check int) "fig7 points" 3 (List.length fig);
  let rendered = Experiments.render_fig7 ~granularity:40.0 fig in
  Alcotest.(check bool) "fig7 renders" true (Helpers.contains rendered "1.05")

let test_table2_structure () =
  let nets = Suite.nets ~count:1 () in
  let rows =
    Experiments.table2 ~granularities:[ 40.0 ] ~nets ~targets_per_net:2
      process
  in
  match rows with
  | [ row ] ->
      Alcotest.(check (float 1e-9)) "granularity" 40.0
        row.Experiments.granularity;
      Alcotest.(check bool) "timings measured" true
        (row.Experiments.t_dp > 0.0 && row.Experiments.t_rip > 0.0);
      Alcotest.(check bool) "renders" true
        (Helpers.contains
           (Experiments.render_table2 rows)
           "g_DP(u)")
  | _ -> Alcotest.fail "expected one row"

(* --- Tree_gen ---------------------------------------------------------------- *)

let test_tree_gen_deterministic () =
  let a = Rip_workload.Tree_gen.suite ~count:3 () in
  let b = Rip_workload.Tree_gen.suite ~count:3 () in
  List.iter2
    (fun (x : Rip_tree.Tree.t) (y : Rip_tree.Tree.t) ->
      Alcotest.(check int) "same nodes" (Rip_tree.Tree.node_count x)
        (Rip_tree.Tree.node_count y);
      Alcotest.(check (float 1e-9)) "same wire"
        (Rip_tree.Tree.total_wire_length x)
        (Rip_tree.Tree.total_wire_length y))
    a b

let prop_tree_gen_recipe =
  qcheck
    (QCheck.Test.make ~name:"generated trees follow the recipe" ~count:60
       QCheck.(int_range 1 5000)
       (fun index ->
         let config = Rip_workload.Tree_gen.default in
         let tree =
           Rip_workload.Tree_gen.generate
             (Rip_numerics.Prng.create 3L)
             ~index
         in
         let sinks = Rip_tree.Tree.sink_count tree in
         sinks >= config.Rip_workload.Tree_gen.min_sinks
         && sinks <= config.Rip_workload.Tree_gen.max_sinks
         && Array.for_all
              (fun (n : Rip_tree.Tree.node) ->
                n.Rip_tree.Tree.id = 0
                || (n.Rip_tree.Tree.length
                    >= config.Rip_workload.Tree_gen.min_edge_length
                   && n.Rip_tree.Tree.length
                      <= config.Rip_workload.Tree_gen.max_edge_length))
              tree.Rip_tree.Tree.nodes))

let test_tree_experiments_structure () =
  let trees = Rip_workload.Tree_gen.suite ~count:2 () in
  let rows = Rip_workload.Tree_experiments.run ~trees ~targets_per_tree:2 process in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Rip_workload.Tree_experiments.row) ->
      Alcotest.(check int) "no violations" 0
        r.Rip_workload.Tree_experiments.hybrid_violations;
      Alcotest.(check bool) "tau positive" true
        (r.Rip_workload.Tree_experiments.tau_min > 0.0))
    rows;
  Alcotest.(check bool) "renders" true
    (Helpers.contains
       (Rip_workload.Tree_experiments.render rows)
       "tree01")

let suite =
  [
    ( "workload.netgen",
      [
        Alcotest.test_case "deterministic" `Quick test_netgen_deterministic;
        Alcotest.test_case "index isolation" `Quick
          test_netgen_index_isolation;
        Alcotest.test_case "custom config" `Quick test_netgen_custom_config;
        qcheck prop_netgen_respects_recipe;
      ] );
    ( "workload.suite",
      [
        Alcotest.test_case "stable" `Quick test_suite_stable;
        Alcotest.test_case "names" `Quick test_suite_names;
        Alcotest.test_case "timing targets" `Quick test_timing_targets;
      ] );
    ( "workload.baseline",
      [
        Alcotest.test_case "fixed size" `Quick test_baseline_fixed_size;
        Alcotest.test_case "fixed range" `Quick test_baseline_fixed_range;
        Alcotest.test_case "solve runs" `Quick test_baseline_solve_runs;
      ] );
    ( "workload.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "formats" `Quick test_table_formats;
      ] );
    ( "workload.experiments",
      [
        Alcotest.test_case "saving percent" `Quick test_saving_percent;
        Alcotest.test_case "sweep structure" `Slow test_small_sweep_structure;
        Alcotest.test_case "table2 structure" `Slow test_table2_structure;
      ] );
    ( "workload.tree",
      [
        Alcotest.test_case "tree suite deterministic" `Quick
          test_tree_gen_deterministic;
        prop_tree_gen_recipe;
        Alcotest.test_case "tree experiment structure" `Slow
          test_tree_experiments_structure;
      ] );
  ]
