(* Tests for Rip_tree: topology, layout, Elmore, the tree DPs, Lagrangian
   sizing and the hybrid — anchored by the certification that every tree
   algorithm collapses to its chain counterpart on path trees. *)

module Net = Rip_net.Net
module Geometry = Rip_net.Geometry
module Solution = Rip_elmore.Solution
module Delay = Rip_elmore.Delay
module Repeater_library = Rip_dp.Repeater_library
module Power_dp = Rip_dp.Power_dp
module Min_delay = Rip_dp.Min_delay
module Candidates = Rip_dp.Candidates
module Tree = Rip_tree.Tree
module Tree_solution = Rip_tree.Tree_solution
module Tree_layout = Rip_tree.Tree_layout
module Tree_delay = Rip_tree.Tree_delay
module Tree_dp = Rip_tree.Tree_dp
module Tree_min_delay = Rip_tree.Tree_min_delay
module Tree_sizing = Rip_tree.Tree_sizing
module Tree_hybrid = Rip_tree.Tree_hybrid
module Rip = Rip_core.Rip

let qcheck = QCheck_alcotest.to_alcotest
let invalid name f = Alcotest.match_raises name (function Invalid_argument _ -> true | _ -> false) f
let repeater = Helpers.repeater
let process = Helpers.process

(* --- Fixtures --------------------------------------------------------------- *)

(* Two-level 3-sink tree on mixed layers. *)
let three_sink_tree () =
  let b = Tree.builder ~name:"y3" ~driver_width:20.0 () in
  let trunk = Tree.add_layer_edge b ~parent:0 Rip_tech.Layer.metal5 ~length:3000.0 in
  let left = Tree.add_layer_edge b ~parent:trunk Rip_tech.Layer.metal4 ~length:2500.0 in
  let right = Tree.add_layer_edge b ~parent:trunk Rip_tech.Layer.metal4 ~length:1800.0 in
  let rl = Tree.add_layer_edge b ~parent:right Rip_tech.Layer.metal5 ~length:2200.0 in
  let rr =
    Tree.add_layer_edge b ~parent:right
      ~zones:[ (400.0, 900.0) ]
      Rip_tech.Layer.metal4 ~length:1500.0
  in
  Tree.set_sink b ~node:left ~load_width:40.0;
  Tree.set_sink b ~node:rl ~load_width:30.0;
  Tree.set_sink b ~node:rr ~load_width:50.0;
  Tree.build b

(* Chain solution -> tree solution on a chain tree built by chain_of_net. *)
let chain_solution_to_tree (net : Net.t) solution =
  let boundaries =
    Array.to_list
      (Array.mapi (fun i s -> (i + 1, s.Rip_net.Segment.length)) net.Net.segments)
  in
  let place (r : Solution.repeater) =
    let rec locate position = function
      | (edge, len) :: rest ->
          if position <= len || rest = [] then (edge, position)
          else locate (position -. len) rest
      | [] -> assert false
    in
    let edge, offset = locate r.position boundaries in
    (edge, offset, r.width)
  in
  Tree_solution.create (List.map place (Solution.repeaters solution))

(* Global chain candidate positions -> per-edge tree site offsets, so the
   chain and tree DPs search exactly the same design space. *)
let sites_of_chain_candidates (net : Net.t) candidates =
  let sites = Array.make (Net.segment_count net + 1) [] in
  let locate position =
    let rec walk edge start =
      let len = net.Net.segments.(edge - 1).Rip_net.Segment.length in
      if position <= start +. len || edge = Net.segment_count net then
        (edge, position -. start)
      else walk (edge + 1) (start +. len)
    in
    walk 1 0.0
  in
  List.iter
    (fun position ->
      let edge, offset = locate position in
      sites.(edge) <- sites.(edge) @ [ offset ])
    candidates;
  sites

(* --- Builder ----------------------------------------------------------------- *)

let test_builder_validation () =
  invalid "no edges" (fun () ->
      ignore (Tree.build (Tree.builder ~driver_width:10.0 ())));
  invalid "bad parent" (fun () ->
      let b = Tree.builder ~driver_width:10.0 () in
      ignore
        (Tree.add_edge b ~parent:5 ~length:10.0 ~resistance_per_um:0.1
           ~capacitance_per_um:1e-16 ()));
  invalid "leaf without sink" (fun () ->
      let b = Tree.builder ~driver_width:10.0 () in
      ignore (Tree.add_layer_edge b ~parent:0 Rip_tech.Layer.metal4 ~length:10.0);
      ignore (Tree.build b));
  invalid "sink on internal node" (fun () ->
      let b = Tree.builder ~driver_width:10.0 () in
      let a = Tree.add_layer_edge b ~parent:0 Rip_tech.Layer.metal4 ~length:10.0 in
      let c = Tree.add_layer_edge b ~parent:a Rip_tech.Layer.metal4 ~length:10.0 in
      Tree.set_sink b ~node:a ~load_width:10.0;
      Tree.set_sink b ~node:c ~load_width:10.0;
      ignore (Tree.build b));
  invalid "zone outside edge" (fun () ->
      let b = Tree.builder ~driver_width:10.0 () in
      ignore
        (Tree.add_edge b ~parent:0 ~zones:[ (5.0, 20.0) ] ~length:10.0
           ~resistance_per_um:0.1 ~capacitance_per_um:1e-16 ()))

let test_tree_queries () =
  let t = three_sink_tree () in
  Alcotest.(check int) "nodes" 6 (Tree.node_count t);
  Alcotest.(check int) "sinks" 3 (Tree.sink_count t);
  Alcotest.(check (float 1e-9)) "wire length" 11000.0 (Tree.total_wire_length t);
  Alcotest.(check bool) "leaf" true (Tree.is_leaf t 2);
  Alcotest.(check bool) "internal" false (Tree.is_leaf t 1);
  Alcotest.(check (list int)) "path" [ 4; 3; 1; 0 ] (Tree.path_to_root t 4);
  Alcotest.(check bool) "zone blocks" false (Tree.offset_legal t ~edge:5 600.0);
  Alcotest.(check bool) "zone edge ok" true (Tree.offset_legal t ~edge:5 400.0);
  Alcotest.(check bool) "interior ok" true (Tree.offset_legal t ~edge:5 1000.0)

let test_tree_solution () =
  let s = Tree_solution.create [ (2, 100.0, 30.0); (1, 50.0, 20.0) ] in
  Alcotest.(check int) "count" 2 (Tree_solution.count s);
  Alcotest.(check (float 1e-9)) "width" 50.0 (Tree_solution.total_width s);
  (match Tree_solution.repeaters s with
  | first :: _ ->
      Alcotest.(check int) "sorted by edge" 1 first.Tree_solution.edge
  | [] -> Alcotest.fail "expected repeaters");
  invalid "duplicate" (fun () ->
      ignore (Tree_solution.create [ (1, 5.0, 10.0); (1, 5.0, 20.0) ]))

(* --- Chain equivalence -------------------------------------------------------- *)

let chain_fixture () =
  let gen = Helpers.net_gen ~with_zone:true () in
  QCheck.make ~print:(Fmt.str "%a" Net.pp) gen

let prop_chain_delay_equivalence =
  QCheck.Test.make
    ~name:"tree Elmore equals chain Elmore on path trees" ~count:60
    (chain_fixture ())
    (fun net ->
      let tree = Tree.chain_of_net net in
      let geometry = Geometry.of_net net in
      let length = Net.total_length net in
      let placements =
        List.filter (fun (p, _) -> p > 1.0 && p < length -. 1.0)
          [ (0.31 *. length, 45.0); (0.72 *. length, 90.0) ]
      in
      let chain_solution = Solution.create placements in
      let tree_solution = chain_solution_to_tree net chain_solution in
      let chain_delay = Delay.total repeater geometry chain_solution in
      let tree_delay = Tree_delay.max_delay repeater tree tree_solution in
      Helpers.close ~rel:1e-9 chain_delay tree_delay)

let prop_chain_dp_equivalence =
  QCheck.Test.make
    ~name:"tree power DP equals chain power DP on path trees" ~count:30
    QCheck.(pair (QCheck.make (Helpers.net_gen ~with_zone:true ())) (float_range 1.1 2.0))
    (fun (net, slack) ->
      let tree = Tree.chain_of_net net in
      let geometry = Geometry.of_net net in
      let bare = Delay.total repeater geometry Solution.empty in
      let budget = bare *. slack /. 1.4 in
      let library =
        Repeater_library.uniform ~min_width:40.0 ~step:60.0 ~count:4
      in
      let candidates = Candidates.uniform net ~pitch:400.0 in
      let chain =
        Power_dp.run
          (Power_dp.request geometry repeater ~library ~candidates ~budget)
      in
      let tree_result =
        Tree_dp.solve repeater tree ~library
          ~sites:(sites_of_chain_candidates net candidates)
          ~budget
      in
      match (chain, tree_result) with
      | None, None -> true
      | Some a, Some b ->
          Helpers.close ~rel:1e-9 a.Power_dp.total_width
            b.Tree_dp.total_width
      | Some _, None | None, Some _ -> false)

let prop_chain_min_delay_equivalence =
  QCheck.Test.make
    ~name:"tree min-delay equals chain min-delay on path trees" ~count:30
    (chain_fixture ())
    (fun net ->
      let tree = Tree.chain_of_net net in
      let geometry = Geometry.of_net net in
      let library =
        Repeater_library.uniform ~min_width:50.0 ~step:100.0 ~count:3
      in
      let candidates = Candidates.uniform net ~pitch:500.0 in
      let chain =
        Min_delay.tau_min geometry repeater ~library ~candidates
      in
      let tree_result =
        Tree_min_delay.solve repeater tree ~library
          ~sites:(sites_of_chain_candidates net candidates)
      in
      let tree_value = tree_result.Tree_min_delay.delay in
      Helpers.close ~rel:1e-9 chain tree_value
      && Helpers.close ~rel:1e-9 tree_value
           (Tree_delay.max_delay repeater tree
              tree_result.Tree_min_delay.solution))

let prop_chain_sizing_equivalence =
  QCheck.Test.make
    ~name:"tree sizing equals the chain width solver on path trees"
    ~count:25
    (QCheck.make (Helpers.net_gen ~with_zone:false ()))
    (fun net ->
      let tree = Tree.chain_of_net net in
      let geometry = Geometry.of_net net in
      let length = Net.total_length net in
      let positions = [| 0.35 *. length; 0.7 *. length |] in
      let sizing_chain =
        Rip_refine.Width_solver.min_delay_sizing geometry repeater ~positions
      in
      let budget =
        1.4
        *. Rip_refine.Width_solver.tau_total geometry repeater ~positions
             ~widths:sizing_chain
      in
      let chain =
        Rip_refine.Width_solver.solve geometry repeater ~positions ~budget
      in
      let placements =
        chain_solution_to_tree net
          (Solution.create [ (positions.(0), 50.0); (positions.(1), 50.0) ])
      in
      let tree_result =
        Tree_sizing.solve repeater tree ~placements ~budget
      in
      match (chain, tree_result) with
      | Some c, Some t ->
          Helpers.close ~rel:2e-2 c.Rip_refine.Width_solver.total_width
            t.Tree_sizing.total_width
          && Helpers.close ~rel:1e-3 budget t.Tree_sizing.max_delay
      | _, _ -> false)

(* --- Multi-sink behaviour ------------------------------------------------------ *)

let test_layout_structure () =
  let tree = three_sink_tree () in
  let solution = Tree_solution.create [ (1, 1500.0, 80.0); (4, 1000.0, 60.0) ] in
  let layout = Tree_layout.expand tree solution in
  (* root + 2 repeater points + 5 node points *)
  Alcotest.(check int) "points" 8 (Array.length layout.Tree_layout.points);
  Alcotest.(check int) "repeaters" 2 layout.Tree_layout.repeater_count;
  Alcotest.(check int) "sink points" 3
    (List.length layout.Tree_layout.sink_points)

let test_layout_gate_relations () =
  (* Two repeaters nested on the same edge: the second one's parent gate
     is the first one, not the driver. *)
  let tree = three_sink_tree () in
  let solution =
    Tree_solution.create [ (1, 800.0, 70.0); (1, 2200.0, 90.0) ]
  in
  let layout = Tree_layout.expand tree solution in
  let points = Tree_layout.repeater_points layout in
  Alcotest.(check int) "first's parent is the driver" 0
    (Tree_layout.parent_gate layout points.(0));
  Alcotest.(check int) "second's parent is the first"
    points.(0)
    (Tree_layout.parent_gate layout points.(1));
  (* The driver's stage capacitance stops at the first repeater: wire up
     to 800 um plus its input capacitance. *)
  let widths = [| 70.0; 90.0 |] in
  let expected =
    (800.0 *. tree.Tree.nodes.(1).Tree.capacitance_per_um)
    +. Rip_tech.Repeater_model.input_capacitance repeater 70.0
  in
  Alcotest.(check bool) "driver stage cap" true
    (Helpers.close ~rel:1e-9 expected
       (Tree_layout.stage_capacitance repeater layout ~widths ~gate:0))

let test_sizing_concentrates_on_critical_sink () =
  (* Make one branch far longer: sizing must leave the short sink with
     slack while the critical sink lands on the budget. *)
  let b = Tree.builder ~name:"skewed" ~driver_width:20.0 () in
  let trunk = Tree.add_layer_edge b ~parent:0 Rip_tech.Layer.metal4 ~length:1500.0 in
  let long_leaf = Tree.add_layer_edge b ~parent:trunk Rip_tech.Layer.metal4 ~length:6000.0 in
  let short_leaf = Tree.add_layer_edge b ~parent:trunk Rip_tech.Layer.metal4 ~length:900.0 in
  Tree.set_sink b ~node:long_leaf ~load_width:40.0;
  Tree.set_sink b ~node:short_leaf ~load_width:40.0;
  let tree = Tree.build b in
  let placements =
    Tree_solution.create [ (2, 1500.0, 80.0); (2, 4000.0, 80.0) ]
  in
  let layout = Tree_layout.expand tree placements in
  let fastest = Tree_sizing.min_delay_widths repeater tree ~placements in
  let budget =
    1.3 *. Tree_layout.max_sink_delay repeater layout ~widths:fastest
  in
  match Tree_sizing.solve repeater tree ~placements ~budget with
  | None -> Alcotest.fail "expected feasible"
  | Some r ->
      let delays =
        Tree_layout.sink_delays repeater layout ~widths:r.Tree_sizing.widths
      in
      (* Sink order follows tree.sinks: long first, short second. *)
      Alcotest.(check bool) "critical sink at the budget" true
        (Helpers.close ~rel:1e-3 budget delays.(0));
      Alcotest.(check bool) "short sink has slack" true
        (delays.(1) < 0.9 *. budget)

let test_tree_delays_sane () =
  let tree = three_sink_tree () in
  let bare = Tree_delay.sink_delays repeater tree Tree_solution.empty in
  Alcotest.(check int) "three delays" 3 (Array.length bare);
  Array.iter
    (fun d -> Alcotest.(check bool) "positive" true (d > 0.0))
    bare;
  (* A repeater on the trunk speeds up the worst sink. *)
  let buffered =
    Tree_delay.max_delay repeater tree
      (Tree_solution.create [ (1, 1500.0, 150.0) ])
  in
  Alcotest.(check bool) "trunk repeater helps" true
    (buffered < Array.fold_left Float.max 0.0 bare)

let test_tree_dp_respects_zones () =
  let tree = three_sink_tree () in
  let budget = 1.2 *. Tree_hybrid.tau_min process tree in
  let library = Repeater_library.range ~min_width:10.0 ~max_width:400.0 ~step:40.0 in
  match
    Tree_dp.solve repeater tree ~library
      ~sites:(Tree_dp.uniform_sites tree ~pitch:100.0)
      ~budget
  with
  | None -> Alcotest.fail "expected feasible"
  | Some r ->
      Alcotest.(check bool) "legal" true
        (Tree_solution.legal tree r.Tree_dp.solution);
      Alcotest.(check bool) "meets budget" true
        (Tree_delay.meets_budget repeater tree r.Tree_dp.solution ~budget)

let prop_tree_dp_reported_delay_consistent =
  QCheck.Test.make
    ~name:"tree DP's reported delay matches re-evaluation" ~count:20
    QCheck.(float_range 1.15 2.0)
    (fun slack ->
      let tree = three_sink_tree () in
      let budget = slack *. Tree_hybrid.tau_min process tree in
      let library =
        Repeater_library.uniform ~min_width:40.0 ~step:80.0 ~count:4
      in
      match
        Tree_dp.solve repeater tree ~library
          ~sites:(Tree_dp.uniform_sites tree ~pitch:200.0)
          ~budget
      with
      | None -> false
      | Some r ->
          Helpers.close ~rel:1e-9 r.Tree_dp.max_delay
            (Tree_delay.max_delay repeater tree r.Tree_dp.solution)
          && r.Tree_dp.max_delay <= budget *. (1.0 +. 1e-9))

let test_tree_dp_exhaustive_tiny () =
  (* One site per edge, tiny library: enumerate all assignments. *)
  let tree = three_sink_tree () in
  let library = Repeater_library.create [ 60.0; 180.0 ] in
  let sites =
    Array.init (Tree.node_count tree) (fun id ->
        if id = 0 then []
        else
          let mid = 0.5 *. tree.Tree.nodes.(id).Tree.length in
          if Tree.offset_legal tree ~edge:id mid then [ mid ] else [])
  in
  let budget = 1.3 *. Tree_hybrid.tau_min process tree in
  let site_list =
    Array.to_list sites
    |> List.mapi (fun edge offsets -> List.map (fun o -> (edge, o)) offsets)
    |> List.concat
  in
  let widths = Repeater_library.widths library in
  let rec enumerate chosen = function
    | [] -> [ chosen ]
    | site :: rest ->
        enumerate chosen rest
        @ List.concat_map
            (fun w -> enumerate ((site, w) :: chosen) rest)
            widths
  in
  let best = ref None in
  List.iter
    (fun assignment ->
      let solution =
        Tree_solution.create
          (List.map (fun ((edge, o), w) -> (edge, o, w)) assignment)
      in
      if Tree_delay.meets_budget repeater tree solution ~budget then begin
        let width = Tree_solution.total_width solution in
        match !best with
        | Some (_, bw) when bw <= width -> ()
        | _ -> best := Some (solution, width)
      end)
    (enumerate [] site_list);
  match (Tree_dp.solve repeater tree ~library ~sites ~budget, !best) with
  | Some dp, Some (_, brute_width) ->
      Alcotest.(check (float 1e-9)) "matches exhaustive" brute_width
        dp.Tree_dp.total_width
  | None, None -> ()
  | Some _, None -> Alcotest.fail "DP found a solution exhaustion missed"
  | None, Some _ -> Alcotest.fail "exhaustion found a solution DP missed"

let prop_tree_sizing_valid =
  QCheck.Test.make
    ~name:"tree sizing meets the budget with positive widths" ~count:15
    QCheck.(float_range 1.2 2.0)
    (fun slack ->
      let tree = three_sink_tree () in
      let placements =
        Tree_solution.create [ (1, 1500.0, 80.0); (3, 900.0, 80.0) ]
      in
      let fastest =
        Tree_sizing.min_delay_widths repeater tree ~placements
      in
      let layout = Tree_layout.expand tree placements in
      let floor_delay =
        Tree_layout.max_sink_delay repeater layout ~widths:fastest
      in
      let budget = slack *. floor_delay in
      match Tree_sizing.solve repeater tree ~placements ~budget with
      | None -> false
      | Some r ->
          Array.for_all (fun w -> w > 0.0) r.Tree_sizing.widths
          && r.Tree_sizing.max_delay <= budget *. (1.0 +. 1e-5)
          && r.Tree_sizing.total_width
             <= Array.fold_left ( +. ) 0.0 fastest +. 1e-6)

let coarse (r : Tree_hybrid.report) =
  r.Tree_hybrid.trace.Rip_core.Pipeline.coarse

let test_tree_hybrid_end_to_end () =
  let tree = three_sink_tree () in
  let tau_min = Tree_hybrid.tau_min process tree in
  List.iter
    (fun slack ->
      let budget = slack *. tau_min in
      match Tree_hybrid.solve process tree ~budget with
      | Error e -> Alcotest.failf "x%.2f: %s" slack (Rip.error_to_string e)
      | Ok r ->
          Alcotest.(check bool) "legal" true
            (Tree_solution.legal tree r.Tree_hybrid.solution);
          Alcotest.(check bool) "meets budget" true
            (Tree_delay.meets_budget repeater tree r.Tree_hybrid.solution
               ~budget);
          Alcotest.(check bool) "never worse than coarse" true
            (r.Tree_hybrid.total_width
            <= (coarse r).Tree_dp.total_width +. 1e-9))
    [ 1.1; 1.3; 1.6; 2.0 ]

let test_tree_hybrid_beats_coarse_dp () =
  let tree = three_sink_tree () in
  let budget = 1.3 *. Tree_hybrid.tau_min process tree in
  match Tree_hybrid.solve process tree ~budget with
  | Error e -> Alcotest.failf "hybrid failed: %s" (Rip.error_to_string e)
  | Ok r ->
      let coarse = coarse r in
      Alcotest.(check bool)
        (Printf.sprintf "hybrid %.0fu < coarse %.0fu"
           r.Tree_hybrid.total_width coarse.Tree_dp.total_width)
        true
        (r.Tree_hybrid.total_width < coarse.Tree_dp.total_width)

(* tree05 of the tree suite at its tightest target: the coarse and the
   fallback DPs both miss at the 200 um pitch.  Before the tree ran the
   shared pipeline it had no min-delay seed, rescue or anchor pass, and
   answered "infeasible: no tree insertion meets 781.2 ps". *)
let test_tree05_tightest_target () =
  let tree =
    List.find
      (fun (t : Tree.t) -> String.equal t.Tree.name "tree05")
      (Rip_workload.Tree_gen.suite ())
  in
  let budget = 1.10 *. Tree_hybrid.tau_min process tree in
  match Tree_hybrid.solve process tree ~budget with
  | Error e -> Alcotest.failf "tree05 x1.10: %s" (Rip.error_to_string e)
  | Ok r ->
      Alcotest.(check bool) "legal" true
        (Tree_solution.legal tree r.Tree_hybrid.solution);
      Alcotest.(check bool) "meets budget" true
        (Tree_delay.meets_budget repeater tree r.Tree_hybrid.solution ~budget)

(* The tree form of the chain's anchor gate: whenever the min-delay
   insertion on the 100 um grid meets the budget, the tree hybrid answers,
   legally and within the budget, and never wider than a coarse pass that
   met the budget.  2-3-sink trees, most edges zoned; budgets 0-20 %
   above that insertion's own delay, half of them within 1 %.  Five
   cases: a budget within 1 % costs the tree's fallback and rescue DPs
   1-4 s, as [Tree_dp] has no width bound to prune with. *)
let tree_gate_arb =
  let config =
    { Rip_workload.Tree_gen.default with
      Rip_workload.Tree_gen.min_sinks = 2; max_sinks = 3;
      zone_probability = 0.7 }
  in
  let gen =
    QCheck.Gen.(
      let* index = int_range 1 10_000 in
      let* slack = oneof [ float_range 1.0 1.01; float_range 1.0 1.2 ] in
      return
        ( Rip_workload.Tree_gen.generate ~config
            (Rip_numerics.Prng.create 29L) ~index,
          slack ))
  in
  QCheck.make
    ~print:(fun (tree, slack) -> Fmt.str "%a x%g" Tree.pp tree slack)
    gen

let prop_tree_anchor_gate =
  QCheck.Test.make
    ~name:"answers wherever the tree min-delay insertion meets" ~count:5
    tree_gate_arb (fun (tree, slack) ->
      let fastest =
        Tree_min_delay.solve repeater tree
          ~library:
            (Repeater_library.range ~min_width:10.0 ~max_width:400.0
               ~step:20.0)
          ~sites:(Tree_dp.uniform_sites tree ~pitch:100.0)
      in
      let budget =
        slack
        *. Tree_delay.max_delay repeater tree
             fastest.Tree_min_delay.solution
      in
      match Tree_hybrid.solve process tree ~budget with
      | Error _ -> false
      | Ok r ->
          let coarse = coarse r in
          Tree_solution.legal tree r.Tree_hybrid.solution
          && Tree_delay.meets_budget repeater tree r.Tree_hybrid.solution
               ~budget
          && ((not
                 (Tree_delay.meets_budget repeater tree
                    coarse.Tree_dp.solution ~budget))
             || r.Tree_hybrid.total_width
                <= coarse.Tree_dp.total_width +. 1e-9))

let suite =
  [
    ( "tree.topology",
      [
        Alcotest.test_case "builder validation" `Quick
          test_builder_validation;
        Alcotest.test_case "queries" `Quick test_tree_queries;
        Alcotest.test_case "solutions" `Quick test_tree_solution;
      ] );
    ( "tree.chain_equivalence",
      [
        qcheck prop_chain_delay_equivalence;
        qcheck prop_chain_dp_equivalence;
        qcheck prop_chain_min_delay_equivalence;
        qcheck prop_chain_sizing_equivalence;
      ] );
    ( "tree.multi_sink",
      [
        Alcotest.test_case "layout structure" `Quick test_layout_structure;
        Alcotest.test_case "layout gate relations" `Quick
          test_layout_gate_relations;
        Alcotest.test_case "sizing tracks criticality" `Quick
          test_sizing_concentrates_on_critical_sink;
        Alcotest.test_case "delays sane" `Quick test_tree_delays_sane;
        Alcotest.test_case "dp respects zones" `Quick
          test_tree_dp_respects_zones;
        Alcotest.test_case "dp vs exhaustive" `Slow
          test_tree_dp_exhaustive_tiny;
        Alcotest.test_case "hybrid end to end" `Slow
          test_tree_hybrid_end_to_end;
        Alcotest.test_case "hybrid beats coarse" `Slow
          test_tree_hybrid_beats_coarse_dp;
        Alcotest.test_case "tree05 at its tightest target" `Quick
          test_tree05_tightest_target;
        qcheck prop_tree_anchor_gate;
        qcheck prop_tree_dp_reported_delay_consistent;
        qcheck prop_tree_sizing_valid;
      ] );
  ]
