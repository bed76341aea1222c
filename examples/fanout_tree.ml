(* Fanout-tree demo: the hybrid scheme on a multi-sink interconnect tree
   (the paper's announced extension).  A 4-sink distribution tree with a
   macro blocking part of one branch is repeated for minimal power, and
   per-sink slacks are reported.

     dune exec examples/fanout_tree.exe *)

module Tree = Rip_tree.Tree
module Tree_solution = Rip_tree.Tree_solution
module Tree_delay = Rip_tree.Tree_delay
module Tree_hybrid = Rip_tree.Tree_hybrid

let process = Rip_tech.Process.default_180nm

let build_tree () =
  let b = Tree.builder ~name:"fanout4" ~driver_width:20.0 () in
  let trunk = Tree.add_layer_edge b ~parent:0 Rip_tech.Layer.metal5 ~length:2800.0 in
  let north = Tree.add_layer_edge b ~parent:trunk Rip_tech.Layer.metal4 ~length:2100.0 in
  let south = Tree.add_layer_edge b ~parent:trunk Rip_tech.Layer.metal4 ~length:1900.0 in
  let nw = Tree.add_layer_edge b ~parent:north Rip_tech.Layer.metal5 ~length:1700.0 in
  let ne =
    (* A macro blocks the middle of the north-east branch. *)
    Tree.add_layer_edge b ~parent:north ~zones:[ (500.0, 1400.0) ]
      Rip_tech.Layer.metal5 ~length:2000.0
  in
  let sw = Tree.add_layer_edge b ~parent:south Rip_tech.Layer.metal4 ~length:1500.0 in
  let se = Tree.add_layer_edge b ~parent:south Rip_tech.Layer.metal4 ~length:2400.0 in
  Tree.set_sink b ~node:nw ~load_width:40.0;
  Tree.set_sink b ~node:ne ~load_width:35.0;
  Tree.set_sink b ~node:sw ~load_width:50.0;
  Tree.set_sink b ~node:se ~load_width:45.0;
  Tree.build b

let () =
  let tree = build_tree () in
  let tau_min = Tree_hybrid.tau_min process tree in
  let budget = 1.25 *. tau_min in
  Printf.printf "%s: %.0f um of wire, %d sinks; tau_min %.1f ps, budget %.1f ps\n\n"
    tree.Tree.name (Tree.total_wire_length tree) (Tree.sink_count tree)
    (tau_min *. 1e12) (budget *. 1e12);
  match Tree_hybrid.solve process tree ~budget with
  | Error e -> print_endline (Rip_core.Rip.error_to_string e)
  | Ok r ->
      Printf.printf "%d repeaters, total width %.0fu (%.1f ms)\n"
        (Tree_solution.count r.Tree_hybrid.solution)
        r.Tree_hybrid.total_width
        (r.Tree_hybrid.runtime_seconds *. 1e3);
      List.iter
        (fun (rep : Tree_solution.repeater) ->
          Printf.printf "  edge %d @ %6.0f um : %4.0fu\n"
            rep.Tree_solution.edge rep.Tree_solution.offset
            rep.Tree_solution.width)
        (Tree_solution.repeaters r.Tree_hybrid.solution);
      let c = r.Tree_hybrid.trace.Rip_core.Pipeline.coarse in
      Printf.printf "coarse DP alone would need %.0fu (%.1f%% more)\n"
        c.Rip_tree.Tree_dp.total_width
        (100.0
        *. (c.Rip_tree.Tree_dp.total_width -. r.Tree_hybrid.total_width)
        /. r.Tree_hybrid.total_width);
      let delays =
        Tree_delay.sink_delays process.Rip_tech.Process.repeater tree
          r.Tree_hybrid.solution
      in
      Printf.printf "\nper-sink timing:\n";
      List.iteri
        (fun i (s : Tree.sink) ->
          Printf.printf "  sink at node %d: %.1f ps (slack %+.1f ps)\n"
            s.Tree.node (delays.(i) *. 1e12)
            ((budget -. delays.(i)) *. 1e12))
        tree.Tree.sinks
