module Repeater_model = Rip_tech.Repeater_model
module Repeater_library = Rip_dp.Repeater_library

type label = {
  cap : float;
  req : float;  (* required time relative to a zero deadline at sinks *)
  placements : (int * float * float) list;  (* (edge, offset, width) *)
}

type result = {
  solution : Tree_solution.t;
  delay : float;
}

(* 2-d Pareto: keep the (cap ascending, req ascending) front. *)
let prune labels =
  let arr = Array.of_list labels in
  Array.sort
    (fun a b ->
      match Float.compare a.cap b.cap with
      | 0 -> Float.compare b.req a.req
      | c -> c)
    arr;
  let kept = ref [] in
  let best = ref Float.neg_infinity in
  Array.iter
    (fun l ->
      if l.req > !best then begin
        kept := l :: !kept;
        best := l.req
      end)
    arr;
  List.rev !kept

let solve repeater tree ~library ~sites =
  let co = repeater.Repeater_model.co in
  let intrinsic = Repeater_model.intrinsic_delay repeater in
  let lib = Repeater_library.to_array library in
  let wire_extend node length l =
    if length <= 0.0 then l
    else
      let wire_c = length *. node.Tree.capacitance_per_um in
      let wire_r = length *. node.Tree.resistance_per_um in
      { l with
        cap = l.cap +. wire_c;
        req = l.req -. (wire_r *. ((0.5 *. wire_c) +. l.cap)) }
  in
  let buffer_options edge offset l =
    Array.to_list
      (Array.map
         (fun w ->
           { cap = co *. w;
             req =
               l.req -. intrinsic
               -. (Repeater_model.output_resistance repeater w *. l.cap);
             placements = (edge, offset, w) :: l.placements })
         lib)
  in
  let merge_two a b =
    List.concat_map
      (fun la ->
        List.map
          (fun lb ->
            { cap = la.cap +. lb.cap; req = Float.min la.req lb.req;
              placements = la.placements @ lb.placements })
          b)
      a
  in
  let rec labels_up v =
    let node = tree.Tree.nodes.(v) in
    let base =
      if node.Tree.children = [] then
        let sink = List.find (fun s -> s.Tree.node = v) tree.Tree.sinks in
        [ { cap = co *. sink.Tree.load_width; req = 0.0; placements = [] } ]
      else
        match node.Tree.children with
        | [] -> assert false
        | first :: rest ->
            List.fold_left
              (fun acc child -> prune (merge_two acc (labels_up child)))
              (labels_up first) rest
    in
    let labels, top =
      List.fold_left
        (fun (labels, boundary) offset ->
          let carried =
            List.map (wire_extend node (boundary -. offset)) labels
          in
          (prune (carried @ List.concat_map (buffer_options v offset) carried),
           offset))
        (base, node.Tree.length)
        (List.rev sites.(v))
    in
    prune (List.map (wire_extend node top) labels)
  in
  let at_root =
    match tree.Tree.nodes.(0).Tree.children with
    | [] -> invalid_arg "Tree_min_delay: empty tree"
    | first :: rest ->
        List.fold_left
          (fun acc child -> prune (merge_two acc (labels_up child)))
          (labels_up first) rest
  in
  let driver_r =
    Repeater_model.output_resistance repeater tree.Tree.driver_width
  in
  let slack l = l.req -. intrinsic -. (driver_r *. l.cap) in
  let best =
    List.fold_left
      (fun acc l -> if slack l > slack acc then l else acc)
      (List.hd at_root) (List.tl at_root)
  in
  { solution = Tree_solution.create best.placements; delay = -.slack best }

let tau_min repeater tree ~library ~sites =
  (solve repeater tree ~library ~sites).delay
