module Solution = Rip_elmore.Solution
module Delay = Rip_elmore.Delay
module Hooks = Rip_numerics.Hooks

type stats = {
  sites : int;
  transitions : int;
  labels : int;
}

type result = {
  solution : Solution.t;
  total_width : float;
  delay : float;
  stats : stats;
}

type probe_event =
  | Column of {
      site : int;
      width_index : int;
      collected : int;
      kept : int;
    }

type backend = Reference | Fast

let backend_name = function
  | Reference -> "reference"
  | Fast -> "fast"

type request = {
  geometry : Rip_net.Geometry.t;
  repeater : Rip_tech.Repeater_model.t;
  library : Repeater_library.t;
  candidates : float list;
  budget : float;
  backend : backend;
  frontier_cap : int option;
  width_bound : int option;
  price : float option;
  arena : Fast_dp.Arena.t option;
  hooks : probe_event Hooks.t;
}

let request ?(backend = Fast) ?frontier_cap ?width_bound ?price ?arena
    ?(hooks = Hooks.default) geometry repeater ~library ~candidates ~budget =
  { geometry; repeater; library; candidates; budget; backend; frontier_cap;
    width_bound; price; arena; hooks }

type label = {
  delay : float;
  width_units : int;  (* total repeater width quantised to milli-u *)
  pred_site : int;
  pred_width : int;  (* index into the predecessor site's width array *)
  pred_label : int;  (* index into the predecessor state's frontier *)
}

let width_units (r : result) =
  List.fold_left
    (fun acc w -> acc + Fast_dp.width_units w)
    0 (Solution.widths r.solution)

(* Bound a frontier to [cap] labels by sampling it evenly along the width
   axis.  The frontier is width-ascending with strictly decreasing delay,
   so index 0 (the cheapest label) and the last index (the fastest) are
   always kept; dropping interior labels can only cost power optimality,
   never feasibility. *)
let thin_frontier cap frontier =
  let n = Array.length frontier in
  if n <= cap then frontier
  else Array.init cap (fun i -> frontier.(i * (n - 1) / (cap - 1)))

(* Total order on labels.  (width_units, delay) alone is what the DP
   cares about, but the backtracking indices break any remaining tie so
   lists collected from a Hashtbl can be canonicalised independently of
   hash iteration order. *)
let label_order a b =
  match Int.compare a.width_units b.width_units with
  | 0 -> (
      match Float.compare a.delay b.delay with
      | 0 -> (
          match Int.compare a.pred_site b.pred_site with
          | 0 -> (
              match Int.compare a.pred_width b.pred_width with
              | 0 -> Int.compare a.pred_label b.pred_label
              | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

(* Pareto prune: ascending width, then keep strictly decreasing delay. *)
let freeze_frontier labels =
  let arr = Array.of_list labels in
  Array.sort label_order arr;
  let kept = ref [] in
  let best_delay = ref Float.infinity in
  Array.iter
    (fun l ->
      if l.delay < !best_delay then begin
        kept := l :: !kept;
        best_delay := l.delay
      end)
    arr;
  Array.of_list (List.rev !kept)

(* The reference backend: the textbook Lillis/Cheng/Lin label DP, kept
   as the exactness baseline the fast backend must match bit for bit. *)
let solve_reference ?frontier_cap ~cancel ~probe chain ~library ~budget =
  let geometry = chain.Chain.geometry in
  let repeater = chain.Chain.repeater in
  let n_sites = Chain.site_count chain in
  let last = n_sites - 1 in
  let lib = Repeater_library.to_array library in
  let widths_at site =
    if site = 0 then [| chain.Chain.driver_width |]
    else if site = last then [| chain.Chain.receiver_width |]
    else lib
  in
  (* Thickest driver any predecessor can offer: stage delay is strictly
     decreasing in the driving width, so this width gives a lower bound
     on every stage over a given span. *)
  let widest_driver =
    Float.max chain.Chain.driver_width (Repeater_library.max_width library)
  in
  (* frontiers.(site).(width_index) — filled strictly left to right. *)
  let frontiers =
    Array.init n_sites (fun site ->
        Array.make (Array.length (widths_at site)) [||])
  in
  frontiers.(0).(0) <-
    [| { delay = 0.0; width_units = 0; pred_site = -1; pred_width = -1;
         pred_label = -1 } |];
  let transitions = ref 0 in
  let labels = ref 0 in
  let collected : (int, label) Hashtbl.t = Hashtbl.create 256 in
  for site = 1 to last do
    (* Candidate-column cancellation poll: a fired token stops the solve
       before the next column's transition scan. *)
    cancel ();
    let site_widths = widths_at site in
    let added_units =
      if Chain.is_interior chain site then
        Array.map Fast_dp.width_units site_widths
      else Array.map (fun _ -> 0) site_widths
    in
    for wj = 0 to Array.length site_widths - 1 do
      Hashtbl.reset collected;
      let to_width = site_widths.(wj) in
      (* Scan predecessors right to left.  Once even the best case — the
         thickest driver with a zero arrival — overshoots the budget, so
         does every farther predecessor: stage delay only grows with
         span.  Cuts the quadratic site scan to the feasible window. *)
      let src = ref (site - 1) in
      let scanning = ref true in
      while !scanning && !src >= 0 do
        let s = !src in
        if
          Chain.stage_delay chain ~from_site:s ~from_width:widest_driver
            ~to_site:site ~to_width
          > budget
        then scanning := false
        else begin
          let src_widths = widths_at s in
          for wi = 0 to Array.length src_widths - 1 do
            let frontier = frontiers.(s).(wi) in
            if Array.length frontier > 0 then begin
              incr transitions;
              let stage =
                Chain.stage_delay chain ~from_site:s
                  ~from_width:src_widths.(wi) ~to_site:site ~to_width
              in
              Array.iteri
                (fun li l ->
                  let delay = l.delay +. stage in
                  if delay <= budget then begin
                    let width_units = l.width_units + added_units.(wj) in
                    let candidate =
                      { delay; width_units; pred_site = s; pred_width = wi;
                        pred_label = li }
                    in
                    match Hashtbl.find_opt collected width_units with
                    | Some best when best.delay <= delay -> ()
                    | Some _ | None ->
                        Hashtbl.replace collected width_units candidate
                  end)
                frontier
            end
          done
        end;
        decr src
      done;
      let frontier =
        freeze_frontier
          (List.sort label_order
             (Hashtbl.fold (fun _ l acc -> l :: acc) collected []))
      in
      let frontier =
        match frontier_cap with
        | Some cap -> thin_frontier cap frontier
        | None -> frontier
      in
      labels := !labels + Array.length frontier;
      (* Guarded so the event record is never allocated without a
         listener — an absent probe costs one branch per column. *)
      (match probe with
      | None -> ()
      | Some f ->
          f
            (Column
               {
                 site;
                 width_index = wj;
                 collected = Hashtbl.length collected;
                 kept = Array.length frontier;
               }));
      frontiers.(site).(wj) <- frontier
    done
  done;
  let receiver = frontiers.(last).(0) in
  if Array.length receiver = 0 then None
  else begin
    (* The frozen frontier is width-ascending, so entry 0 is min width. *)
    let rec backtrack site wj li acc =
      if site <= 0 then acc
      else
        let l = frontiers.(site).(wj).(li) in
        let acc =
          if Chain.is_interior chain site then
            (chain.Chain.positions.(site), (widths_at site).(wj)) :: acc
          else acc
        in
        backtrack l.pred_site l.pred_width l.pred_label acc
    in
    let placements = backtrack last 0 0 [] in
    let solution = Solution.create placements in
    let delay = Delay.total repeater geometry solution in
    Some
      {
        solution;
        total_width = Solution.total_width solution;
        delay;
        stats = { sites = n_sites; transitions = !transitions;
                  labels = !labels };
      }
  end

let run (r : request) =
  (match r.frontier_cap with
  | Some cap when cap < 2 ->
      invalid_arg "Power_dp.run: frontier_cap must be at least 2"
  | Some _ | None -> ());
  let chain = Chain.create r.geometry r.repeater ~candidates:r.candidates in
  match r.backend with
  | Reference ->
      solve_reference ?frontier_cap:r.frontier_cap
        ~cancel:r.hooks.Hooks.cancel ~probe:r.hooks.Hooks.probe chain
        ~library:r.library ~budget:r.budget
  | Fast -> (
      let on_column =
        match r.hooks.Hooks.probe with
        | None -> None
        | Some f ->
            Some
              (fun ~site ~width_index ~collected ~kept ->
                f (Column { site; width_index; collected; kept }))
      in
      match
        Fast_dp.solve ?frontier_cap:r.frontier_cap ?width_bound:r.width_bound
          ?price:r.price ~cancel:r.hooks.Hooks.cancel ?on_column ?arena:r.arena
          chain ~library:r.library ~budget:r.budget
      with
      | None -> None
      | Some (placements, fstats) ->
          let solution = Solution.create placements in
          Some
            {
              solution;
              total_width = Solution.total_width solution;
              delay = Delay.total r.repeater r.geometry solution;
              stats =
                {
                  sites = fstats.Fast_dp.sites;
                  transitions = fstats.Fast_dp.transitions;
                  labels = fstats.Fast_dp.labels;
                };
            })
