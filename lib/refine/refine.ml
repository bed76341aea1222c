module Geometry = Rip_net.Geometry
module Net = Rip_net.Net
module Solution = Rip_elmore.Solution
module Hooks = Rip_numerics.Hooks

type config = {
  move_step : float;
  epsilon : float;
  max_iterations : int;
  min_gap : float;
  patience : int;
  hop_zones : bool;
  max_hop : float;
}

let default_config =
  { move_step = 50.0; epsilon = 1e-4; max_iterations = 256; min_gap = 1.0;
    patience = 4; hop_zones = false; max_hop = 800.0 }

type probe_event =
  | Iteration of {
      iteration : int;
      moved : int;
      total_width : float;
      evaluations : int;
    }

type outcome = {
  solution : Solution.t;
  lambda : float;
  iterations : int;
  moves : int;
  initial_total_width : float;
  total_width : float;
  delay : float;
  converged : bool;
  evaluations : int;
}

let solution_of positions widths =
  Solution.create
    (List.combine (Array.to_list positions) (Array.to_list widths))

(* Apply one round of moves left to right.  The left bound uses the
   neighbour's already-updated position, the right bound the old one, so
   simultaneous opposite moves can never cross.  Returns the number of
   repeaters actually moved. *)
let apply_moves config net length step positions directions =
  let n = Array.length positions in
  let moved = ref 0 in
  for i = 0 to n - 1 do
    let target =
      match directions.(i) with
      | Movement.Stay -> positions.(i)
      | Movement.Downstream -> positions.(i) +. step
      | Movement.Upstream -> positions.(i) -. step
    in
    if target <> positions.(i) then begin
      let lo =
        if i = 0 then config.min_gap else positions.(i - 1) +. config.min_gap
      in
      let hi =
        if i = n - 1 then length -. config.min_gap
        else positions.(i + 1) -. config.min_gap
      in
      let clamped = Float.max lo (Float.min hi target) in
      (* Fig. 5: a repeater is not moved if the move would place it inside
         a forbidden zone — unless zone hopping is enabled (the paper's
         future-work variant), in which case it lands on the far edge. *)
      let clamped =
        if Net.position_legal net clamped || not config.hop_zones then
          clamped
        else
          let zones = net.Net.zones in
          let hopped =
            match directions.(i) with
            | Movement.Downstream ->
                Rip_net.Zone.first_allowed_at_or_after zones clamped
            | Movement.Upstream ->
                Rip_net.Zone.last_allowed_at_or_before zones clamped
            | Movement.Stay -> clamped
          in
          if
            Float.abs (hopped -. positions.(i)) <= config.max_hop
            && hopped >= lo && hopped <= hi
          then hopped
          else clamped
      in
      if clamped <> positions.(i) && Net.position_legal net clamped then begin
        positions.(i) <- clamped;
        incr moved
      end
    end
  done;
  !moved

type state = {
  mutable current : Width_solver.result;
  mutable step : float;
  mutable quiet : int;  (* consecutive below-epsilon iterations *)
  mutable moves : int;
  mutable iterations : int;
  mutable best_solution : Solution.t;
  mutable best : Width_solver.result;
  mutable evaluations : int;
  mutable reported : int;  (* [evaluations] at the last probe event *)
}

let run ?(config = default_config) ?(hooks = Hooks.default) geometry repeater
    ~budget ~initial =
  let net = Geometry.net geometry in
  let length = Geometry.total_length geometry in
  let positions = Array.of_list (Solution.positions initial) in
  let probe = hooks.Hooks.probe in
  let solve ?warm () =
    Width_solver.solve ?warm geometry repeater ~positions ~budget
  in
  match solve () with
  | None -> None
  | Some first ->
      let st =
        { current = first; step = config.move_step; quiet = 0; moves = 0;
          iterations = 0;
          best_solution = solution_of positions first.Width_solver.widths;
          best = first; evaluations = first.Width_solver.evaluations;
          reported = 0 }
      in
      let min_step = config.move_step /. 10.0 in
      let finished = ref (Array.length positions = 0) in
      let converged = ref !finished in
      while not !finished do
        (* Iteration-granularity cancellation poll. *)
        hooks.Hooks.cancel ();
        if st.iterations >= config.max_iterations then finished := true
        else begin
          st.iterations <- st.iterations + 1;
          let derivatives =
            Movement.location_derivatives geometry repeater ~positions
              ~widths:st.current.Width_solver.widths
          in
          let directions =
            Array.map
              (Movement.preferred_direction
                 ~lambda:st.current.Width_solver.lambda)
              derivatives
          in
          let saved = Array.copy positions in
          let moved =
            apply_moves config net length st.step positions directions
          in
          (if moved = 0 then begin
            converged := true;
            finished := true
          end
          else begin
            st.moves <- st.moves + moved;
            match solve ~warm:st.current () with
            | None ->
                (* The move round broke feasibility: revert and stop. *)
                Array.blit saved 0 positions 0 (Array.length saved);
                finished := true
            | Some next ->
                st.evaluations <-
                  st.evaluations + next.Width_solver.evaluations;
                let gain =
                  (st.current.Width_solver.total_width
                  -. next.Width_solver.total_width)
                  /. st.current.Width_solver.total_width
                in
                if gain < 0.0 then begin
                  (* Overshoot: revert the round and walk finer. *)
                  Array.blit saved 0 positions 0 (Array.length saved);
                  st.step <- st.step /. 2.0;
                  if st.step < min_step then begin
                    converged := true;
                    finished := true
                  end
                end
                else begin
                  st.current <- next;
                  if next.Width_solver.total_width
                     < st.best.Width_solver.total_width
                  then begin
                    st.best <- next;
                    st.best_solution <-
                      solution_of positions next.Width_solver.widths
                  end;
                  if gain <= config.epsilon then begin
                    st.quiet <- st.quiet + 1;
                    if st.quiet >= config.patience then begin
                      converged := true;
                      finished := true
                    end
                  end
                  else st.quiet <- 0
                end
          end);
          (* Guarded so the event record is never allocated without a
             listener. *)
          match probe with
          | None -> ()
          | Some f ->
              f
                (Iteration
                   {
                     iteration = st.iterations;
                     moved;
                     total_width = st.current.Width_solver.total_width;
                     evaluations = st.evaluations - st.reported;
                   });
              st.reported <- st.evaluations
        end
      done;
      Some
        {
          solution = st.best_solution;
          lambda = st.best.Width_solver.lambda;
          iterations = st.iterations;
          moves = st.moves;
          initial_total_width = first.Width_solver.total_width;
          total_width = st.best.Width_solver.total_width;
          delay = st.best.Width_solver.delay;
          converged = !converged;
          evaluations = st.evaluations;
        }
