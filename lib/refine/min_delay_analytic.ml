module Geometry = Rip_net.Geometry
module Net = Rip_net.Net
module Zone = Rip_net.Zone
module Solution = Rip_elmore.Solution

type result = {
  solution : Solution.t;
  delay : float;
  repeater_count : int;
}

let min_gap = 1.0

(* Evenly spread n positions, pushed out of forbidden zones (to the nearer
   edge, or to the other one when the nearer edge lies within [min_gap] of
   a pin — a zone may start at the driver or end at the receiver) and
   re-ordered with a minimum gap.  None when they cannot fit. *)
let initial_positions net length n =
  let zones = net.Net.zones in
  let interior x = x > min_gap && x < length -. min_gap in
  let snap x =
    match List.find_opt (fun z -> Zone.contains z x) zones with
    | None -> x
    | Some z ->
        let near_start = x -. z.Zone.z_start <= z.Zone.z_end -. x in
        if (near_start && interior z.Zone.z_start)
           || not (interior z.Zone.z_end)
        then z.Zone.z_start
        else z.Zone.z_end
  in
  let raw =
    Array.init n (fun i ->
        snap (length *. float_of_int (i + 1) /. float_of_int (n + 1)))
  in
  let ok = ref true in
  for i = 0 to n - 1 do
    if i > 0 && raw.(i) <= raw.(i - 1) +. min_gap then
      raw.(i) <- raw.(i - 1) +. min_gap;
    if Zone.blocked zones raw.(i) then
      raw.(i) <- Zone.first_allowed_at_or_after zones raw.(i);
    if raw.(i) >= length -. min_gap then ok := false
  done;
  if !ok then Some raw else None

let delay_at geometry repeater ~min_width ~max_width positions =
  let widths =
    Width_solver.min_delay_sizing_bounded geometry repeater ~positions
      ~min_width ~max_width
  in
  (widths, Width_solver.tau_total geometry repeater ~positions ~widths)

(* Descend on locations for a fixed count: derivative-guided rounds with
   revert-and-halve backtracking on the true delay. *)
let optimise_positions geometry repeater net length ~min_width ~max_width
    ~step positions =
  let current = ref (delay_at geometry repeater ~min_width ~max_width positions)
  in
  let step = ref step in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < 200 do
    incr rounds;
    let widths, _ = !current in
    let derivatives =
      Movement.location_derivatives geometry repeater ~positions ~widths
    in
    let saved = Array.copy positions in
    let moved = ref 0 in
    Array.iteri
      (fun i d ->
        let target =
          match Movement.preferred_direction ~lambda:1.0 d with
          | Movement.Stay -> positions.(i)
          | Movement.Downstream -> positions.(i) +. !step
          | Movement.Upstream -> positions.(i) -. !step
        in
        if target <> positions.(i) then begin
          let lo =
            if i = 0 then min_gap else positions.(i - 1) +. min_gap
          in
          let hi =
            if i = Array.length positions - 1 then length -. min_gap
            else positions.(i + 1) -. min_gap
          in
          let clamped = Float.max lo (Float.min hi target) in
          if clamped <> positions.(i) && Net.position_legal net clamped
          then begin
            positions.(i) <- clamped;
            incr moved
          end
        end)
      derivatives;
    if !moved = 0 then continue_ := false
    else begin
      let next = delay_at geometry repeater ~min_width ~max_width positions in
      if snd next < snd !current then current := next
      else begin
        Array.blit saved 0 positions 0 (Array.length saved);
        step := !step /. 2.0;
        if !step < 2.0 then continue_ := false
      end
    end
  done;
  !current

let solve ?max_repeaters ?(min_width = 10.0) ?(max_width = 400.0)
    ?(step = 100.0) geometry repeater =
  let net = Geometry.net geometry in
  let length = Geometry.total_length geometry in
  let max_repeaters =
    match max_repeaters with
    | Some n -> n
    | None -> Stdlib.max 4 (int_of_float (length /. 1000.0))
  in
  let bare_delay =
    Width_solver.tau_total geometry repeater ~positions:[||] ~widths:[||]
  in
  let best =
    ref { solution = Solution.empty; delay = bare_delay; repeater_count = 0 }
  in
  let misses = ref 0 in
  let n = ref 1 in
  while !n <= max_repeaters && !misses < 3 do
    (match initial_positions net length !n with
    | None -> incr misses
    | Some positions ->
        let widths, delay =
          optimise_positions geometry repeater net length ~min_width
            ~max_width ~step positions
        in
        if delay < !best.delay then begin
          best :=
            {
              solution =
                Solution.create
                  (List.combine (Array.to_list positions)
                     (Array.to_list widths));
              delay;
              repeater_count = !n;
            };
          misses := 0
        end
        else incr misses);
    incr n
  done;
  !best

let tau_min ?max_repeaters ?min_width ?max_width geometry repeater =
  (solve ?max_repeaters ?min_width ?max_width geometry repeater).delay
