type outcome =
  | Root of float
  | No_sign_change of float * float

let opposite_signs u v = (u <= 0.0 && v >= 0.0) || (u >= 0.0 && v <= 0.0)

(* The bracket with its end values, so the root finder never evaluates
   an end twice. *)
let expand ~f ~lo ~hi ~max_expansions =
  let rec loop lo hi flo fhi k =
    if opposite_signs flo fhi then Some (lo, hi, flo, fhi)
    else if k >= max_expansions then None
    else
      let lo' = lo /. 4.0 and hi' = hi *. 4.0 in
      loop lo' hi' (f lo') (f hi') (k + 1)
  in
  if hi <= lo then invalid_arg "Bracket.expand_bracket: hi <= lo";
  loop lo hi (f lo) (f hi) 0

let expand_bracket ~f ~lo ~hi ~max_expansions =
  Option.map
    (fun (lo, hi, _, _) -> (lo, hi))
    (expand ~f ~lo ~hi ~max_expansions)

type kept = Neither | Lo | Hi

(* Illinois regula falsi: the false-position step, except that an end
   kept twice in a row has its value halved, which pulls the next step
   across the root.  Plain regula falsi keeps one end of a convex or
   concave function for good, so the bracket then shrinks only from the
   other side; halving restores superlinear convergence while every step
   stays inside the bracket.  A step the rounding puts on or outside an
   end is replaced by the midpoint. *)
let illinois ~f ~lo ~hi ~flo ~fhi ~tol ~max_iter =
  let rec loop lo hi flo fhi kept k =
    let width = hi -. lo in
    let scale =
      Float.max Float.min_float (Float.max (Float.abs lo) (Float.abs hi))
    in
    if width <= tol *. scale || k >= max_iter then 0.5 *. (lo +. hi)
    else
      let falsi = lo -. (flo *. width /. (fhi -. flo)) in
      let x = if falsi > lo && falsi < hi then falsi else 0.5 *. (lo +. hi) in
      let fx = f x in
      if fx = 0.0 then x
      else if opposite_signs flo fx then
        let flo = if kept = Lo then 0.5 *. flo else flo in
        loop lo x flo fx Lo (k + 1)
      else
        let fhi = if kept = Hi then 0.5 *. fhi else fhi in
        loop x hi fx fhi Hi (k + 1)
  in
  if flo = 0.0 then lo
  else if fhi = 0.0 then hi
  else loop lo hi flo fhi Neither 0

let bisect ~f ~lo ~hi ~tol ~max_iter =
  let flo = f lo and fhi = f hi in
  if not (opposite_signs flo fhi) then
    invalid_arg "Bracket.bisect: endpoints do not straddle zero";
  illinois ~f ~lo ~hi ~flo ~fhi ~tol ~max_iter

let find_root_within ~max_expansions ~f ~lo ~hi ~tol =
  match expand ~f ~lo ~hi ~max_expansions with
  | None -> No_sign_change (lo, hi)
  | Some (lo, hi, flo, fhi) ->
      Root (illinois ~f ~lo ~hi ~flo ~fhi ~tol ~max_iter:200)

let find_root = find_root_within ~max_expansions:60
