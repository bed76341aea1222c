type t = float array

let equal_tolerance = 1e-9

let create widths =
  (match widths with
  | [] -> invalid_arg "Repeater_library.create: empty library"
  | _ :: _ -> ());
  List.iter
    (fun w ->
      if w <= 0.0 then
        invalid_arg "Repeater_library.create: widths must be positive")
    widths;
  let sorted = List.sort_uniq Float.compare widths in
  let dedup acc w =
    match acc with
    | prev :: _ when Float.abs (w -. prev) <= equal_tolerance -> acc
    | _ -> w :: acc
  in
  Array.of_list (List.rev (List.fold_left dedup [] sorted))

let uniform ~min_width ~step ~count =
  if count <= 0 then invalid_arg "Repeater_library.uniform: count <= 0";
  if step <= 0.0 then invalid_arg "Repeater_library.uniform: step <= 0";
  create (List.init count (fun k -> min_width +. (float_of_int k *. step)))

let range ~min_width ~max_width ~step =
  if max_width < min_width then
    invalid_arg "Repeater_library.range: max below min";
  if step <= 0.0 then invalid_arg "Repeater_library.range: step <= 0";
  let count = int_of_float ((max_width -. min_width) /. step) + 1 in
  create (List.init count (fun k -> min_width +. (float_of_int k *. step)))

let round_to_grid ~granularity ~min_width ~max_width widths =
  if granularity <= 0.0 then
    invalid_arg "Repeater_library.round_to_grid: granularity <= 0";
  let clamp w = Float.max min_width (Float.min max_width w) in
  let snap w = Float.round (w /. granularity) *. granularity in
  let candidates =
    List.concat_map
      (fun w ->
        let s = snap w in
        [ clamp s; clamp (s -. granularity); clamp (s +. granularity) ])
      widths
  in
  match List.filter (fun w -> w > 0.0) candidates with
  | [] -> invalid_arg "Repeater_library.round_to_grid: no positive widths"
  | candidates -> create candidates

let round_up t w = Array.find_opt (fun x -> x >= w) t

let widths t = Array.to_list t
let to_array t = t
let size = Array.length
let min_width t = t.(0)
let max_width t = t.(Array.length t - 1)

let mem t w =
  Array.exists (fun x -> Float.abs (x -. w) <= equal_tolerance) t

(* The separator holds no break hint, so a library never wraps the line
   it is printed on. *)
let pp ppf t =
  Fmt.pf ppf "{%a}u" Fmt.(array ~sep:(any ", ") float) t
