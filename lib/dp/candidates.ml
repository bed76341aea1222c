module Net = Rip_net.Net

let position_tolerance = 1e-6

let sanitize net positions =
  let length = Net.total_length net in
  let inside =
    List.filter
      (fun x ->
        x > position_tolerance
        && x < length -. position_tolerance
        && Net.position_legal net x)
      positions
  in
  let sorted = List.sort Float.compare inside in
  let dedup acc x =
    match acc with
    | prev :: _ when x -. prev <= position_tolerance -> acc
    | _ -> x :: acc
  in
  List.rev (List.fold_left dedup [] sorted)

let uniform net ~pitch =
  if pitch <= 0.0 then invalid_arg "Candidates.uniform: pitch <= 0";
  let length = Net.total_length net in
  let count = int_of_float (Float.floor (length /. pitch)) in
  sanitize net (List.init count (fun k -> float_of_int (k + 1) *. pitch))

let around net ~centers ~radius ~pitch =
  if pitch <= 0.0 then invalid_arg "Candidates.around: pitch <= 0";
  if radius < 0 then invalid_arg "Candidates.around: negative radius";
  let offsets =
    List.init ((2 * radius) + 1) (fun k -> float_of_int (k - radius) *. pitch)
  in
  sanitize net
    (List.concat_map (fun c -> List.map (fun o -> c +. o) offsets) centers)
