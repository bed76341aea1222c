type t = {
  z_start : float;
  z_end : float;
}

let create ~z_start ~z_end =
  if z_start < 0.0 then invalid_arg "Zone.create: negative start";
  if z_end <= z_start then invalid_arg "Zone.create: end must exceed start";
  { z_start; z_end }

let length z = z.z_end -. z.z_start
let contains z x = x > z.z_start && x < z.z_end

let normalize zones =
  let sorted =
    List.sort (fun a b -> Float.compare a.z_start b.z_start) zones
  in
  let merge acc z =
    match acc with
    | [] -> [ z ]
    | prev :: rest ->
        if z.z_start <= prev.z_end then
          { prev with z_end = Float.max prev.z_end z.z_end } :: rest
        else z :: acc
  in
  List.rev (List.fold_left merge [] sorted)

let blocked zones x = List.exists (fun z -> contains z x) zones

let first_allowed_at_or_after zones x =
  List.fold_left (fun pos z -> if contains z pos then z.z_end else pos) x zones

let last_allowed_at_or_before zones x =
  (* Walk right-to-left so a cascade of touching zones resolves fully. *)
  List.fold_left
    (fun pos z -> if contains z pos then z.z_start else pos)
    x (List.rev zones)

let equal a b = a.z_start = b.z_start && a.z_end = b.z_end
let pp ppf z = Fmt.pf ppf "(%g, %g)" z.z_start z.z_end
