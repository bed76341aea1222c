let femto = 1e-15

type accumulator = {
  mutable name : string;
  mutable driver : float option;
  mutable receiver : float option;
  mutable segments_rev : Segment.t list;
  mutable zones_rev : Zone.t list;
}

let fresh () =
  { name = "net"; driver = None; receiver = None; segments_rev = [];
    zones_rev = [] }

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

let tokens line =
  strip_comment line |> String.split_on_char ' '
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse_float lineno what s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "line %d: bad %s %S" lineno what s)

let ( let* ) = Result.bind

let parse_line acc lineno line =
  match tokens line with
  | [] -> Ok ()
  | [ "net"; name ] ->
      acc.name <- name;
      Ok ()
  | [ "driver"; w ] ->
      let* w = parse_float lineno "driver width" w in
      acc.driver <- Some w;
      Ok ()
  | [ "receiver"; w ] ->
      let* w = parse_float lineno "receiver width" w in
      acc.receiver <- Some w;
      Ok ()
  | "segment" :: length :: r :: c :: rest ->
      let* length = parse_float lineno "segment length" length in
      let* r = parse_float lineno "segment resistance" r in
      let* c = parse_float lineno "segment capacitance" c in
      let layer_name =
        match rest with
        | [] -> "custom"
        | [ name ] -> name
        | _ -> "custom"
      in
      (match
         Segment.create ~layer_name ~length ~resistance_per_um:r
           ~capacitance_per_um:(c *. femto) ()
       with
      | seg ->
          acc.segments_rev <- seg :: acc.segments_rev;
          Ok ()
      | exception Invalid_argument msg ->
          Error (Printf.sprintf "line %d: %s" lineno msg))
  | [ "zone"; zs; ze ] ->
      let* zs = parse_float lineno "zone start" zs in
      let* ze = parse_float lineno "zone end" ze in
      (match Zone.create ~z_start:zs ~z_end:ze with
      | z ->
          acc.zones_rev <- z :: acc.zones_rev;
          Ok ()
      | exception Invalid_argument msg ->
          Error (Printf.sprintf "line %d: %s" lineno msg))
  | word :: _ -> Error (Printf.sprintf "line %d: unknown directive %S" lineno word)

let parse_lines lines =
  let acc = fresh () in
  let rec feed lineno = function
    | [] -> Ok ()
    | line :: rest -> (
        match parse_line acc lineno line with
        | Ok () -> feed (lineno + 1) rest
        | Error _ as e -> e)
  in
  let* () = feed 1 lines in
  match (acc.driver, acc.receiver, List.rev acc.segments_rev) with
  | None, _, _ -> Error "missing 'driver' line"
  | _, None, _ -> Error "missing 'receiver' line"
  | _, _, [] -> Error "no 'segment' lines"
  | Some driver_width, Some receiver_width, segments -> (
      match
        Net.create ~name:acc.name ~segments ~zones:(List.rev acc.zones_rev)
          ~driver_width ~receiver_width ()
      with
      | net -> Ok net
      | exception Invalid_argument msg -> Error msg)

let parse_string body = parse_lines (String.split_on_char '\n' body)

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | body -> parse_string body
  | exception Sys_error msg -> Error msg

let to_string (net : Net.t) =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (Printf.sprintf "net %s\n" net.name);
  Buffer.add_string buffer (Printf.sprintf "driver %.17g\n" net.driver_width);
  Buffer.add_string buffer
    (Printf.sprintf "receiver %.17g\n" net.receiver_width);
  Array.iter
    (fun (s : Segment.t) ->
      Buffer.add_string buffer
        (Printf.sprintf "segment %.17g %.17g %.17g %s\n" s.length
           s.resistance_per_um
           (s.capacitance_per_um /. femto)
           s.layer_name))
    net.segments;
  List.iter
    (fun (z : Zone.t) ->
      Buffer.add_string buffer
        (Printf.sprintf "zone %.17g %.17g\n" z.z_start z.z_end))
    net.zones;
  Buffer.contents buffer

let write_file path net =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string net))
