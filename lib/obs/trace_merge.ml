(* Merge per-process Chrome-trace dumps into one cross-process
   timeline.  Each dump's [ripMeta] (written by Trace.to_chrome_json)
   carries the tracer's scope, pid and epoch; epochs are instants on
   the machine-wide CLOCK_MONOTONIC timebase, so rebasing every dump
   onto the earliest epoch aligns the processes without any wall
   clock.  Span ids are already collision-free across processes
   (Trace.scoped_span_id mixes the scope into the hash), so events can
   be concatenated and grouped by the [trace_id] arg alone. *)

type dump = {
  label : string;
  pid : int;
  epoch_us : float;
  events : Json.t list;  (* the raw traceEvents objects *)
}

let parse ?label text =
  match Json.parse text with
  | Error e -> Error (Printf.sprintf "bad trace JSON: %s" e)
  | Ok json -> (
      match Option.bind (Json.member "traceEvents" json) Json.list_value with
      | None -> Error "no traceEvents array"
      | Some events ->
          let meta = Json.member "ripMeta" json in
          let meta_str key =
            Option.bind meta (fun m ->
                Option.bind (Json.member key m) Json.string_value)
          in
          let meta_num key =
            Option.bind meta (fun m ->
                Option.bind (Json.member key m) Json.float_value)
          in
          let scope = Option.value (meta_str "scope") ~default:"" in
          let label =
            match label with
            | Some l -> l
            | None -> if scope = "" then "process" else scope
          in
          Ok
            {
              label;
              pid =
                (match
                   Option.bind meta (fun m ->
                       Option.bind (Json.member "pid" m) Json.int_value)
                 with
                | Some pid -> pid
                | None -> 0);
              epoch_us = Option.value (meta_num "epoch_us") ~default:0.0;
              events;
            })

let load_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let text = really_input_string ic (in_channel_length ic) in
          parse ~label:(Filename.remove_extension (Filename.basename path))
            text)

(* --- Merging ------------------------------------------------------------- *)

let set_field key value fields =
  (key, value) :: List.filter (fun (k, _) -> not (String.equal k key)) fields

let merge dumps =
  let base_epoch =
    List.fold_left
      (fun acc d -> Float.min acc d.epoch_us)
      Float.infinity dumps
  in
  let base_epoch = if Float.is_finite base_epoch then base_epoch else 0.0 in
  (* Distinct processes must land on distinct Chrome pids even when the
     dumps carry none (pid 0) or collide; remap by dump index then. *)
  let pids = List.map (fun d -> d.pid) dumps in
  let collide =
    List.exists (fun p -> p = 0) pids
    || List.length (List.sort_uniq Int.compare pids) < List.length pids
  in
  let events =
    List.concat
      (List.mapi
         (fun index d ->
           let pid = if collide then index + 1 else d.pid in
           let shift = d.epoch_us -. base_epoch in
           let name_meta =
             Json.Obj
               [
                 ("name", Json.String "process_name");
                 ("ph", Json.String "M");
                 ("pid", Json.Int pid);
                 ("tid", Json.Int 0);
                 ("args", Json.Obj [ ("name", Json.String d.label) ]);
               ]
           in
           name_meta
           :: List.filter_map
                (fun event ->
                  match event with
                  | Json.Obj fields ->
                      (* Drop per-dump metadata (re-emitted above) and
                         rebase/rebadge the real events. *)
                      let ph =
                        Option.bind (Json.member "ph" event) Json.string_value
                      in
                      if
                        (match ph with Some "M" -> true | _ -> false)
                      then None
                      else
                        let fields =
                          match
                            Option.bind (Json.member "ts" event)
                              Json.float_value
                          with
                          | Some ts ->
                              set_field "ts" (Json.Float (ts +. shift)) fields
                          | None -> fields
                        in
                        Some (Json.Obj (set_field "pid" (Json.Int pid) fields))
                  | _ -> None)
                d.events)
         dumps)
  in
  Json.to_string
    (Json.Obj
       [
         ("displayTimeUnit", Json.String "ms");
         ("traceEvents", Json.List events);
       ])
  ^ "\n"

let merge_files paths =
  let rec load acc = function
    | [] -> Ok (List.rev acc)
    | path :: rest -> (
        match load_file path with
        | Ok dump -> load (dump :: acc) rest
        | Error e -> Error (Printf.sprintf "%s: %s" path e))
  in
  match load [] paths with
  | Error e -> Error e
  | Ok dumps -> Ok (merge dumps)

(* --- Cross-process trace inspection -------------------------------------- *)

type trace_span = {
  span_process : string;
  span_name : string;
  span_cat : string;
  span_args : (string * string) list;
}

let event_arg key event =
  Option.bind (Json.member "args" event) (fun args ->
      Option.bind (Json.member key args) Json.string_value)

let traces dumps =
  let table : (string, trace_span list ref) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun d ->
      List.iter
        (fun event ->
          match event_arg "trace_id" event with
          | None -> ()
          | Some trace_id ->
              let bucket =
                match Hashtbl.find_opt table trace_id with
                | Some b -> b
                | None ->
                    let b = ref [] in
                    Hashtbl.add table trace_id b;
                    order := trace_id :: !order;
                    b
              in
              let str key =
                Option.value
                  (Option.bind (Json.member key event) Json.string_value)
                  ~default:""
              in
              let span_args =
                match Json.member "args" event with
                | Some (Json.Obj fields) ->
                    List.filter_map
                      (fun (k, v) ->
                        Option.map (fun s -> (k, s)) (Json.string_value v))
                      fields
                | _ -> []
              in
              bucket :=
                {
                  span_process = d.label;
                  span_name = str "name";
                  span_cat = str "cat";
                  span_args;
                }
                :: !bucket)
        d.events)
    dumps;
  List.rev !order
  |> List.map (fun trace_id ->
         match Hashtbl.find_opt table trace_id with
         | Some bucket -> (trace_id, List.rev !bucket)
         | None -> (trace_id, []))

let is_forward span =
  String.equal span.span_cat "router"
  && String.starts_with ~prefix:"forward:" span.span_name
  && String.length span.span_name > 8

let analyse spans =
  let forwards = List.filter is_forward spans in
  let targets =
    List.sort_uniq String.compare (List.map (fun s -> s.span_name) forwards)
  in
  let arg name span = List.assoc_opt name span.span_args in
  let linked =
    List.exists
      (fun span ->
        (not (is_forward span))
        && List.exists
             (fun fwd ->
               (not (String.equal fwd.span_process span.span_process))
               &&
               match (arg "span_id" fwd, arg "parent_span_id" span) with
               | Some fid, Some pid -> String.equal fid pid
               | _ -> false)
             forwards)
      spans
  in
  (List.length targets, linked)
