module Cpu_clock = Rip_numerics.Cpu_clock

type span = {
  name : string;
  cat : string;
  start : float;  (* seconds since tracer epoch *)
  duration : float;
  tid : int;
  args : (string * string) list;
}

type t = {
  epoch : float;
  scope : string;
  pid : int;
  mutex : Mutex.t;  (* guards the buffer table, not the buffers *)
  buffers : (int, span list ref) Hashtbl.t;  (* Thread.id -> own buffer *)
}

let create ?(scope = "") ?(pid = 0) () =
  {
    epoch = Cpu_clock.monotonic_seconds ();
    scope;
    pid;
    mutex = Mutex.create ();
    buffers = Hashtbl.create 8;
  }

let scope t = t.scope
let epoch t = t.epoch

(* Each buffer is only ever pushed by its owning thread; the mutex is
   held just long enough to find or create the ref, because a Hashtbl
   read racing another thread's [add] is unsafe under OCaml 5. *)
let buffer_for t tid =
  Mutex.lock t.mutex;
  let buf =
    match Hashtbl.find_opt t.buffers tid with
    | Some b -> b
    | None ->
        let b = ref [] in
        Hashtbl.add t.buffers tid b;
        b
  in
  Mutex.unlock t.mutex;
  buf

let record t span =
  let buf = buffer_for t span.tid in
  buf := span :: !buf

let begin_span t ?(cat = "rip") ?(args = []) name =
  let tid = Thread.id (Thread.self ()) in
  let start = Cpu_clock.monotonic_seconds () in
  let ended = ref false in
  fun () ->
    if not !ended then begin
      ended := true;
      let stop = Cpu_clock.monotonic_seconds () in
      record t
        {
          name;
          cat;
          start = start -. t.epoch;
          duration = Float.max 0.0 (stop -. start);
          tid;
          args;
        }
    end

let nop () = ()

let begin_opt t ?cat ?args name =
  match t with
  | None -> nop
  | Some t -> begin_span t ?cat ?args name

let span t ?cat ?args name f =
  match t with
  | None -> f ()
  | Some t ->
      let finish = begin_span t ?cat ?args name in
      Fun.protect ~finally:finish f

(* The legacy formula (no scope) is kept bit-for-bit so single-process
   traces of the same workload still diff cleanly across releases; a
   non-empty scope keys the hash so two shards solving the same digest
   no longer collide in a merged timeline. *)
let span_id ?(scope = "") ~digest name =
  let base = digest ^ "/" ^ name in
  let keyed = if scope = "" then base else scope ^ "\x00" ^ base in
  String.sub (Digest.to_hex (Digest.string keyed)) 0 16

let scoped_span_id t ~digest name = span_id ~scope:t.scope ~digest name

(* --- Trace context (the TRACE protocol header) -------------------------- *)

type context = {
  trace_id : string;  (* 32 hex chars *)
  parent_span_id : string;  (* 16 hex chars *)
  flags : int;  (* 0..255; bit 0 = sampled *)
}

let root_span_id = String.make 16 '0'

let is_hex s =
  s <> ""
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
       s

let valid_context c =
  String.length c.trace_id = 32
  && is_hex c.trace_id
  && String.length c.parent_span_id = 16
  && is_hex c.parent_span_id
  && c.flags >= 0 && c.flags <= 255

let make_context ?(scope = "") ~digest ~seq () =
  {
    trace_id =
      Digest.to_hex
        (Digest.string (Printf.sprintf "trace/%s/%s/%d" scope digest seq));
    parent_span_id = root_span_id;
    flags = 1;
  }

let context_of_tokens ~trace_id ~parent_span_id ~flags =
  match int_of_string_opt flags with
  | None -> None
  | Some flags ->
      let c = { trace_id; parent_span_id; flags } in
      if valid_context c then Some c else None

let child context ~span_id = { context with parent_span_id = span_id }

let context_args c =
  [ ("trace_id", c.trace_id); ("parent_span_id", c.parent_span_id) ]

let context_equal a b =
  String.equal a.trace_id b.trace_id
  && String.equal a.parent_span_id b.parent_span_id
  && a.flags = b.flags

(* --- Dumping ------------------------------------------------------------ *)

let spans t =
  (* Reading a buffer owned by a still-running thread sees some prefix
     of its spans — fine for a count or a dump-at-exit.  The Hashtbl
     traversal lives inside the sort argument, so its hash order never
     escapes. *)
  List.sort
    (fun a b ->
      match Int.compare a.tid b.tid with
      | 0 -> Float.compare a.start b.start
      | c -> c)
    (let buffers =
       Mutex.lock t.mutex;
       let bs = Hashtbl.fold (fun _ buf acc -> buf :: acc) t.buffers [] in
       Mutex.unlock t.mutex;
       bs
     in
     List.concat_map (fun buf -> List.rev !buf) buffers)

let span_count t = List.length (spans t)

let to_chrome_json t =
  let buffer = Buffer.create 4096 in
  (* ripMeta carries what a cross-process merge needs: the scope that
     keys this process's span ids and the tracer epoch on the shared
     CLOCK_MONOTONIC timebase, so per-process dumps can be rebased onto
     one timeline.  Chrome/Perfetto ignore unknown top-level keys. *)
  Buffer.add_string buffer
    (Printf.sprintf
       "{\"displayTimeUnit\":\"ms\",\"ripMeta\":{\"scope\":\"%s\",\"pid\":%d,\"epoch_us\":%.3f},\"traceEvents\":["
       (Json.escape t.scope) t.pid (t.epoch *. 1e6));
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buffer ','
  in
  if t.scope <> "" then begin
    sep ();
    Buffer.add_string buffer
      (Printf.sprintf
         "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
         t.pid (Json.escape t.scope))
  end;
  List.iter
    (fun s ->
      sep ();
      Buffer.add_string buffer
        (Printf.sprintf
           "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d"
           (Json.escape s.name) (Json.escape s.cat) (s.start *. 1e6)
           (s.duration *. 1e6) t.pid s.tid);
      (match s.args with
      | [] -> ()
      | args ->
          Buffer.add_string buffer ",\"args\":{";
          List.iteri
            (fun j (k, v) ->
              if j > 0 then Buffer.add_char buffer ',';
              Buffer.add_string buffer
                (Printf.sprintf "\"%s\":\"%s\"" (Json.escape k)
                   (Json.escape v)))
            args;
          Buffer.add_char buffer '}');
      Buffer.add_char buffer '}')
    (spans t);
  Buffer.add_string buffer "\n]}\n";
  Buffer.contents buffer

let dump_to_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json t))

let installed : t option Atomic.t = Atomic.make None
let set_global t = Atomic.set installed t
let global () = Atomic.get installed
