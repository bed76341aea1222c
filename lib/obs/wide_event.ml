(* Wide events: one structured JSON line per request ("canonical log
   lines"), spooled per process with tail sampling.  The schema is
   versioned; every line carries [schema] so offline consumers
   (rip_trace query) can reject lines they do not understand instead
   of misreading them. *)

let schema_version = 1

type t = {
  schema : int;
  process : string;  (* emitting process scope: "router", "s0", ... *)
  trace_id : string;  (* "" when the request was untraced *)
  digest : string;
  shard : string;  (* serving shard id ("" when none was chosen) *)
  outcome : string;
  degrade_reason : string;  (* "" unless outcome = "degraded" *)
  cache : string;  (* "hit" | "miss" | "" *)
  failover : bool;
  spilled : bool;
  labels_pruned : int;
  queue_wait : float;  (* seconds *)
  latency : float;  (* seconds, request wall time at the emitter *)
  deadline_slack : float;  (* seconds left at completion; nan = no deadline *)
}

let empty =
  {
    schema = schema_version;
    process = "";
    trace_id = "";
    digest = "";
    shard = "";
    outcome = "";
    degrade_reason = "";
    cache = "";
    failover = false;
    spilled = false;
    labels_pruned = 0;
    queue_wait = 0.0;
    latency = 0.0;
    deadline_slack = Float.nan;
  }

let to_json event =
  Json.Obj
    [
      ("schema", Json.Int event.schema);
      ("process", Json.String event.process);
      ("trace_id", Json.String event.trace_id);
      ("digest", Json.String event.digest);
      ("shard", Json.String event.shard);
      ("outcome", Json.String event.outcome);
      ("degrade_reason", Json.String event.degrade_reason);
      ("cache", Json.String event.cache);
      ("failover", Json.Bool event.failover);
      ("spilled", Json.Bool event.spilled);
      ("labels_pruned", Json.Int event.labels_pruned);
      ("queue_wait", Json.Float event.queue_wait);
      ("latency", Json.Float event.latency);
      ("deadline_slack", Json.Float event.deadline_slack);
    ]

let to_line event = Json.to_string (to_json event)

let of_line line =
  match Json.parse line with
  | Error e -> Error e
  | Ok json -> (
      let str key fallback =
        match Option.bind (Json.member key json) Json.string_value with
        | Some s -> s
        | None -> fallback
      in
      let flag key =
        match Option.bind (Json.member key json) Json.bool_value with
        | Some b -> b
        | None -> false
      in
      let num key fallback =
        match Option.bind (Json.member key json) Json.float_value with
        | Some v -> v
        | None -> fallback
      in
      let int key fallback =
        match Option.bind (Json.member key json) Json.int_value with
        | Some v -> v
        | None -> fallback
      in
      match Option.bind (Json.member "schema" json) Json.int_value with
      | Some schema when schema = schema_version ->
          Ok
            {
              schema;
              process = str "process" "";
              trace_id = str "trace_id" "";
              digest = str "digest" "";
              shard = str "shard" "";
              outcome = str "outcome" "";
              degrade_reason = str "degrade_reason" "";
              cache = str "cache" "";
              failover = flag "failover";
              spilled = flag "spilled";
              labels_pruned = int "labels_pruned" 0;
              queue_wait = num "queue_wait" 0.0;
              latency = num "latency" 0.0;
              deadline_slack = num "deadline_slack" Float.nan;
            }
      | Some schema ->
          Error (Printf.sprintf "unsupported wide-event schema %d" schema)
      | None -> Error "missing wide-event schema")

(* --- Tail sampling ------------------------------------------------------- *)

type sampler = {
  latency_threshold : float;  (* keep everything at or above, seconds *)
  sample_ratio : float;  (* [0,1]: fraction of the boring rest to keep *)
}

let default_sampler = { latency_threshold = 0.1; sample_ratio = 0.05 }
let keep_all = { latency_threshold = 0.0; sample_ratio = 1.0 }

(* The tail-sampling contract: anything anomalous is kept at 100% so
   offline counts of errors / timeouts / degradations / failovers are
   exact, not estimates. *)
let interesting event =
  (match event.outcome with
  | "fresh" | "cached" -> false
  | _ -> true)
  || event.failover || event.spilled

(* Deterministic [0,1) from the event identity — no wall clock, no
   PRNG state, so a replayed workload samples identically. *)
let hash01 event =
  let hex =
    String.sub
      (Digest.to_hex (Digest.string (event.trace_id ^ "\x00" ^ event.digest)))
      0 12
  in
  float_of_string ("0x" ^ hex) /. 16777216.0 /. 16777216.0 /. 16.0

let keep sampler event =
  interesting event
  || event.latency >= sampler.latency_threshold
  || sampler.sample_ratio >= 1.0
  || hash01 event < sampler.sample_ratio

(* --- The bounded spool --------------------------------------------------- *)

type spool = {
  path : string;
  max_bytes : int;
  sampler : sampler;
  mutex : Mutex.t;
  mutable channel : out_channel option;
  mutable bytes : int;
  mutable written : int;
  mutable sampled_out : int;
}

let default_max_bytes = 4 * 1024 * 1024

let create ?(max_bytes = default_max_bytes) ?(sampler = default_sampler) path =
  if max_bytes < 4096 then
    invalid_arg "Wide_event.create: max_bytes must be at least 4096";
  if not (sampler.sample_ratio >= 0.0 && sampler.sample_ratio <= 1.0) then
    invalid_arg "Wide_event.create: sample_ratio outside [0,1]";
  if not (sampler.latency_threshold >= 0.0) then
    invalid_arg "Wide_event.create: negative latency_threshold";
  {
    path;
    max_bytes;
    sampler;
    mutex = Mutex.create ();
    channel = Some (open_out path);
    bytes = 0;
    written = 0;
    sampled_out = 0;
  }

let path spool = spool.path
let written spool = spool.written
let sampled_out spool = spool.sampled_out

(* Rotation keeps on-disk usage bounded at ~2x max_bytes: the filled
   spool becomes [path.1] (clobbering the previous generation) and a
   fresh file takes over.  Anomalous events older than two generations
   are gone — a spool is a flight recorder, not an archive. *)
let rotate_locked spool channel =
  close_out channel;
  (try Sys.rename spool.path (spool.path ^ ".1") with Sys_error _ -> ());
  let channel = open_out spool.path in
  spool.channel <- Some channel;
  spool.bytes <- 0;
  channel

let emit spool event =
  if keep spool.sampler event then begin
    let line = to_line event in
    Mutex.lock spool.mutex;
    (match spool.channel with
    | None -> ()
    | Some channel ->
        let channel =
          if spool.bytes + String.length line + 1 > spool.max_bytes then
            rotate_locked spool channel
          else channel
        in
        output_string channel line;
        output_char channel '\n';
        flush channel;
        spool.bytes <- spool.bytes + String.length line + 1;
        spool.written <- spool.written + 1);
    Mutex.unlock spool.mutex
  end
  else begin
    Mutex.lock spool.mutex;
    spool.sampled_out <- spool.sampled_out + 1;
    Mutex.unlock spool.mutex
  end

let close spool =
  Mutex.lock spool.mutex;
  (match spool.channel with
  | Some channel ->
      close_out channel;
      spool.channel <- None
  | None -> ());
  Mutex.unlock spool.mutex

(* --- Offline loading ----------------------------------------------------- *)

let load_file path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec loop acc =
            match input_line ic with
            | exception End_of_file -> List.rev acc
            | line -> (
                match of_line line with
                | Ok event -> loop (event :: acc)
                | Error _ -> loop acc  (* torn tail / foreign line *))
          in
          loop [])

let load_files paths = List.concat_map load_file paths
