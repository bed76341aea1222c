type error_kind =
  | Protocol_error
  | Infeasible_budget
  | Invalid_net
  | Internal_error

type solution = {
  repeaters : (float * float) list;
  total_width : float;
  delay : float;
  power_watts : float;
}

type served = Fresh | Cached

type degrade_reason = Deadline_exceeded | Overload | Worker_lost

type stats = {
  shard_id : string;
  uptime_seconds : float;
  requests : int;
  solved : int;
  errors : int;
  rejected_busy : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_size : int;
  cache_capacity : int;
  queue_wait_seconds : float;
  solve_cpu_seconds : float;
  timeouts : int;
  degraded : int;
  toobig : int;
  cache_self_heals : int;
  cache_replayed : int;
  journal_bytes : int;
  journal_compactions : int;
  in_flight : int;
  queue_depth : int;
  queue_wait_p50 : float;
  queue_wait_p95 : float;
  queue_wait_p99 : float;
  solve_p50 : float;
  solve_p95 : float;
  solve_p99 : float;
}

type health = {
  health_shard_id : string;
  health_in_flight : int;
  health_queue_depth : int;
  health_high_water : int;
}

module Trace = Rip_obs.Trace

type request =
  | Ping
  | Stats
  | Metrics
  | Health
  | Shutdown
  | Solve of {
      budget : float;
      deadline_ms : float option;
      trace : Trace.context option;
      net : Rip_net.Net.t;
    }

type response =
  | Pong
  | Bye
  | Busy
  | Timeout
  | Toobig
  | Error_frame of { kind : error_kind; message : string }
  | Result of { served : served; solution : solution }
  | Degraded of { reason : degrade_reason; solution : solution }
  | Stats_frame of stats
  | Metrics_frame of string
      (* Prometheus text exposition, newline-terminated lines *)
  | Health_frame of health

(* --- Printing ------------------------------------------------------------ *)

let error_kind_to_string = function
  | Protocol_error -> "protocol"
  | Infeasible_budget -> "infeasible_budget"
  | Invalid_net -> "invalid_net"
  | Internal_error -> "internal"

let error_kind_of_string = function
  | "protocol" -> Some Protocol_error
  | "infeasible_budget" -> Some Infeasible_budget
  | "invalid_net" -> Some Invalid_net
  | "internal" -> Some Internal_error
  | _ -> None

let one_line message =
  String.concat "; "
    (List.filter
       (fun s -> s <> "")
       (String.split_on_char '\n' (String.map (function '\r' -> '\n' | c -> c) message)))

let served_to_string = function Fresh -> "fresh" | Cached -> "cached"

let degrade_reason_to_string = function
  | Deadline_exceeded -> "deadline"
  | Overload -> "overload"
  | Worker_lost -> "worker-lost"

let degrade_reason_of_string = function
  | "deadline" -> Some Deadline_exceeded
  | "overload" -> Some Overload
  | "worker-lost" -> Some Worker_lost
  | _ -> None

let outcome_of_response = function
  | Result { served; _ } -> (served_to_string served, "")
  | Degraded { reason; _ } -> ("degraded", degrade_reason_to_string reason)
  | Timeout -> ("timeout", "")
  | Busy -> ("busy", "")
  | _ -> ("error", "")

let outcomes = [ "fresh"; "cached"; "degraded"; "timeout"; "busy"; "error" ]

(* A shard id travels on single-line frames (HEALTHY, STATS body), so it
   must be one whitespace-free token.  Enforced here once, for servers
   and routers alike. *)
let valid_shard_id id =
  id <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       id

let print_request = function
  | Ping -> "PING\n"
  | Stats -> "STATS\n"
  | Metrics -> "METRICS\n"
  | Health -> "HEALTH\n"
  | Shutdown -> "SHUTDOWN\n"
  | Solve { budget; deadline_ms; trace; net } ->
      let deadline =
        match deadline_ms with
        | None -> ""
        | Some ms -> Printf.sprintf " DEADLINE %.17g" ms
      in
      let traced =
        match trace with
        | None -> ""
        | Some c ->
            Printf.sprintf " TRACE %s %s %d" c.Trace.trace_id
              c.Trace.parent_span_id c.Trace.flags
      in
      Printf.sprintf "SOLVE %.17g%s%s\n%sEND\n" budget deadline traced
        (Rip_net.Net_io.to_string net)

let solution_body solution =
  let buffer = Buffer.create 128 in
  List.iter
    (fun (position, width) ->
      Buffer.add_string buffer
        (Printf.sprintf "repeater %.17g %.17g\n" position width))
    solution.repeaters;
  Buffer.add_string buffer (Printf.sprintf "width %.17g\n" solution.total_width);
  Buffer.add_string buffer (Printf.sprintf "delay %.17g\n" solution.delay);
  Buffer.add_string buffer (Printf.sprintf "power %.17g\n" solution.power_watts);
  Buffer.contents buffer

(* Field order is the wire order of a STATS frame; the parser accepts any
   order but the printer is canonical so STATS frames round-trip bytewise. *)
let stats_fields stats =
  [
    ("shard_id", stats.shard_id);
    ("uptime_seconds", Printf.sprintf "%.17g" stats.uptime_seconds);
    ("requests", string_of_int stats.requests);
    ("solved", string_of_int stats.solved);
    ("errors", string_of_int stats.errors);
    ("rejected_busy", string_of_int stats.rejected_busy);
    ("cache_hits", string_of_int stats.cache_hits);
    ("cache_misses", string_of_int stats.cache_misses);
    ("cache_evictions", string_of_int stats.cache_evictions);
    ("cache_size", string_of_int stats.cache_size);
    ("cache_capacity", string_of_int stats.cache_capacity);
    ("queue_wait_seconds", Printf.sprintf "%.17g" stats.queue_wait_seconds);
    ("solve_cpu_seconds", Printf.sprintf "%.17g" stats.solve_cpu_seconds);
    ("timeouts", string_of_int stats.timeouts);
    ("degraded", string_of_int stats.degraded);
    ("toobig", string_of_int stats.toobig);
    ("cache_self_heals", string_of_int stats.cache_self_heals);
    ("cache_replayed", string_of_int stats.cache_replayed);
    ("journal_bytes", string_of_int stats.journal_bytes);
    ("journal_compactions", string_of_int stats.journal_compactions);
    ("in_flight", string_of_int stats.in_flight);
    ("queue_depth", string_of_int stats.queue_depth);
    ("queue_wait_p50", Printf.sprintf "%.17g" stats.queue_wait_p50);
    ("queue_wait_p95", Printf.sprintf "%.17g" stats.queue_wait_p95);
    ("queue_wait_p99", Printf.sprintf "%.17g" stats.queue_wait_p99);
    ("solve_p50", Printf.sprintf "%.17g" stats.solve_p50);
    ("solve_p95", Printf.sprintf "%.17g" stats.solve_p95);
    ("solve_p99", Printf.sprintf "%.17g" stats.solve_p99);
  ]

let print_response = function
  | Pong -> "PONG\n"
  | Bye -> "BYE\n"
  | Busy -> "BUSY\n"
  | Timeout -> "TIMEOUT\n"
  | Toobig -> "TOOBIG\n"
  | Error_frame { kind; message } ->
      Printf.sprintf "ERROR %s %s\n" (error_kind_to_string kind)
        (one_line message)
  | Result { served; solution } ->
      Printf.sprintf "RESULT %s\n%sEND\n" (served_to_string served)
        (solution_body solution)
  | Degraded { reason; solution } ->
      Printf.sprintf "DEGRADED %s\n%sEND\n"
        (degrade_reason_to_string reason)
        (solution_body solution)
  | Stats_frame stats ->
      let body =
        String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf "%s %s\n" k v)
             (stats_fields stats))
      in
      Printf.sprintf "STATS\n%sEND\n" body
  | Metrics_frame body -> Printf.sprintf "METRICS\n%sEND\n" body
  | Health_frame h ->
      Printf.sprintf "HEALTHY %s %d %d %d\n" h.health_shard_id
        h.health_in_flight h.health_queue_depth h.health_high_water

(* --- Parsing ------------------------------------------------------------- *)

type reader = unit -> string option

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let reader_of_lines lines =
  let remaining = ref lines in
  fun () ->
    match !remaining with
    | [] -> None
    | line :: rest ->
        remaining := rest;
        Some (strip_cr line)

let ( let* ) = Result.bind

let parse_float what s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let parse_int what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad %s %S" what s)

(* Collect raw lines until the END marker; [Error] when the stream ends
   first (a truncated frame). *)
let body_until_end read =
  let rec loop acc =
    match read () with
    | None -> Error "unexpected end of stream inside a frame (missing END)"
    | Some "END" -> Ok (List.rev acc)
    | Some line -> loop (line :: acc)
  in
  loop []

let split_words line =
  List.filter (fun s -> s <> "") (String.split_on_char ' ' line)

let input_request read =
  match read () with
  | None -> Ok None
  | Some line -> (
      match split_words line with
      | [ "PING" ] -> Ok (Some Ping)
      | [ "STATS" ] -> Ok (Some Stats)
      | [ "METRICS" ] -> Ok (Some Metrics)
      | [ "HEALTH" ] -> Ok (Some Health)
      | [ "SHUTDOWN" ] -> Ok (Some Shutdown)
      | "SOLVE" :: budget :: header ->
          let* budget = parse_float "budget" budget in
          (* DEADLINE affects correctness, so a malformed one is a
             protocol error.  TRACE is best-effort observability: a
             malformed, truncated, oversized or duplicated TRACE
             degrades the request to untraced — the solve must never
             fail because telemetry plumbing did. *)
          let is_keyword t = String.equal t "DEADLINE" || String.equal t "TRACE" in
          let rec drop_until_keyword = function
            | t :: rest when not (is_keyword t) -> drop_until_keyword rest
            | rest -> rest
          in
          let rec parse_header deadline trace header =
            match header with
            | [] -> Ok (deadline, trace)
            | "DEADLINE" :: ms :: rest ->
                let* ms = parse_float "deadline" ms in
                if ms < 0.0 then Error "negative deadline"
                else parse_header (Some ms) trace rest
            | "TRACE" :: tid :: psid :: flags :: rest
              when not (is_keyword tid || is_keyword psid || is_keyword flags)
              ->
                let trace =
                  match
                    ( trace,
                      Trace.context_of_tokens ~trace_id:tid
                        ~parent_span_id:psid ~flags )
                  with
                  | None, Some c -> Some (Some c)
                  | _, _ -> Some None  (* duplicate or invalid: untraced *)
                in
                parse_header deadline trace rest
            | "TRACE" :: rest ->
                (* Truncated TRACE: discard its tokens, keep parsing. *)
                parse_header deadline (Some None) (drop_until_keyword rest)
            | _ -> Error "malformed SOLVE header"
          in
          let* deadline_ms, trace = parse_header None None header in
          let trace = Option.join trace in
          let* body = body_until_end read in
          let* net =
            Result.map_error
              (fun e -> Printf.sprintf "bad net body: %s" e)
              (Rip_net.Net_io.parse_string (String.concat "\n" body))
          in
          Ok (Some (Solve { budget; deadline_ms; trace; net }))
      | [] -> Error "empty request line"
      | word :: _ -> Error (Printf.sprintf "unknown request %S" word))

let parse_solution_body lines =
  let rec loop repeaters_rev = function
    | [] -> Error "truncated RESULT body"
    | line :: rest -> (
        match split_words line with
        | [ "repeater"; position; width ] ->
            let* position = parse_float "repeater position" position in
            let* width = parse_float "repeater width" width in
            loop ((position, width) :: repeaters_rev) rest
        | [ "width"; total ] -> (
            let* total_width = parse_float "total width" total in
            match rest with
            | [ delay_line; power_line ] -> (
                match (split_words delay_line, split_words power_line) with
                | [ "delay"; d ], [ "power"; p ] ->
                    let* delay = parse_float "delay" d in
                    let* power_watts = parse_float "power" p in
                    Ok
                      {
                        repeaters = List.rev repeaters_rev;
                        total_width;
                        delay;
                        power_watts;
                      }
                | _, _ -> Error "malformed RESULT body tail")
            | _ -> Error "malformed RESULT body tail")
        | _ -> Error (Printf.sprintf "bad RESULT body line %S" line))
  in
  loop [] lines

let parse_stats_body lines =
  let* fields =
    List.fold_left
      (fun acc line ->
        let* acc = acc in
        match split_words line with
        | [ key; value ] -> Ok ((key, value) :: acc)
        | _ -> Error (Printf.sprintf "bad STATS body line %S" line))
      (Ok []) lines
  in
  let lookup key =
    match List.assoc_opt key fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "STATS frame missing field %S" key)
  in
  let geti key =
    let* v = lookup key in
    parse_int key v
  in
  let getf key =
    let* v = lookup key in
    parse_float key v
  in
  let* shard_id = lookup "shard_id" in
  let* () =
    if valid_shard_id shard_id then Ok ()
    else Error (Printf.sprintf "bad shard_id %S" shard_id)
  in
  let* uptime_seconds = getf "uptime_seconds" in
  let* requests = geti "requests" in
  let* solved = geti "solved" in
  let* errors = geti "errors" in
  let* rejected_busy = geti "rejected_busy" in
  let* cache_hits = geti "cache_hits" in
  let* cache_misses = geti "cache_misses" in
  let* cache_evictions = geti "cache_evictions" in
  let* cache_size = geti "cache_size" in
  let* cache_capacity = geti "cache_capacity" in
  let* queue_wait_seconds = getf "queue_wait_seconds" in
  let* solve_cpu_seconds = getf "solve_cpu_seconds" in
  let* timeouts = geti "timeouts" in
  let* degraded = geti "degraded" in
  let* toobig = geti "toobig" in
  let* cache_self_heals = geti "cache_self_heals" in
  let* cache_replayed = geti "cache_replayed" in
  let* journal_bytes = geti "journal_bytes" in
  let* journal_compactions = geti "journal_compactions" in
  let* in_flight = geti "in_flight" in
  let* queue_depth = geti "queue_depth" in
  let* queue_wait_p50 = getf "queue_wait_p50" in
  let* queue_wait_p95 = getf "queue_wait_p95" in
  let* queue_wait_p99 = getf "queue_wait_p99" in
  let* solve_p50 = getf "solve_p50" in
  let* solve_p95 = getf "solve_p95" in
  let* solve_p99 = getf "solve_p99" in
  Ok
    {
      shard_id;
      uptime_seconds;
      requests;
      solved;
      errors;
      rejected_busy;
      cache_hits;
      cache_misses;
      cache_evictions;
      cache_size;
      cache_capacity;
      queue_wait_seconds;
      solve_cpu_seconds;
      timeouts;
      degraded;
      toobig;
      cache_self_heals;
      cache_replayed;
      journal_bytes;
      journal_compactions;
      in_flight;
      queue_depth;
      queue_wait_p50;
      queue_wait_p95;
      queue_wait_p99;
      solve_p50;
      solve_p95;
      solve_p99;
    }

let input_response read =
  match read () with
  | None -> Ok None
  | Some line -> (
      match split_words line with
      | [ "PONG" ] -> Ok (Some Pong)
      | [ "BYE" ] -> Ok (Some Bye)
      | [ "BUSY" ] -> Ok (Some Busy)
      | [ "TIMEOUT" ] -> Ok (Some Timeout)
      | [ "TOOBIG" ] -> Ok (Some Toobig)
      | "ERROR" :: kind :: _ -> (
          match error_kind_of_string kind with
          | None -> Error (Printf.sprintf "unknown error kind %S" kind)
          | Some kind ->
              (* The message is the rest of the raw line, spaces intact. *)
              let prefix = "ERROR " ^ error_kind_to_string kind in
              let message =
                if String.length line > String.length prefix + 1 then
                  String.sub line
                    (String.length prefix + 1)
                    (String.length line - String.length prefix - 1)
                else ""
              in
              Ok (Some (Error_frame { kind; message })))
      | [ "RESULT"; served ] ->
          let* served =
            match served with
            | "fresh" -> Ok Fresh
            | "cached" -> Ok Cached
            | other -> Error (Printf.sprintf "unknown RESULT tag %S" other)
          in
          let* body = body_until_end read in
          let* solution = parse_solution_body body in
          Ok (Some (Result { served; solution }))
      | [ "DEGRADED"; reason ] ->
          let* reason =
            match degrade_reason_of_string reason with
            | Some r -> Ok r
            | None -> Error (Printf.sprintf "unknown DEGRADED reason %S" reason)
          in
          let* body = body_until_end read in
          let* solution = parse_solution_body body in
          Ok (Some (Degraded { reason; solution }))
      | [ "STATS" ] ->
          let* body = body_until_end read in
          let* stats = parse_stats_body body in
          Ok (Some (Stats_frame stats))
      | [ "METRICS" ] ->
          (* Keep the raw lines: the body is opaque Prometheus text, and
             Prometheus never emits a bare END line. *)
          let* body = body_until_end read in
          let body =
            String.concat "" (List.map (fun l -> l ^ "\n") body)
          in
          Ok (Some (Metrics_frame body))
      | [ "HEALTHY"; shard_id; in_flight; queue_depth; high_water ] ->
          if not (valid_shard_id shard_id) then
            Error (Printf.sprintf "bad shard_id %S" shard_id)
          else
            let* health_in_flight = parse_int "in_flight" in_flight in
            let* health_queue_depth = parse_int "queue_depth" queue_depth in
            let* health_high_water = parse_int "high_water" high_water in
            Ok
              (Some
                 (Health_frame
                    {
                      health_shard_id = shard_id;
                      health_in_flight;
                      health_queue_depth;
                      health_high_water;
                    }))
      | [] -> Error "empty response line"
      | word :: _ -> Error (Printf.sprintf "unknown response %S" word))

(* --- Equality ------------------------------------------------------------ *)

let request_equal a b =
  match (a, b) with
  | Ping, Ping | Stats, Stats | Metrics, Metrics | Health, Health
  | Shutdown, Shutdown ->
      true
  | Solve a, Solve b ->
      a.budget = b.budget
      && Option.equal Float.equal a.deadline_ms b.deadline_ms
      && Option.equal Trace.context_equal a.trace b.trace
      && Rip_net.Net.equal a.net b.net
  | (Ping | Stats | Metrics | Health | Shutdown | Solve _), _ -> false

let solution_equal a b =
  List.equal
    (fun (p, w) (p', w') -> p = p' && w = w')
    a.repeaters b.repeaters
  && a.total_width = b.total_width && a.delay = b.delay
  && a.power_watts = b.power_watts

let response_equal a b =
  match (a, b) with
  | Pong, Pong | Bye, Bye | Busy, Busy | Timeout, Timeout | Toobig, Toobig ->
      true
  | Error_frame a, Error_frame b -> a.kind = b.kind && a.message = b.message
  | Result a, Result b ->
      a.served = b.served && solution_equal a.solution b.solution
  | Degraded a, Degraded b ->
      a.reason = b.reason && solution_equal a.solution b.solution
  | Stats_frame a, Stats_frame b ->
      String.equal a.shard_id b.shard_id
      && Float.equal a.uptime_seconds b.uptime_seconds
      && a.requests = b.requests && a.solved = b.solved
      && a.errors = b.errors
      && a.rejected_busy = b.rejected_busy
      && a.cache_hits = b.cache_hits
      && a.cache_misses = b.cache_misses
      && a.cache_evictions = b.cache_evictions
      && a.cache_size = b.cache_size
      && a.cache_capacity = b.cache_capacity
      && Float.equal a.queue_wait_seconds b.queue_wait_seconds
      && Float.equal a.solve_cpu_seconds b.solve_cpu_seconds
      && a.timeouts = b.timeouts && a.degraded = b.degraded
      && a.toobig = b.toobig
      && a.cache_self_heals = b.cache_self_heals
      && a.cache_replayed = b.cache_replayed
      && a.journal_bytes = b.journal_bytes
      && a.journal_compactions = b.journal_compactions
      && a.in_flight = b.in_flight
      && a.queue_depth = b.queue_depth
      && Float.equal a.queue_wait_p50 b.queue_wait_p50
      && Float.equal a.queue_wait_p95 b.queue_wait_p95
      && Float.equal a.queue_wait_p99 b.queue_wait_p99
      && Float.equal a.solve_p50 b.solve_p50
      && Float.equal a.solve_p95 b.solve_p95
      && Float.equal a.solve_p99 b.solve_p99
  | Metrics_frame a, Metrics_frame b -> String.equal a b
  | Health_frame a, Health_frame b ->
      String.equal a.health_shard_id b.health_shard_id
      && a.health_in_flight = b.health_in_flight
      && a.health_queue_depth = b.health_queue_depth
      && a.health_high_water = b.health_high_water
  | ( ( Pong | Bye | Busy | Timeout | Toobig | Error_frame _ | Result _
      | Degraded _ | Stats_frame _ | Metrics_frame _ | Health_frame _ ),
      _ ) ->
      false
