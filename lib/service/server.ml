module Engine = Rip_engine.Engine
module Cancel = Rip_engine.Cancel
module Obs = Rip_obs.Metrics
module Trace = Rip_obs.Trace
module Wide_event = Rip_obs.Wide_event
module Cpu_clock = Rip_numerics.Cpu_clock
module Rip = Rip_core.Rip
module Net = Rip_net.Net
module Zone = Rip_net.Zone
module Solution = Rip_elmore.Solution

type config = {
  shard_id : string;
  jobs : int option;
  queue_depth : int;
  high_water : int;
  cache_capacity : int;
  max_frame_bytes : int;
  solver : Rip_core.Config.t option;
  faults : Faults.t option;
  tracer : Trace.t option;
  spool : Wide_event.spool option;
  journal_dir : string option;
}

let default_config =
  {
    shard_id = "standalone";
    jobs = None;
    queue_depth = 64;
    high_water = 48;
    cache_capacity = 512;
    max_frame_bytes = Wire.default_max_frame_bytes;
    solver = None;
    faults = None;
    tracer = None;
    spool = None;
    journal_dir = None;
  }

type t = {
  process : Rip_tech.Process.t;
  config : config;
  handle : Engine.handle;
  key : net:Net.t -> budget:float -> string;  (* Solve_cache.key ~process *)
  cache : Protocol.answer Solve_cache.t;
  metrics : Metrics.t;
  faults : Faults.t;
  journal : Journal.t option;
  journal_recovery : Journal.recovery option;
  frontend : Frontend.t;
  mutex : Mutex.t;  (* guards in_flight *)
  mutable in_flight : int;
}

(* --- Journal persistence ---------------------------------------------------

   A journaled server appends every verified cache insert as
   [digest ^ body]: the MD5 the cache verifies reads against, then the
   rendered RESULT body those 16 digest bytes commit to.  Replay at boot
   recomputes the digest over the persisted body and re-parses it
   through the RESULT grammar; a record failing either check is rejected
   before anything reaches the cache — the same verify-before-serve
   contract as the live read path, so a restart admits zero
   digest-mismatched entries.  A record that passes enters the cache
   with its bytes as persisted. *)

let digest_len = 16

let replay_solution value =
  if String.length value <= digest_len then None
  else
    let digest = String.sub value 0 digest_len in
    let body = String.sub value digest_len (String.length value - digest_len) in
    if not (String.equal (Digest.string body) digest) then None
    else
      match Protocol.answer_of_body body with
      | Ok answer -> Some (answer, digest)
      | Error _ -> None

let replay_journal cache journal entries =
  List.iter
    (fun (key, value) ->
      match replay_solution value with
      | Some (answer, digest) ->
          Solve_cache.add_replayed cache key answer ~digest
      | None ->
          (* Framing survived but the payload does not verify: purge the
             record from the journal's live set so compaction drops the
             bytes for good. *)
          Journal.note_evicted journal ~key)
    entries

let create ?(config = default_config) process =
  if config.queue_depth < 1 then
    invalid_arg
      (Printf.sprintf "Server.create: queue_depth %d must be at least 1"
         config.queue_depth);
  if config.high_water < 1 then
    invalid_arg
      (Printf.sprintf "Server.create: high_water %d must be at least 1"
         config.high_water);
  if config.high_water > config.queue_depth then
    invalid_arg
      (Printf.sprintf
         "Server.create: high_water %d must not exceed queue_depth %d"
         config.high_water config.queue_depth);
  if not (Protocol.valid_shard_id config.shard_id) then
    invalid_arg
      (Printf.sprintf
         "Server.create: shard_id %S must be one non-empty token over \
          [A-Za-z0-9._-]"
         config.shard_id);
  if config.max_frame_bytes < 1 then
    invalid_arg "Server.create: max_frame_bytes must be positive";
  (* The cache checks its capacity; build it before the journal opens so
     a rejected config leaves no open segment behind. *)
  let cache = Solve_cache.create ~capacity:config.cache_capacity in
  let faults =
    match config.faults with Some f -> f | None -> Faults.disabled ()
  in
  let journal, journal_recovery =
    match config.journal_dir with
    | None -> (None, None)
    | Some dir -> (
        match Journal.open_ ~faults (Journal.default_config ~dir) with
        | Ok (journal, recovery) -> (Some journal, Some recovery)
        | Error message -> invalid_arg ("Server.create: " ^ message))
  in
  (match journal with
  | Some journal ->
      (* Eviction feedback first, so even replay-time evictions (a
         journal holding more live records than the cache's capacity)
         reach the compaction ledger. *)
      Solve_cache.set_on_evict cache (fun key ->
          Journal.note_evicted journal ~key);
      Option.iter
        (fun (recovery : Journal.recovery) ->
          replay_journal cache journal recovery.Journal.entries)
        journal_recovery
  | None -> ());
  {
    process;
    config;
    handle = Engine.create_handle ?jobs:config.jobs ();
    key = Solve_cache.key ~process;
    cache;
    metrics =
      Metrics.create
        ~cache_stats:(fun () -> Solve_cache.stats cache)
        ?journal_stats:
          (Option.map (fun journal () -> Journal.stats journal) journal)
        ();
    faults;
    journal;
    journal_recovery;
    frontend =
      Frontend.create ~faults ~max_frame_bytes:config.max_frame_bytes ();
    mutex = Mutex.create ();
    in_flight = 0;
  }

let metrics_body t = Metrics.render t.metrics

let journal_recovery t = t.journal_recovery
let journal_flush t = Option.iter Journal.flush t.journal

let health t =
  Mutex.lock t.mutex;
  let in_flight = t.in_flight in
  Mutex.unlock t.mutex;
  {
    Protocol.health_shard_id = t.config.shard_id;
    health_in_flight = in_flight;
    health_queue_depth = t.config.queue_depth;
    health_high_water = t.config.high_water;
  }

let cache_key t ~net ~budget = t.key ~net ~budget
let corrupt_cache_entry t key = Solve_cache.corrupt t.cache key

let request_shutdown t = Frontend.request_shutdown t.frontend

let shutdown t =
  request_shutdown t;
  Engine.shutdown_handle t.handle;
  (* Clean shutdown seals the journal with its footer, so the next boot
     replays without the torn-tail repair pass. *)
  Option.iter Journal.close t.journal

(* --- Admission control ----------------------------------------------------

   A solve slot is held from submission to response.  BUSY when
   [queue_depth] solves are already in flight (or the server is draining
   for shutdown) — the bounded queue that keeps a request storm from
   growing the heap without limit.  Below BUSY sits the high-water mark:
   an admitted solve that finds the queue already deeper than
   [high_water] skips the full DP and answers from the analytic fallback
   tier, shedding load gracefully instead of letting every queued
   request wait behind the pool. *)

type admission = Rejected | Admitted of int  (* in-flight after admission *)

let try_acquire_slot t =
  Mutex.lock t.mutex;
  let admitted =
    (not (Frontend.stopping t.frontend)) && t.in_flight < t.config.queue_depth
  in
  if admitted then t.in_flight <- t.in_flight + 1;
  let depth = t.in_flight in
  Mutex.unlock t.mutex;
  if admitted then Obs.Gauge.set t.metrics.in_flight (float_of_int depth);
  if admitted then Admitted depth else Rejected

let release_slot t =
  Mutex.lock t.mutex;
  t.in_flight <- t.in_flight - 1;
  let depth = t.in_flight in
  Mutex.unlock t.mutex;
  Obs.Gauge.set t.metrics.in_flight (float_of_int depth)

(* --- Solutions ------------------------------------------------------------ *)

let solution_of_report (report : Rip.report) =
  {
    Protocol.repeaters =
      List.map
        (fun (r : Rip_elmore.Solution.repeater) -> (r.position, r.width))
        (Rip_elmore.Solution.repeaters report.solution);
    total_width = report.total_width;
    delay = report.delay;
    power_watts = report.power_watts;
  }

let error_response error =
  let kind =
    match error with
    | Rip.Infeasible_budget _ -> Protocol.Infeasible_budget
    | Rip.Invalid_net _ -> Protocol.Invalid_net
    | Rip.Internal _ -> Protocol.Internal_error
  in
  Protocol.Error_frame
    { kind; message = Protocol.one_line (Rip.error_to_string error) }

let answer_digest (answer : Protocol.answer) = Digest.string answer.body

(* --- The analytic fallback tier (see {!Fallback}) ------------------------- *)

let degraded_response t ~budget ~net reason =
  Obs.Counter.incr t.metrics.degraded;
  Fallback.degraded ~process:t.process ?solver:t.config.solver ~budget ~net
    reason

(* --- Solving -------------------------------------------------------------- *)

(* A fault-injected solve delay that still honours the deadline: one
   sleep to whichever comes first, the delay's end or the token's
   deadline, then the token's own poll decides. *)
let interruptible_delay token seconds =
  let now = Cpu_clock.monotonic_seconds () in
  let wake =
    match Cancel.deadline token with
    | Some deadline -> Float.min deadline (now +. seconds)
    | None -> now +. seconds
  in
  if wake > now then Unix.sleepf (wake -. now);
  Cancel.hook token ()

type solve_outcome =
  | Solved of Rip.report
  | Failed of Rip.error
  | Cancelled_mid_solve
  | Worker_lost_mid_solve

(* Probes are always wired: each event is one or two atomic counter
   bumps, cheap enough to keep on for every solve.  Every DP pass reports
   through the same [Column] event. *)
let solver_probe t ~pruned = function
  | Rip.Dp (Rip_dp.Power_dp.Column { collected; kept; _ }) ->
      Obs.Counter.incr t.metrics.dp_columns;
      Obs.Counter.add t.metrics.dp_labels_kept kept;
      Obs.Counter.add t.metrics.dp_labels_pruned (collected - kept);
      ignore (Atomic.fetch_and_add pruned (collected - kept))
  | Rip.Refine (Rip_refine.Refine.Iteration { evaluations; _ }) ->
      Obs.Counter.incr t.metrics.refine_iterations;
      Obs.Counter.add t.metrics.refine_width_evaluations evaluations

let run_full_solve t ~budget ~net ~key ~trace ~pruned token =
  let tracer = t.config.tracer in
  let scope = match tracer with Some tr -> Trace.scope tr | None -> "" in
  let span_args name =
    ("span_id", Trace.span_id ~scope ~digest:key name)
    :: (match trace with Some c -> Trace.context_args c | None -> [])
  in
  let enqueued = Cpu_clock.monotonic_seconds () in
  (* Started on the connection thread, ended by the worker the moment it
     picks the job up: the span is exactly the queue wait.  The
     connection thread blocks in [map_on_handle] meanwhile, so the
     cross-thread buffer write cannot race its owner. *)
  let end_queue =
    Trace.begin_opt tracer ~cat:"service" ~args:(span_args "queue") "queue"
  in
  let phase =
    Option.map
      (fun tr name ->
        let full = "solve:" ^ name in
        Trace.begin_span tr ~cat:"solver" ~args:(span_args full) full)
      tracer
  in
  Obs.Gauge.add t.metrics.queue_depth 1.0;
  Fun.protect
    ~finally:(fun () -> Obs.Gauge.add t.metrics.queue_depth (-1.0))
    (fun () ->
      let outcomes =
        Engine.map_on_handle t.handle
          (fun () ->
            end_queue ();
            let queue_seconds = Cpu_clock.monotonic_seconds () -. enqueued in
            let cpu_started = Cpu_clock.thread_seconds () in
            let outcome =
              Trace.span tracer ~cat:"service" ~args:(span_args "solve")
                "solve"
                (fun () ->
                  try
                    (match Faults.solve_delay t.faults with
                    | Some seconds -> interruptible_delay token seconds
                    | None -> ());
                    if Faults.kill_worker t.faults then
                      raise Faults.Worker_killed;
                    match
                      Rip.solve ?config:t.config.solver
                        ~hooks:
                          (Rip_core.Hooks.make ~cancel:(Cancel.hook token)
                             ~probe:(solver_probe t ~pruned) ?phase ())
                        { Rip.process = t.process; net; geometry = None;
                          budget }
                    with
                    | Ok report -> Solved report
                    | Error error -> Failed error
                  with
                  | Cancel.Cancelled -> Cancelled_mid_solve
                  | Faults.Worker_killed -> Worker_lost_mid_solve
                  | exn -> Failed (Rip.Internal (Printexc.to_string exn)))
            in
            (outcome, queue_seconds,
             Cpu_clock.thread_seconds () -. cpu_started))
          [| () |]
      in
      outcomes.(0))

let serve_admitted t ~budget ~deadline_ms ~net ~key ~trace ~pruned ~queue_wait
    ~admitted_at =
  let token =
    Cancel.create
      ?deadline:(Option.map (fun ms -> admitted_at +. (ms /. 1000.0)) deadline_ms)
      ()
  in
  let outcome, queue_seconds, cpu_seconds =
    run_full_solve t ~budget ~net ~key ~trace ~pruned token
  in
  queue_wait := queue_seconds;
  Obs.Histogram.observe t.metrics.queue_wait queue_seconds;
  Obs.Histogram.observe t.metrics.solve_cpu cpu_seconds;
  match outcome with
  | Solved report ->
      (* A solve that completed before its token's deadline was
         observed wins over the deadline: the work is already paid
         for and the full answer strictly dominates the fallback. *)
      let answer = Protocol.answer (solution_of_report report) in
      let digest = answer_digest answer in
      Solve_cache.add_verified t.cache key answer ~digest;
      (* Journal the good bytes before any fault can corrupt the
         in-memory entry: durability must persist what was solved,
         not what a fault plan mangled. *)
      (match t.journal with
      | Some journal ->
          Journal.append journal ~key ~value:(digest ^ answer.Protocol.body)
      | None -> ());
      if Faults.corrupt_cache t.faults then
        ignore (Solve_cache.corrupt t.cache key);
      Obs.Counter.incr t.metrics.solved;
      Protocol.Result { served = Fresh; answer }
  | Failed error ->
      Obs.Counter.incr t.metrics.errors;
      error_response error
  | Cancelled_mid_solve ->
      degraded_response t ~budget ~net Protocol.Deadline_exceeded
  | Worker_lost_mid_solve ->
      degraded_response t ~budget ~net Protocol.Worker_lost

let serve_solve t { Protocol.budget; deadline_ms; trace; net; net_text = _ } =
  let started = Cpu_clock.monotonic_seconds () in
  Obs.Counter.incr t.metrics.requests;
  let key = cache_key t ~net ~budget in
  let tracer = t.config.tracer in
  let scope = match tracer with Some tr -> Trace.scope tr | None -> "" in
  (* Span ids derive from the cache key and the tracer's scope — the
     same request traced twice produces the same ids (traces diff
     across runs) while two shards tracing the same digest never
     collide.  A propagated TRACE context rides along on every span, so
     a cross-process merge can parent these under the caller's span. *)
  let span name f =
    Trace.span tracer ~cat:"service"
      ~args:
        (("span_id", Trace.span_id ~scope ~digest:key name)
        :: (match trace with Some c -> Trace.context_args c | None -> []))
      name f
  in
  let pruned = Atomic.make 0 in
  let queue_wait = ref Float.nan in
  let response =
    (* The cache is consulted before the deadline: replaying a cached
       solution is effectively free, so a cached answer always beats a
       TIMEOUT, even for a deadline that expired in transit. *)
    match
      span "cache_lookup" (fun () ->
          Solve_cache.find_verified t.cache key ~digest_of:answer_digest)
    with
    | Some answer ->
        Obs.Counter.incr t.metrics.solved;
        Protocol.Result { served = Cached; answer }
    | None -> (
        match deadline_ms with
        | Some ms when ms <= 0.0 ->
            (* Expired at admission: answer immediately, dispatch nothing. *)
            Obs.Counter.incr t.metrics.timeouts;
            Protocol.Timeout
        | _ -> (
            match span "admission" (fun () -> try_acquire_slot t) with
            | Rejected ->
                Obs.Counter.incr t.metrics.rejected_busy;
                Protocol.Busy
            | Admitted depth ->
                Fun.protect
                  ~finally:(fun () -> release_slot t)
                  (fun () ->
                    if depth > t.config.high_water then
                      degraded_response t ~budget ~net Protocol.Overload
                    else
                      let admitted_at = Cpu_clock.monotonic_seconds () in
                      serve_admitted t ~budget ~deadline_ms ~net ~key ~trace
                        ~pruned ~queue_wait ~admitted_at)))
  in
  (* Exactly one wide event per SOLVE: the canonical log line the tail
     sampler and offline [rip_trace query] aggregate over. *)
  (match t.config.spool with
  | None -> ()
  | Some spool ->
      let finished = Cpu_clock.monotonic_seconds () in
      let outcome, degrade_reason = Protocol.outcome_of_response response in
      let cache =
        match response with
        | Protocol.Result { served = Cached; _ } -> "hit"
        | _ -> "miss"
      in
      Wide_event.emit spool
        {
          Wide_event.empty with
          process =
            (if String.equal scope "" then t.config.shard_id else scope);
          trace_id =
            (match trace with Some c -> c.Trace.trace_id | None -> "");
          digest = Digest.to_hex (Digest.string key);
          shard = t.config.shard_id;
          outcome;
          degrade_reason;
          cache;
          labels_pruned = Atomic.get pruned;
          queue_wait = !queue_wait;
          latency = finished -. started;
          deadline_slack =
            (match deadline_ms with
            | None -> Float.nan
            | Some ms -> started +. (ms /. 1000.0) -. finished);
        });
  response

(* --- Connection handling (see {!Frontend}) -------------------------------- *)

let handlers t =
  {
    Frontend.solve = serve_solve t;
    metrics = (fun () -> metrics_body t);
    health = (fun () -> health t);
    on_toobig = (fun () -> Obs.Counter.incr t.metrics.toobig);
  }

let handle_connection t fd =
  Frontend.handle_connection t.frontend (handlers t) fd

let run t listen_fd =
  Frontend.run t.frontend (handlers t) listen_fd;
  shutdown t
