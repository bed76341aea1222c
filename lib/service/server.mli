(** The [rip_serviced] daemon core, embeddable in-process.

    One server owns a long-lived {!Rip_engine.Engine.handle} (the worker
    pool), a digest-verified {!Solve_cache} in front of it, {!Metrics} and
    a {!Faults} plan (disabled unless configured).  Connections go
    through the shared {!Frontend} (one thread each, {!Protocol} over a
    bounded {!Wire} reader); this module supplies what a SOLVE,
    METRICS or HEALTH request is answered with.

    A SOLVE request walks a degradation ladder — every rung answers with
    exactly one well-formed typed frame:

    + cache lookup (digest-verified; a corrupted entry self-heals and
      counts as a miss) — a hit is answered immediately, even when the
      request's deadline has already expired: the replay is free;
    + a deadline that expired at admission is answered [TIMEOUT]
      without dispatching any work;
    + admission: [BUSY] when [queue_depth] solves are already in flight
      (backpressure, not an unbounded queue);
    + load shedding: an admitted solve finding the queue deeper than
      [high_water] answers [DEGRADED overload] from the analytic
      fallback tier without running the DP;
    + the full solve runs on the pool under a cancellation token that
      carries the deadline (monotonic clock) and fires at the solver's
      next poll once it has passed; a cancelled or fault-killed solve answers [DEGRADED] with the
      fallback solution ([deadline] / [worker-lost] reason) — unless
      the solve completed first, in which case the full RESULT wins.

    The analytic fallback tier ({!Rip_refine.Min_delay_analytic} plus a
    short REFINE pass, widths rounded to the coarse library, positions
    re-legalised against forbidden zones) is total and DP-free, so a
    degraded answer costs microseconds-to-milliseconds.  Degraded
    solutions are never cached.

    Request frames larger than [max_frame_bytes] are answered [TOOBIG]
    and the connection closed.  Solver errors are answered as typed
    ERROR frames and are not cached; only full solutions enter the
    cache. *)

type config = {
  shard_id : string;
      (** this server's identity on HEALTH frames; one token
          over [[A-Za-z0-9._-]] (see {!Protocol.valid_shard_id}).  A
          router uses it to tell its shards apart *)
  jobs : int option;
      (** worker domains for the pool; [None] is the machine default,
          [Some 1] solves inline in the connection thread *)
  queue_depth : int;  (** max in-flight solves before BUSY *)
  high_water : int;
      (** in-flight solves beyond which new admissions degrade to the
          analytic tier instead of queueing a full solve; must be in
          [1, queue_depth] *)
  cache_capacity : int;  (** {!Solve_cache} capacity, entries *)
  max_frame_bytes : int;  (** request-frame byte bound before TOOBIG *)
  faults : Faults.t option;  (** [None] means no injection *)
  tracer : Rip_obs.Trace.t option;
      (** when set, every request leaves spans (admission, cache lookup,
          queue wait, solve, per-phase solver work) in the tracer, with
          span ids derived from the request's cache key and the tracer's
          scope (collision-free across shards); a request carrying a
          TRACE context gets its [trace_id]/[parent_span_id] attached to
          every span, so a cross-process merge ({!Rip_obs.Trace_merge})
          parents them under the caller's span; the daemon dumps spans
          as Chrome-trace JSON on exit ([--trace-out]) *)
  spool : Rip_obs.Wide_event.spool option;
      (** when set, every SOLVE emits exactly one wide event (outcome,
          cache, queue wait, labels pruned, deadline slack)
          through the spool's tail sampler *)
  journal_dir : string option;
      (** when set, every verified cache insert is appended to a
          crash-durable {!Journal} in this directory and the log is
          replayed at {!create} to pre-warm the cache; replayed records
          are digest-verified and RESULT-parsed before admission, so a
          corrupted journal can only shrink the warm set, never poison
          it *)
}

val default_config : config
(** [shard_id = "standalone"], [jobs = None], [queue_depth = 64],
    [high_water = 48], [cache_capacity = 512],
    [max_frame_bytes = Wire.default_max_frame_bytes],
    [faults = None], [tracer = None], [spool = None],
    [journal_dir = None]. *)

type t

val create : ?config:config -> Rip_tech.Process.t -> t
(** Spawn the worker pool; the server is ready to serve
    connections.  When [journal_dir] is set, recovery and replay happen
    here, before anything is served.
    @raise Invalid_argument on a non-positive [queue_depth] or
    [max_frame_bytes], an invalid [shard_id], [high_water] outside
    [1, queue_depth] — the message names the offending values
    (e.g. ["high_water 80 must not exceed queue_depth 64"]) — a negative
    [cache_capacity], or a journal directory that cannot be created or
    written.  This is the one check of a config: [rip_serviced] reports
    the message and exits 2. *)

val metrics_body : t -> string
(** The METRICS body a client would receive now: every counter, gauge
    and histogram of this server ({!Metrics.render}). *)

val journal_recovery : t -> Journal.recovery option
(** What boot-time replay found: [None] for an unjournaled server.
    Note [recovery.entries] counts raw journal records; the cache's
    [replayed] stat counts those that also passed digest verification
    and RESULT parsing. *)

val journal_flush : t -> unit
(** Force unsynced journal bytes to disk now (no-op unjournaled) — the
    SIGTERM grace path, for embedders that cannot wait for {!run}'s
    clean close. *)

val health : t -> Protocol.health
(** The HEALTHY payload a client would receive now: shard id plus the
    live admission gauges. *)

val cache_key : t -> net:Rip_net.Net.t -> budget:float -> string
(** The cache key this server would use for that request — for tests
    and tools that need to poke the cache (see
    {!corrupt_cache_entry}). *)

val corrupt_cache_entry : t -> string -> bool
(** Fault/test hook: tamper with a cached entry's digest so the next
    lookup self-heals ({!Solve_cache.corrupt}). *)

val handle_connection : t -> Unix.file_descr -> unit
(** {!Frontend.handle_connection} with this server's answers, for one
    established connection (e.g. one end of a socketpair); a TOOBIG
    answer counts in [rip_toobig_total]. *)

val run : t -> Unix.file_descr -> unit
(** {!Frontend.run} over a listening socket (see {!Frontend.listen_unix})
    with this server's answers, then the worker pool is shut down and
    the journal fsynced and closed. *)

val request_shutdown : t -> unit
(** Stop accepting connections and reject further solves; idempotent and
    async-signal-usable.  In-flight requests complete. *)

val shutdown : t -> unit
(** {!request_shutdown} plus releasing the worker pool.
    Embedders that drive {!handle_connection} directly (no {!run} loop)
    must call this; after {!run} returns it is a no-op. *)
