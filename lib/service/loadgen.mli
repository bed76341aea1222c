(** Closed-loop load generation against a {!Server} (in-process or over a
    socket): [connections] worker threads each hold one retrying
    {!Client.session} and issue requests back to back from a shared
    workload until it is drained.  Used by the [rip_loadgen] binary and
    the [service] bench. *)

val workload :
  ?seed:int64 ->
  ?distinct_nets:int ->
  ?slack:float ->
  ?deadline_ms:float ->
  ?traced:bool ->
  requests:int ->
  Rip_tech.Process.t ->
  Protocol.request array
(** A deterministic SOLVE workload: [distinct_nets] Section-6 nets
    (default 8) generated from [seed] (default the suite seed), each
    given the budget [slack * tau_min] (default 1.3), repeated
    round-robin to [requests] frames.  Repetition is the point — a
    distinct-net count far below [requests] is what exercises the solve
    cache, mimicking a router re-querying the same global nets during
    timing closure.  [deadline_ms] stamps every frame with a DEADLINE
    header (none by default).  [traced] (default false) stamps every
    frame with its own deterministic root TRACE context
    ({!Rip_obs.Trace.make_context}, scope ["loadgen"], the request index
    as sequence), so traces join across client, router and shard. *)

type result = {
  sent : int;  (** requests issued *)
  solved_fresh : int;  (** RESULT fresh responses *)
  solved_cached : int;  (** RESULT cached responses *)
  degraded : int;  (** DEGRADED fallback responses *)
  timeouts : int;  (** final TIMEOUT answers (retries exhausted) *)
  errors : int;  (** typed ERROR responses *)
  busy : int;  (** final BUSY rejections (retries exhausted) *)
  transport_failures : int;
      (** requests abandoned on a final transport/framing error *)
  retried_transport : int;  (** attempts retried after a transport error *)
  retried_busy : int;  (** attempts retried after BUSY *)
  retried_timeout : int;  (** attempts retried after TIMEOUT *)
  verify_mismatches : int;
      (** RESULT answers whose solution bytes contradicted the first
          answer pinned for the same (net, budget) — always 0 unless
          {!run} ran with [verify:true] *)
  wall_seconds : float;
  throughput : float;  (** responses per wall second *)
  p50 : float;  (** response-latency percentiles, seconds *)
  p95 : float;
  p99 : float;
}

val run :
  connect:(unit -> Client.t) ->
  ?connections:int ->
  ?policy:Client.retry_policy ->
  ?seed:int64 ->
  ?verify:bool ->
  Protocol.request array ->
  result
(** Drain the workload through [connections] threads (default 4, capped
    at the workload size), each holding one {!Client.session} built from
    [policy] (default {!Client.default_retry_policy}) with a jitter
    stream derived from [seed] (default 1) and the worker index.  Each
    thread measures per-request wall latency including retries;
    percentiles are over all completed requests.  A thread whose request
    fails even after retries stops (its remaining share is picked up by
    the others).  Load for several shards goes through one router
    endpoint, which owns placement.  With [verify] (default false), the
    first RESULT for each (net, budget) pins the solution bytes and any
    later contradicting RESULT counts in [verify_mismatches]; DEGRADED
    answers are exempt. *)

val render : result -> string
(** A human-readable multi-line summary. *)
