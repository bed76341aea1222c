(** The cluster front end: one listening socket routing SOLVE traffic
    over N [rip_serviced] shards.  Connections go through the shared
    {!Rip_service.Frontend}, exactly as a shard's do; this module
    supplies the routing, polling and aggregated answers.

    Requests route by consistent-hashing the net's canonical digest
    ({!Rip_net.Net.canonical_digest}) over a weighted {!Ring}, keeping
    each shard's solve cache hot for its own key range.  The request
    path forwards to the key's owner unless the key's second choice
    has strictly fewer forwards outstanding (sent and not yet answered,
    exported as [rip_router_shard_<id>_outstanding]): the less busy of
    two choices, with ties kept by the owner, so an idle cluster keeps
    strict cache affinity and a key lives in at most two shards'
    caches.  A request taken by the second choice counts in its
    [spills], and the owner becomes its failover target.

    Forwarding renders neither the net nor the answer.  The router
    parses each request and each shard answer in full (placement needs
    the digest; a malformed or truncated answer is a lost transport and
    fails over, and the frame-size bound holds on both sides), but it
    forwards the request's own net lines ({!type:Rip_service.Protocol.solve}'s
    [net_text]: comments cut, blank lines dropped) under a header it
    renders — budget, [DEADLINE], and a child [TRACE] context — and
    answers the client with the shard's body bytes, so a reply through
    the router equals the shard's reply byte for byte.

    Admission is the shards' own: a shard answers BUSY once its queue
    is full and DEGRADED (overload) from its analytic fallback tier
    above its high-water mark, and the router relays either answer
    unchanged.

    The poller is the one failure detector, and a shard is either in
    the ring or out of it.  Each tick it sends every shard HEALTH
    through a control pool of its own, whose timeout is
    [4 * poll_interval]; an answer refreshes the shard's admission
    bounds.  A shard missing [down_after] consecutive polls leaves the
    ring at once, its arcs falling to the survivors, and its next
    answer re-adds it; each transition is one counted rebalance
    ([rip_router_rebalances_total]), remaps only that shard's keys and
    shows in [rip_router_shard_<id>_up].

    Each request is forwarded to one shard, and to a second only when
    the first one's transport fails (failover).  A transport failure
    fails over at once, without waiting for the poller; with no
    candidate left, or when every forward tried lost its transport,
    the router answers DEGRADED (worker lost) from its own fallback
    tier and prints one stderr line with the route decision and each
    forward's transport error.  The router never drops a request.  A
    shard that stalls without answering is waited on for
    [request_timeout]; a request that carries a deadline is bounded
    sooner by the shard's own DEGRADED (deadline) answer.  A shard
    that answers HEALTH but cuts its answers stays in the ring, and
    each request it owns pays one failed forward before failing over.
    Forward round trips are exported as [rip_router_forward_seconds]. *)

type shard_spec = { id : string; socket : string; weight : int }

type config = {
  pool_size : int;  (** connections kept per shard *)
  request_timeout : float;  (** per-forward socket timeout, seconds *)
  poll_interval : float;  (** liveness tick, seconds *)
  vnodes_per_weight : int;
  down_after : int;  (** missed polls in a row before a shard leaves the ring *)
  max_frame_bytes : int;
  tracer : Rip_obs.Trace.t option;
      (** when set, every request leaves an ingress span plus one span
          per forward attempt, and forwarded frames carry a TRACE
          context parented on the forward span — shard-side spans nest
          under it in a {!Rip_obs.Trace_merge} timeline.  A request
          arriving without a TRACE header gets a deterministic root
          context minted at ingress. *)
  spool : Rip_obs.Wide_event.spool option;
      (** when set, every request emits exactly one wide event (outcome,
          target shard, failover/spill involvement,
          deadline slack) through the spool's tail sampler *)
}

val default_config : config
(** [pool_size = 8], [request_timeout = 60 s], [poll_interval =
    0.25 s] (so a HEALTH poll or METRICS scrape times out after 1 s),
    [down_after = 2]. *)

type t

val create : ?config:config -> shards:shard_spec list -> Rip_tech.Process.t -> t
(** @raise Invalid_argument on an empty shard list, a duplicate or
    invalid shard id, or a nonsensical config
    ([pool_size >= 1], [poll_interval > 0], [down_after >= 1]). *)

val run : t -> Unix.file_descr -> unit
(** Starts the poller, runs {!Rip_service.Frontend.run} over the
    listener (open it with {!Rip_service.Frontend.listen_unix} or
    [listen_tcp]) until {!request_shutdown} and every connection has
    finished, then joins the poller and closes the shard pools. *)

val request_shutdown : t -> unit
(** Idempotent, callable from a signal handler. *)

val stopping : t -> bool
val metrics : t -> Router_metrics.t

val metrics_body : t -> string
(** The router's METRICS body: its own registry ({!Router_metrics}),
    then the cluster block — the unlabelled samples of every up
    shard's METRICS summed under the names a shard uses, without
    [rip_uptime_seconds].  The router's own answers count in the sums
    as a shard's would: a local DEGRADED answer in [rip_requests_total],
    [rip_degraded_total] and [rip_cache_misses], a local TOOBIG in
    [rip_toobig_total] (an oversized frame is not a SOLVE request, as on
    a server).  Histogram
    buckets carry labels and are not summed.  A restarted shard's
    counters start from zero, and so does its share of the sums. *)

val health : t -> Rip_service.Protocol.health
(** [shard_id = "router"]; queue/high-water are sums of shard bounds. *)
