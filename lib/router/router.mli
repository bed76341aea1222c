(** The cluster front end: one listening socket routing SOLVE traffic
    over N [rip_serviced] shards.  Connections go through the shared
    {!Rip_service.Frontend}, exactly as a shard's do; this module
    supplies the routing, hedging, polling and aggregated answers.

    Requests route by consistent-hashing the net's canonical digest
    ({!Rip_net.Net.canonical_digest}) over a weighted {!Ring}, keeping
    each shard's solve cache hot for its own key range.  The request
    path forwards to the key's owner unless the key's second choice
    has strictly fewer forwards outstanding (sent and not yet received
    or abandoned, exported as [rip_router_shard_<id>_outstanding]): the
    less busy of two choices, with ties kept by the owner, so an idle
    cluster keeps strict cache affinity and a key lives in at most two
    shards' caches.  A request taken by the second choice counts in its
    [spills], and the owner becomes its failover and hedge target.

    Admission is the shards' own: a shard answers BUSY once its queue
    is full and DEGRADED (overload) from its analytic fallback tier
    above its high-water mark, and the router relays either answer
    unchanged.

    The poller doubles as the failure detector.  Each tick it sends
    every shard HEALTH; an answer keeps the shard live, refreshes its
    admission bounds and half-opens an open breaker.  A shard missing
    [down_after] polls stops receiving traffic, after [remove_after]
    more its arcs fall to the survivors (a counted rebalance), and a
    recovery re-adds it — both transitions remap only that shard's
    keys.  A transport failure on the request path fails over
    immediately; with no candidate left, or when every forward tried
    lost its transport, the router answers DEGRADED (worker lost) from
    its own fallback tier.  The router never drops a request.

    Two tail-tolerance mechanisms sit on the request path itself:

    - {b Hedged requests}: a forward still unanswered after a delay
      derived from the p99 of recent forward round-trips
      ([hedge_delay_factor] times the p99, floored at
      [hedge_delay_floor]) is also issued to the key's failover
      candidate, from the same thread.  A primary that has answered by
      the time the hedge returns wins; otherwise the hedge's answer is
      served and the primary is abandoned: its connection is closed,
      its elapsed time still lands in [rip_router_forward_seconds]
      (stragglers keep raising the p99), and it counts as neither
      forwarded nor failed and leaves the breaker alone.  Counted as
      [rip_router_hedges_total] / [rip_router_hedge_wins_total].
    - {b Circuit breaker}, per shard: [breaker_threshold] consecutive
      transport failures open the breaker, removing the shard from the
      candidate set without waiting for the poller's slower
      failure detector.  A later successful poll half-opens it; the
      next forwarded request closes it again or snaps it back open.
      Exported as [rip_router_shard_<id>_breaker_state] (0 closed,
      1 open, 2 half-open). *)

type shard_spec = { id : string; socket : string; weight : int }

type config = {
  pool_size : int;  (** connections kept per shard *)
  request_timeout : float;  (** per-forward socket timeout, seconds *)
  poll_interval : float;  (** liveness tick, seconds *)
  vnodes_per_weight : int;
  down_after : int;  (** missed polls before a shard is down *)
  remove_after : int;  (** further misses before ring removal *)
  solver : Rip_core.Config.t option;  (** for the local fallback tier *)
  max_frame_bytes : int;
  hedge : bool;  (** hedge slow forwards onto the failover candidate *)
  hedge_delay_floor : float;
      (** seconds; the hedge delay never drops below this, so a cold or
          cache-hit-dominated histogram cannot hedge every request *)
  hedge_delay_factor : float;
      (** hedge delay = factor x p99 of recent forward round-trips *)
  breaker_threshold : int;
      (** consecutive transport failures that open a shard's breaker *)
  tracer : Rip_obs.Trace.t option;
      (** when set, every request leaves an ingress span plus one span
          per forward attempt, and forwarded frames carry a TRACE
          context parented on the forward span — shard-side spans nest
          under it in a {!Rip_obs.Trace_merge} timeline.  A request
          arriving without a TRACE header gets a deterministic root
          context minted at ingress. *)
  spool : Rip_obs.Wide_event.spool option;
      (** when set, every request emits exactly one wide event (outcome,
          target shard, hedge/failover/spill/breaker involvement,
          deadline slack) through the spool's tail sampler *)
}

val default_config : config
(** [hedge = true], [hedge_delay_floor = 0.05],
    [hedge_delay_factor = 1.5], [breaker_threshold = 3]. *)

type t

val create : ?config:config -> shards:shard_spec list -> Rip_tech.Process.t -> t
(** @raise Invalid_argument on an empty shard list, a duplicate or
    invalid shard id, or a nonsensical config
    ([pool_size >= 1], [poll_interval > 0], [down_after >= 1],
    [remove_after >= 1], [hedge_delay_floor >= 0],
    [hedge_delay_factor > 0], [breaker_threshold >= 1]). *)

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
    then the cluster block — the unlabelled samples of every available
    shard's METRICS summed under the names a shard uses, without
    [rip_uptime_seconds].  The router's own answers count in the sums
    as a shard's would: a local DEGRADED answer in [rip_requests_total]
    and [rip_degraded_total], a local TOOBIG in [rip_toobig_total] (an
    oversized frame is not a SOLVE request, as on a server).  Histogram
    buckets carry labels and are not summed.  A restarted shard's
    counters start from zero, and so does its share of the sums. *)

val health : t -> Rip_service.Protocol.health
(** [shard_id = "router"]; queue/high-water are sums of shard bounds. *)
