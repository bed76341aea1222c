(** Request counters, gauges and latency histograms for one server
    instance, backed by the lock-free {!Rip_obs.Metrics} registry.

    Counters are mutated from connection threads and read from any
    thread without locking; the METRICS rendering of a histogram comes
    from one snapshot, so it can never disagree with itself.  Uptime
    runs on the monotonic clock — a wall-clock step must not move it. *)

module Obs = Rip_obs.Metrics

type t = {
  registry : Obs.t;
  requests : Obs.Counter.t;
      (** SOLVE requests received (before they are classified) *)
  solved : Obs.Counter.t;  (** SOLVEs answered RESULT (fresh or cached) *)
  errors : Obs.Counter.t;  (** SOLVEs answered with a solver ERROR *)
  rejected_busy : Obs.Counter.t;  (** SOLVEs answered BUSY (queue full) *)
  timeouts : Obs.Counter.t;
      (** SOLVEs answered TIMEOUT (deadline expired before any usable
          result, including expiry at admission) *)
  degraded : Obs.Counter.t;
      (** SOLVEs answered with a DEGRADED analytic fallback (deadline,
          overload or worker loss) *)
  toobig : Obs.Counter.t;  (** request frames answered TOOBIG *)
  in_flight : Obs.Gauge.t;
      (** admission slots currently held (set under the admission lock) *)
  queue_depth : Obs.Gauge.t;
      (** solves queued or running in the worker pool *)
  queue_wait : Obs.Histogram.t;  (** per fresh solve, wall seconds queued *)
  solve_cpu : Obs.Histogram.t;
      (** per fresh solve, thread-CPU seconds inside the solver *)
  dp_columns : Obs.Counter.t;
      (** DP state frontiers frozen ({!Rip_dp.Power_dp.probe_event}) *)
  dp_labels_kept : Obs.Counter.t;
      (** labels those freezes kept ([kept], after the Pareto prune and
          any cap): the DP work {!dp_columns} cannot show *)
  dp_labels_pruned : Obs.Counter.t;
      (** labels dropped at those freezes ([collected - kept]).  Labels
          the fast DP skips before collection (the minF, width-bound and
          price tests) are not counted: the counter falls when pruning
          moves earlier, not because less is pruned. *)
  refine_iterations : Obs.Counter.t;
      (** REFINE move rounds ({!Rip_refine.Refine.probe_event}) *)
  refine_width_evaluations : Obs.Counter.t;
      (** REFINE's width-solver evaluations, the [evaluations] of its
          probe events *)
}
(** The instruments, registered once at {!create}; callers bump them
    directly through {!Rip_obs.Metrics}. *)

val create :
  ?cache_stats:(unit -> Solve_cache.stats) ->
  ?journal_stats:(unit -> Journal.stats) ->
  unit ->
  t
(** Fresh instruments; uptime starts now.  When [cache_stats] is given,
    the solve cache's own counters are exposed as scrape-time gauges in
    the Prometheus rendering (they remain owned by the cache); likewise
    [journal_stats] exposes the [rip_journal_*] family for a journaled
    server. *)

val render : t -> string
(** [Rip_obs.Metrics.render t.registry]: the Prometheus text body of a
    METRICS response. *)

val queue_wait_metric : string
(** Name of the queue-wait histogram in the exposition
    (["rip_queue_wait_seconds"]). *)

val solve_cpu_metric : string
(** Name of the solve-CPU histogram (["rip_solve_cpu_seconds"]). *)
