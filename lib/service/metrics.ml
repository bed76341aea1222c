module Obs = Rip_obs.Metrics
module Cpu_clock = Rip_numerics.Cpu_clock

type t = {
  registry : Obs.t;
  requests : Obs.Counter.t;
  solved : Obs.Counter.t;
  errors : Obs.Counter.t;
  rejected_busy : Obs.Counter.t;
  timeouts : Obs.Counter.t;
  degraded : Obs.Counter.t;
  toobig : Obs.Counter.t;
  in_flight : Obs.Gauge.t;
  queue_depth : Obs.Gauge.t;
  queue_wait : Obs.Histogram.t;
  solve_cpu : Obs.Histogram.t;
  dp_columns : Obs.Counter.t;
  dp_labels_kept : Obs.Counter.t;
  dp_labels_pruned : Obs.Counter.t;
  refine_iterations : Obs.Counter.t;
  refine_width_evaluations : Obs.Counter.t;
}

let queue_wait_metric = "rip_queue_wait_seconds"
let solve_cpu_metric = "rip_solve_cpu_seconds"

let create ?cache_stats ?journal_stats () =
  let registry = Obs.create () in
  let started = Cpu_clock.monotonic_seconds () in
  let counter name help = Obs.counter registry ~name ~help in
  Obs.gauge_fn registry ~name:"rip_uptime_seconds"
    ~help:"Seconds since server start (monotonic clock)" (fun () ->
      Cpu_clock.monotonic_seconds () -. started);
  let t =
    {
      registry;
      requests = counter "rip_requests_total" "SOLVE requests received";
      solved = counter "rip_solved_total" "SOLVE requests answered RESULT";
      errors = counter "rip_errors_total" "SOLVE requests answered ERROR";
      rejected_busy = counter "rip_rejected_busy_total"
          "SOLVE requests answered BUSY";
      timeouts = counter "rip_timeouts_total"
          "SOLVE requests answered TIMEOUT";
      degraded = counter "rip_degraded_total"
          "SOLVE requests answered DEGRADED";
      toobig = counter "rip_toobig_total" "request frames answered TOOBIG";
      in_flight =
        Obs.gauge registry ~name:"rip_in_flight"
          ~help:"SOLVE requests currently holding an admission slot";
      queue_depth =
        Obs.gauge registry ~name:"rip_queue_depth"
          ~help:"solves currently queued or running in the worker pool";
      queue_wait =
        Obs.histogram registry ~name:queue_wait_metric
          ~help:"per-solve wall seconds queued behind the worker pool";
      solve_cpu =
        Obs.histogram registry ~name:solve_cpu_metric
          ~help:"per-solve thread-CPU seconds inside the solver";
      dp_columns =
        counter "rip_dp_columns_total" "DP state frontiers frozen";
      dp_labels_kept =
        counter "rip_dp_labels_kept_total"
          "DP labels kept at frontier freezing (after the Pareto prune and \
           any cap)";
      dp_labels_pruned =
        counter "rip_dp_labels_pruned_total"
          "DP labels dropped at frontier freezing (collected - kept: \
           Pareto prune + cap); labels the minF, width-bound or price \
           tests skip are never collected, so they are not counted";
      refine_iterations =
        counter "rip_refine_iterations_total" "REFINE move rounds";
      refine_width_evaluations =
        counter "rip_refine_width_evaluations_total"
          "REFINE width-solver evaluations (Gauss-Seidel solves at a fixed \
           multiplier) over all its width solves";
    }
  in
  (match cache_stats with
  | None -> ()
  | Some stats ->
      let cache_gauge name help read =
        Obs.gauge_fn registry ~name ~help (fun () ->
            float_of_int (read (stats ())))
      in
      cache_gauge "rip_cache_hits" "solve cache hits" (fun s ->
          s.Solve_cache.hits);
      cache_gauge "rip_cache_misses" "solve cache misses" (fun s ->
          s.Solve_cache.misses);
      cache_gauge "rip_cache_evictions" "solve cache LRU evictions" (fun s ->
          s.Solve_cache.evictions);
      cache_gauge "rip_cache_self_heals"
        "cache entries dropped on digest mismatch" (fun s ->
          s.Solve_cache.self_heals);
      cache_gauge "rip_cache_replayed"
        "cache entries admitted from journal replay at boot" (fun s ->
          s.Solve_cache.replayed);
      cache_gauge "rip_cache_size" "solve cache entries" (fun s ->
          s.Solve_cache.size));
  (match journal_stats with
  | None -> ()
  | Some stats ->
      let journal_gauge name help read =
        Obs.gauge_fn registry ~name ~help (fun () ->
            float_of_int (read (stats ())))
      in
      journal_gauge "rip_journal_bytes" "on-disk journal size" (fun s ->
          s.Journal.bytes);
      journal_gauge "rip_journal_segments" "journal segment files" (fun s ->
          s.Journal.segments);
      journal_gauge "rip_journal_appends" "journal records appended" (fun s ->
          s.Journal.appends);
      journal_gauge "rip_journal_fsyncs" "journal fsync batches" (fun s ->
          s.Journal.fsyncs);
      journal_gauge "rip_journal_compactions" "journal live-set rewrites"
        (fun s -> s.Journal.compactions));
  t

let render t = Obs.render t.registry
