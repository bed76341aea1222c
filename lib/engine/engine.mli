(** The parallel batch-solve engine.

    Every (net, budget) cell of a sweep is independent, so batches run on
    a {!Pool} of OCaml 5 domains; results are reduced back in submission
    order regardless of completion order, making every entry point
    deterministic: [timed_map ~jobs:1] and [timed_map ~jobs:8] over the
    same solve closures return equal results.  The solvers keep all
    mutable state call-local, and the SplitMix64 streams used to
    *generate* workloads are consumed before the batch is built, so
    workers share nothing stateful.

    Two shapes of caller exist: one-shot batches ({!timed_map} for a
    list of problems, {!map_suite} for the paper's sweeps), which size a
    pool per batch, and a long-lived service, which keeps one
    {!type-handle} for its lifetime.  A one-shot pool is sized
    [min jobs tasks] — a batch never spawns more domains than it has work
    for — and one effective worker runs the batch inline in the calling
    domain, with no domain startup at all.  Either way, if a task raises,
    the batch still drains and the earliest failure by submission order
    is re-raised with its backtrace.

    Timing is reported on two axes (see {!Telemetry}): per-job CPU
    seconds read from each worker's own thread-CPU clock
    ({!Rip_numerics.Cpu_clock}), which stay comparable with the paper's
    per-cell runtime columns because descheduled time is never charged to
    a job, and batch wall seconds, the operator-facing cost.  Caveat: an
    oversubscribed pool (more domains than cores) still pays minor-GC
    synchronisation inside each job's CPU time, so runtime-{e sensitive}
    sweeps (Table 2) should run with [jobs = 1] — see
    {!Rip_workload.Experiments.table2}, which defaults to that. *)

val default_jobs : unit -> int
(** [Pool.default_jobs ()], i.e. [Domain.recommended_domain_count ()]. *)

(** {1 One-shot batches} *)

val timed_map :
  ?jobs:int -> ('a -> 'b) -> 'a array -> ('b * float) array * Telemetry.t
(** Order-preserving parallel map on a fresh pool of
    [min jobs (Array.length input)] domains (inline when that is 1;
    default [jobs] is {!default_jobs}), with each element's thread-CPU
    execution time in seconds and the batch summary.  When a global
    tracer is installed ({!Rip_obs.Trace.set_global}) the batch records
    one [engine:batch] span and one [engine:job] span per element. *)

val map_suite :
  ?jobs:int ->
  prepare:('a -> 'ctx) ->
  targets:('ctx -> 'k list) ->
  cell:('ctx -> 'k -> 'cell) ->
  'a list ->
  ('ctx * 'cell list) list * Telemetry.t
(** The shape of every sweep in the paper's evaluation: an expensive
    per-net preparation ([prepare], e.g. geometry plus the tau_min
    anchor), a list of per-net targets derived from it, and one [cell]
    per (net, target).  Both layers are parallelised — all preparations
    first, then every cell of every net flattened into one batch for
    load balance — and results come back grouped per input, in input
    order.  The telemetry merges both phases.  The pool is sized for the
    cell phase, i.e. [jobs] is not capped at the input count. *)

(** {1 Long-lived handles}

    A daemon solving requests as they arrive must not pay domain
    spawn/join per request.  A handle owns one pool (or the inline runner
    when [jobs <= 1]) and runs any number of batches on it until
    {!shutdown_handle}. *)

type handle

val create_handle : ?jobs:int -> unit -> handle
(** Spawn a reusable runner of [jobs] workers (default {!default_jobs};
    [jobs <= 1] runs batches inline in the calling thread, with no worker
    domain). *)

val map_on_handle : handle -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving map on the handle's runner, with the earliest
    failure re-raised after the batch drains.  Safe to call from several
    threads at once — batches interleave on the shared workers.
    @raise Invalid_argument after {!shutdown_handle}. *)

val shutdown_handle : handle -> unit
(** Drain queued work, join the workers; idempotent. *)
