(** Experiment runners regenerating every table and figure of the paper's
    evaluation (Section 6).  See DESIGN.md for the experiment index and
    EXPERIMENTS.md for paper-vs-measured results.

    All runners are deterministic given the process and suite seed; only
    the runtime columns (Table 2) depend on the machine. *)

(** {1 Shared run matrix (Table 1 and Figure 7 reuse one sweep)} *)

type cell = {
  target_index : int;  (** 0-based k; budget is [(1.05 + 0.05 k) tau_min] *)
  budget : float;
  rip : (Rip_core.Rip.report, Rip_core.Rip.error) result;
  baselines : (float * Baseline.run) list;
      (** baseline outcome per width granularity [g] *)
}

type net_run = {
  net : Rip_net.Net.t;
  tau_min : float;
  cells : cell list;
}

val run_suite :
  ?jobs:int ->
  ?granularities:float list ->
  ?fixed_range:bool ->
  ?nets:Rip_net.Net.t list ->
  ?targets_per_net:int ->
  ?hooks:Rip_core.Rip.probe_event Rip_core.Hooks.t ->
  Rip_tech.Process.t ->
  net_run list
(** Sweep every net and timing target, solving RIP once per cell and the
    baseline once per granularity.  Defaults: the 20-net suite, 20 targets,
    granularities [10; 20; 40] with the paper's fixed-size-10 baseline
    libraries ([fixed_range = false]).

    Every cell solves RIP on {!Rip_core.Config.default}; [hooks]
    observes every RIP solve — with
    [jobs > 1] its callbacks run concurrently from pool domains, so they
    must be thread-safe (atomic counters are; see the bench suite).

    The sweep runs on the {!Rip_engine.Engine} domain pool ([jobs]
    workers, default {!Rip_engine.Engine.default_jobs}); results are
    independent of [jobs] — cells are reduced in submission order and
    every solver is deterministic. *)

val run_suite_stats :
  ?jobs:int ->
  ?granularities:float list ->
  ?fixed_range:bool ->
  ?nets:Rip_net.Net.t list ->
  ?targets_per_net:int ->
  ?hooks:Rip_core.Rip.probe_event Rip_core.Hooks.t ->
  Rip_tech.Process.t ->
  net_run list * Rip_engine.Telemetry.t
(** As {!run_suite}, also returning the engine's batch summary (batch
    wall seconds vs summed per-cell CPU seconds and pool utilization) —
    the numbers that keep Table 2's runtime columns meaningful under
    parallel execution. *)

(** {1 Table 1 — power reduction for two-pin nets} *)

type table1_row = {
  net_name : string;
  g10_delta_max : float;  (** col 2: max saving vs g=10u baseline, % *)
  g10_violations : int;  (** col 3: targets the baseline cannot meet *)
  g20_delta_max : float;
  g20_delta_mean : float;
  g40_delta_max : float;
  g40_delta_mean : float;
}

type table1 = {
  rows : table1_row list;
  average : table1_row;  (** the paper's "Ave" row *)
}

val table1 : net_run list -> table1
val render_table1 : table1 -> string

(** {1 Figure 7 — power savings vs timing target} *)

type fig7_point = {
  target_multiple : float;  (** budget as a multiple of tau_min *)
  mean_saving : float;  (** mean saving over nets with a feasible baseline *)
  max_saving : float;
  min_saving : float;
  baseline_infeasible : int;  (** nets in zone I at this target *)
}

val fig7 : granularity:float -> net_run list -> fig7_point list
(** One series; the paper plots granularities 10u (a) and 40u (b). *)

val render_fig7 : granularity:float -> fig7_point list -> string
(** Series plus an ASCII bar sketch marking zones I/II/III. *)

(** {1 Table 2 — power savings and speedup tradeoff} *)

type table2_row = {
  granularity : float;  (** g_DP, u *)
  delta_mean : float;  (** mean saving of RIP over the baseline, % *)
  t_dp : float;  (** mean baseline runtime per (net, target), s *)
  t_rip : float;  (** mean RIP runtime per (net, target), s *)
  speedup : float;  (** t_dp / t_rip *)
  baseline_infeasible : int;
}

val table2 :
  ?jobs:int -> ?granularities:float list -> ?nets:Rip_net.Net.t list ->
  ?targets_per_net:int -> Rip_tech.Process.t ->
  table2_row list
(** Fixed-range (10u, 400u) baselines per the paper; defaults to
    granularities [40; 30; 20; 10] over the full suite.

    Unlike {!run_suite}, [jobs] defaults to [1]: this sweep exists for
    its runtime columns, and per-cell times are only fully trustworthy
    when cells do not compete for cores (thread-CPU timing removes
    descheduling from the measurement but not each domain's share of GC
    synchronisation on an oversubscribed pool).  Pass [jobs] explicitly
    to trade timing fidelity for wall-clock speed. *)

val render_table2 : table2_row list -> string

(** {1 Saving arithmetic shared by the reports} *)

val saving_percent :
  baseline:Rip_dp.Power_dp.result -> rip:Rip_core.Rip.report -> float option
(** [100 (p_base - p_rip) / p_base]; [Some 0.] when both are zero-width,
    [None] when only the baseline is zero-width (no meaningful ratio). *)
