(** The conventional DP scheme of ref. [14] as configured in the paper's
    Section 6 — the comparison baseline for every experiment.

    Two shapes are used: Table 1 / Figure 7 fix the library size at 10 and
    vary the width granularity [g] (so the width range is
    [10u .. 10u + 9 g]), while Table 2 fixes the range at (10u, 400u) and
    varies the step [g_DP].  Candidate locations are uniform at 200 um,
    forbidden zones excluded, in both cases. *)

type t = {
  name : string;
  library : Rip_dp.Repeater_library.t;
  pitch : float;  (** candidate pitch, um *)
}

val fixed_size : granularity:float -> t
(** Library of exactly 10 widths starting at 10u stepping [granularity]. *)

val fixed_range : granularity:float -> t
(** Widths 10u .. 400u stepping [granularity]. *)

type run = {
  result : Rip_dp.Power_dp.result option;  (** [None]: timing violation *)
  runtime_seconds : float;  (** thread-CPU time of the DP call *)
}

val solve :
  t -> Rip_tech.Process.t -> Rip_net.Geometry.t -> budget:float -> run
(** Run the baseline DP ({!Rip_dp.Power_dp.run}, exact: no frontier cap)
    on one net and budget, timed. *)
