(** All knobs of Algorithm RIP, with the defaults of the paper's Section 6. *)

type t = {
  coarse_library : Rip_dp.Repeater_library.t;
      (** RIP line 1 library; default 5 widths, 80u..400u step 80u *)
  coarse_pitch : float;
      (** uniform candidate pitch for line 1, um; default 200 *)
  fallback_library : Rip_dp.Repeater_library.t;
      (** used to retry line 1 if the coarse DP is infeasible; default the
          reference 10u..400u step 10u library *)
  refined_granularity : float;
      (** width grid for RIP line 3 rounding, u; default 10 *)
  refined_radius : int;
      (** candidate slots kept before/after each REFINE location; default 10 *)
  refined_pitch : float;
      (** pitch of those slots, um; default 50 *)
  min_width : float;  (** smallest manufacturable repeater, u; default 10 *)
  max_width : float;  (** largest allowed repeater, u; default 400 *)
  refine : Rip_refine.Refine.config;
  refine_passes : int;
      (** how many REFINE -> refined-DP rounds to run, each seeded with
          the previous round's discrete solution; default 1 as in the
          paper, whose conclusion notes that "REFINE may be performed
          several times for further power reduction" *)
}

val default : t

val frontier_cap : int
(** The per-state label cap every DP pass of RIP runs under: 128.  It
    bounds the pseudo-polynomial DP on tall nets with tight budgets, at
    worst trading a little power optimality, and sits far above what
    healthy nets produce. *)

val reference_library : Rip_dp.Repeater_library.t
(** The full-range discrete library 10u..400u step 10u: the finest design
    space any algorithm in the evaluation is allowed to use. *)

val tau_min_library : Rip_dp.Repeater_library.t
(** Library used when anchoring timing targets at [tau_min]: same range,
    coarser step (the minimum delay is insensitive to library granularity,
    Section 2). *)

val tau_min_pitch : float
(** Candidate pitch for the tau_min anchor, um: finer than the algorithms'
    working pitch so the anchor is a tight lower reference. *)

val pp : t Fmt.t
