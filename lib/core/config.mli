(** All knobs of Algorithm RIP, with the defaults of the paper's Section 6. *)

type dp_options = {
  backend : Rip_dp.Power_dp.backend;
      (** which DP backend every {!Rip_dp.Power_dp} pass (coarse, final,
          rescue, and the engine's baseline jobs) runs on; default
          [Fast] *)
  frontier_cap : int option;
      (** per-state label cap handed to every DP pass: bounds the
          pseudo-polynomial DP on tall nets with tight budgets, at worst
          trading a little power optimality; default [Some 128], far
          above what healthy nets produce.  [None] runs the exact DP. *)
}
(** Backend options shared by all DP passes of a solve. *)

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
  dp : dp_options;  (** DP backend selection and frontier cap *)
}

val default : t

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
