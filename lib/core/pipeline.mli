(** The pass orchestration of the hybrid scheme, written once over a
    substrate: the two-pin chain ({!Rip}) and the routed tree
    ([Rip_tree.Tree_hybrid]) run the same passes.

    {ol
    {- coarse: the power DP over [config.coarse_library] at uniform
       [config.coarse_pitch] sites, retried with [config.fallback_library];
       when both miss, the min-delay DP's insertion over the same sites
       seeds the next pass instead (RIP line 1);}
    {- [config.refine_passes] rounds, each seeded with the previous
       round's answer: the continuous step, then a final DP over a library
       rounded from the continuous widths and the sites around the
       continuous placements (lines 2-4);}
    {- rescue, when neither the coarse pass nor the final DP met the
       budget: a DP around the substrate's fastest insertion over a
       library rounded from its widths;}
    {- the narrowest budget-meeting answer among final, coarse and rescue;
       when none meets, the anchor: the min-delay DP's insertion over
       {!Config.tau_min_library} at {!Config.tau_min_pitch}, or a DP around
       it over its own widths, whichever is narrower, if it meets.}}

    A substrate whose power DP takes a width bound names subsets of its
    candidates ([halve]): a coarse pass solves the subset first and bounds
    the full pass by that answer's width, with the same answer (DESIGN.md
    3.2a).  A window pass (final, rescue, anchor) around a substrate that
    {!SUBSTRATE.widens} starts at {!start_radius} slots and doubles the
    radius up to [config.refined_radius] while a repeater of its answer
    sits on a window's outermost slot, each wider pass bounded by the
    narrower one's answer; otherwise it runs once at
    [config.refined_radius].  The final pass's first window is bounded by
    the continuous insertion rounded up to the final library
    ({!SUBSTRATE.rounded_up}), when that meets the budget, and every final
    window is priced at the continuous step's multiplier.  A bounded pass
    without an answer reruns unbounded, so no bound changes an answer. *)

module type SUBSTRATE = sig
  type t
  (** One solve's problem: the wire, the process and whatever the
      substrate's own steps share. *)

  type sites
  type solution

  type dp
  (** A pass's answer: an insertion with its width and delay. *)

  type continuous
  (** The continuous step's outcome. *)

  val uniform : t -> pitch:float -> sites
  (** Sites at multiples of [pitch], zones excluded. *)

  val around : t -> centers:solution -> radius:int -> pitch:float -> sites
  (** Sites within [radius] slots of [pitch] of each repeater of
      [centers], zones excluded. *)

  val halve : t -> sites -> sites option
  (** The subset a coarse pass solves first, if any. *)

  val widens : bool
  (** Whether window passes follow the widening schedule; without it
      each runs once at the ceiling. *)

  val at_edge :
    t -> centers:solution -> radius:int -> pitch:float -> solution -> bool
  (** Whether a repeater of the solution sits on the outermost slot of
      every window {!around} [centers] at [radius] that holds it, so a
      wider window may move it outward. *)

  val power_dp :
    t -> ?width_bound:dp -> ?price:float ->
    library:Rip_dp.Repeater_library.t -> budget:float -> sites -> dp option
  (** The least-width insertion over [sites] meeting [budget].
      [width_bound] is an answer over a subset of [sites] and [price] a
      multiplier on delay from the continuous step: both may prune, never
      change the answer. *)

  val min_delay :
    t -> library:Rip_dp.Repeater_library.t -> sites -> solution * float
  (** The min-delay DP's insertion and the delay it reports. *)

  val continuous : t -> budget:float -> seed:solution -> continuous option
  (** The analytical step from [seed]'s placements; [None] when it cannot
      meet [budget]. *)

  val placed : continuous -> solution
  (** Its insertion: the widths make the final library, the positions
      the centers of the final sites. *)

  val rounded_up :
    t -> continuous -> library:Rip_dp.Repeater_library.t -> dp option
  (** {!placed} with each width rounded up to the next width of
      [library], with its evaluated delay; [None] when some width has no
      library width at or above it, or when the substrate's power DP
      ignores width bounds. *)

  val price : continuous -> float option
  (** The multiplier the final pass prices delay at, if any. *)

  val fastest : t -> solution
  (** The insertion the rescue pass searches around. *)

  val tau_min : t -> gridded:float -> float
  (** The minimum delay an infeasible answer reports, given the anchor's
      gridded min-delay. *)

  val solution : dp -> solution
  val width : dp -> float
  val delay : dp -> float
  val widths : solution -> float list

  val seed : t -> ?delay:float -> solution -> dp
  (** An answer no DP pass produced, at [delay] or else its evaluated
      delay. *)

  val bare : t -> dp
  (** The bare wire, when the continuous step drops every repeater. *)
end

type ('dp, 'continuous, 'sites) trace = {
  coarse : 'dp;
      (** line 1, or the min-delay seed when both libraries missed *)
  used_fallback_library : bool;
  refined : 'continuous option;  (** the first round's continuous step *)
  refined_library : Rip_dp.Repeater_library.t option;
      (** the first round's final library *)
  refined_sites : 'sites option;
      (** the first round's last final window's sites *)
  core_bound : 'dp option;
      (** the first round's {!SUBSTRATE.rounded_up} insertion, when it
          met the budget and so bounded that round's first window *)
  final_radius : int option;
      (** the radius where the first round's final window stopped;
          [None] when that round ran no final DP *)
  final : 'dp option;  (** the last improving round's final DP *)
  rescue : 'dp option;  (** [None] unless it ran and found an answer *)
  anchor : 'dp option;  (** [None] unless it ran and its insertion meets *)
}

val start_radius : int
(** The radius, in slots, a widening window pass starts at: 2. *)

module Make (S : SUBSTRATE) : sig
  val run :
    config:Config.t -> hooks:'event Hooks.t -> S.t -> budget:float ->
    ((S.dp, S.continuous, S.sites) trace * S.dp, float) result
  (** The narrowest pass answer meeting [budget] (to 1 ppm) with the
      trace of every pass, or else the minimum delay
      ({!SUBSTRATE.tau_min}).  [hooks.phase] brackets the ["coarse_dp"],
      ["refine"], ["final_dp"] and ["rescue_dp"] phases. *)
end
