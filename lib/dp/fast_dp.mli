(** The power DP's production solver: candidate pruning (Li/Shi-style
    redundancy predicates over the Lillis/Cheng/Lin label space) with
    flat-arena label storage.

    Semantics are those of {!Power_dp.reference}, the oracle: same states,
    same Eq.-(1) transitions, same admission test, bucket rule and Pareto
    freeze — plus a sound forward-infeasibility prune.  A backward pass
    computes each state's least stage-delay sum to the receiver ([minF]);
    a label with [delay + minF] beyond the budget (plus a 1e-9 relative
    slack for fold-order rounding) can never be an ancestor of a receiver
    label and is dropped before it is stored.  Because frontier delays
    strictly decrease along the width axis, the survivors of every source
    frontier form a suffix: the inner loop walks from the min-delay end
    and stops at the first inadmissible label, so pruned labels cost one
    comparison for the whole run, not one each.  Admitted labels land in
    a stamped open-addressing bucket table keyed by quantised width —
    per-column epochs replace clearing, and the reference tie rule
    (first admission wins equal delays) is preserved.  A per-site least
    frontier delay ([dsite]) additionally skips whole source states
    whose best label cannot reach the budget through the widest
    repeater.  An optional width bound adds a second backward table,
    [minW] (the least width a completion from each state must still add),
    and drops every label whose width plus [minW] exceeds the bound; an
    optional price on delay adds a third, [hl], and drops every label
    whose cheapest priced completion cannot finish within the bound.
    Returned placements are bit-identical to the oracle's whenever no
    [frontier_cap] binds and any width bound is at least the optimum
    (DESIGN.md 3.2a, "One DP and its oracle").

    This module is deliberately free of {!Power_dp} types, so it sits
    below the oracle and the result record; callers go through
    {!Power_dp.run}, which builds that record. *)

module Arena : sig
  type t
  (** A reusable label store: struct-of-arrays columns for the labels of
      one solve, the stamped width-bucket hash table, and the per-state
      index/minF/minW tables.  Not thread-safe — an arena belongs to one
      solve at a time; reusing it across sequential solves reaches zero
      steady-state allocation once the high-water mark is hit. *)

  val create : unit -> t
  (** An empty arena; columns are sized on first use. *)

  val capacity : t -> int
  (** Label slots currently allocated — stabilises under repeated solves
      of the same instance (the arena-reuse invariant the tests pin). *)
end

type stats = {
  sites : int;  (** candidate sites including driver and receiver *)
  transitions : int;  (** source states scanned over all columns *)
  labels : int;  (** labels surviving pruning, summed over states *)
}

val units_per_u : float
(** Label units per u of width (1000: labels count milli-u). *)

val width_units : float -> int
(** A width quantised to the DP's label units (milli-u); a label's width
    is the sum of its repeaters' units. *)

val solve :
  ?frontier_cap:int ->
  ?width_bound:int ->
  ?price:float ->
  ?cancel:(unit -> unit) ->
  ?on_column:
    (site:int -> width_index:int -> collected:int -> kept:int -> unit) ->
  ?arena:Arena.t ->
  Chain.t ->
  library:Repeater_library.t ->
  budget:float ->
  ((float * float) list * stats) option
(** [None] when no assignment meets the budget.  On success the
    placements are ascending [(position, width)] pairs, exactly
    {!Power_dp.reference}'s solution.

    [on_column] fires once per DP state after its frontier is frozen
    (labelled arguments, so an absent listener costs one branch and a
    present one allocates nothing); [collected] counts width buckets
    before the Pareto prune, [kept] the stored frontier size.  [cancel]
    is polled once per candidate column.

    [width_bound] is a total width in {!width_units}, typically the
    answer of the same DP over a subset of the candidates.  Labels that
    cannot reach the receiver within it are dropped.  At or above the
    optimum the result is unchanged; below it the result is [None].

    [price] sharpens a [width_bound] (and is ignored without one): a
    Lagrangian multiplier on delay, in label units per second, typically
    REFINE's multiplier.  The backward pass then also tabulates each
    state's least [width still added + price * delay still added], and
    the forward pass drops every label whose cheapest priced completion
    cannot finish within both the bound and the budget.  Any positive
    price leaves the result exactly as the unpriced bounded pass returns
    it, unless a [frontier_cap] binds (DESIGN.md 3.2a, "The price").

    [arena] supplies a reusable label store; omitted, a private one is
    allocated.
    @raise Invalid_argument when [frontier_cap < 2] or [price] is not
    finite and positive. *)
