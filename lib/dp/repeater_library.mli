(** Discrete repeater libraries for the DP passes.

    Widths are in units of the minimal repeater width [u] and are kept
    ascending and de-duplicated.  The paper's experiments use three library
    shapes, all constructible here: the coarse RIP seed library
    ({!uniform} with min 80u, step 80u, 5 entries), the baseline [14]
    libraries ({!uniform} with min 10u, step [g], 10 entries), and the
    Table-2 fixed-range libraries ({!range} over (10u, 400u) with step
    [g_DP]). *)

type t = private float array
(** Ascending, distinct, strictly positive widths. *)

val create : float list -> t
(** Sorts and de-duplicates.
    @raise Invalid_argument on an empty list or a non-positive width. *)

val uniform : min_width:float -> step:float -> count:int -> t
(** [min_width + k * step] for [k = 0 .. count-1]. *)

val range : min_width:float -> max_width:float -> step:float -> t
(** [min_width, min_width + step, ...] up to [max_width] inclusive. *)

val round_to_grid :
  granularity:float -> min_width:float -> max_width:float -> float list -> t
(** RIP line 3: snap each continuous width to the nearest multiple of
    [granularity], clamp into [min_width, max_width], de-duplicate.  To keep
    the follow-up DP robust against rounding in the unlucky direction, the
    immediate grid neighbours of each snapped width (within the clamp) are
    included as well. *)

val round_up : t -> float -> float option
(** The narrowest width of the library at or above the given one, if
    any. *)

val widths : t -> float list
val to_array : t -> float array
val size : t -> int
val min_width : t -> float
val max_width : t -> float
val mem : t -> float -> bool
val pp : t Fmt.t
