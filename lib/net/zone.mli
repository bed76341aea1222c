(** Forbidden zones: open intervals [(zs, ze)] of the net where no repeater
    may be placed (the net crosses a macro-block there).  Following the
    paper's Problem LPRI, the endpoints themselves are legal repeater
    positions. *)

type t = private {
  z_start : float;  (** um from the driver *)
  z_end : float;
}

val create : z_start:float -> z_end:float -> t
(** @raise Invalid_argument unless [0. <= z_start < z_end]. *)

val length : t -> float

val contains : t -> float -> bool
(** [contains z x] is true when [x] lies strictly inside the open interval
    [(z_start, z_end)]. *)

val normalize : t list -> t list
(** Sort by start and merge overlapping/touching zones.
    The result is sorted and pairwise disjoint. *)

val blocked : t list -> float -> bool
(** [blocked zones x] is true when some zone contains [x]. *)

val first_allowed_at_or_after : t list -> float -> float
(** Smallest legal position [>= x] given normalized [zones] (a position
    inside a zone snaps to that zone's end). *)

val last_allowed_at_or_before : t list -> float -> float
(** Largest legal position [<= x] given normalized [zones]. *)

val equal : t -> t -> bool
val pp : t Fmt.t
