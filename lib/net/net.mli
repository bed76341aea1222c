(** A multi-layer two-pin interconnect (Problem LPRI, Section 3):
    [m] wire segments in a linear chain from a driver of width [w_d] to a
    receiver of width [w_r], with forbidden zones where no repeater fits.
    Positions along the net are microns from the driver, in [0, L]. *)

type t = private {
  name : string;
  segments : Segment.t array;  (** non-empty, in routing order *)
  zones : Zone.t list;  (** normalized: sorted, disjoint, inside [0, L] *)
  driver_width : float;  (** w_d in u, strictly positive *)
  receiver_width : float;  (** w_r in u, strictly positive *)
}

val create :
  ?name:string -> segments:Segment.t list -> zones:Zone.t list ->
  driver_width:float -> receiver_width:float -> unit -> t
(** Validates and normalizes.  Zones may be given in any order; they are
    merged and must fit within the net (a zone end may touch [L]).
    @raise Invalid_argument on an empty segment list, non-positive pin
    widths, or a zone outside the net. *)

val total_length : t -> float
(** [L = sum l_i] in um. *)

val segment_count : t -> int

val total_wire_capacitance : t -> float
(** Sum over segments of [l_i *. c_i], F. *)

val total_wire_resistance : t -> float
(** Sum over segments of [l_i *. r_i], Ohm. *)

val position_legal : t -> float -> bool
(** True when the position is inside [0, L] and not strictly inside a
    forbidden zone. *)

val uniform : ?name:string -> Rip_tech.Layer.t -> length:float ->
  segment_count:int -> driver_width:float -> receiver_width:float -> t
(** Convenience: a zone-free uniform net split into equal segments. *)

val canonical_digest : t -> string
(** A hex digest of the net's electrical content: pin widths, per-segment
    (length, unit R, unit C) and normalized zones, each as its IEEE-754
    bits ({!Int64.bits_of_float}; no float is rendered as text).  Two nets
    share a digest iff they state the same insertion problem — the
    cosmetic net name and segment layer names are excluded.  [-0.] and
    [0.] differ, as they did when the digest hashed [%.17g] text.
    This is the net part of a solve-cache key
    ({!Rip_service.Solve_cache}). *)

val equal : t -> t -> bool
val pp : t Fmt.t
