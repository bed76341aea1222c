(** Scalar root finding on monotone or at least sign-changing functions.

    Used by the width solver to find the Lagrange multiplier satisfying the
    delay constraint, where the objective is strictly monotone. *)

type outcome =
  | Root of float  (** a root within tolerance *)
  | No_sign_change of float * float
      (** the expanded bracket [(lo, hi)] never straddled zero *)

val expand_bracket :
  f:(float -> float) -> lo:float -> hi:float -> max_expansions:int ->
  (float * float) option
(** [expand_bracket ~f ~lo ~hi ~max_expansions] grows [hi] geometrically
    (and shrinks [lo] toward 0 when positive) until [f lo] and [f hi] have
    opposite signs.  Returns the bracketing pair, or [None]. *)

val bisect :
  f:(float -> float) -> lo:float -> hi:float -> tol:float -> max_iter:int ->
  float
(** [bisect ~f ~lo ~hi ~tol ~max_iter] finds a root of [f] inside a bracket
    with opposite-sign endpoints by Illinois regula falsi: false-position
    steps, with the value at an end kept twice in a row halved so both
    ends converge (plain regula falsi stalls one end on convex or concave
    [f]).  Every step stays inside the bracket; a step rounding puts on an
    end becomes the midpoint.  [tol] bounds the final bracket width
    relative to the magnitude of the endpoints; [max_iter] bounds the
    steps, after which the bracket's midpoint is returned.
    @raise Invalid_argument when the endpoints do not straddle zero. *)

val find_root_within :
  max_expansions:int -> f:(float -> float) -> lo:float -> hi:float ->
  tol:float -> outcome
(** {!expand_bracket} the guess, then {!bisect} it (at most 200 steps);
    each bracket end is evaluated once. *)

val find_root :
  f:(float -> float) -> lo:float -> hi:float -> tol:float -> outcome
(** [find_root_within ~max_expansions:60]. *)
