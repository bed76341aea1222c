(** Continuous optimal repeater widths for fixed locations — Eqs. (5) and
    (8) of the paper (REFINE lines 1 and 7).

    Given repeater positions [x_1 < ... < x_n], find widths [w_i > 0] and
    the Lagrange multiplier [lambda] with

    - stationarity (Eq. (8)):
      [1 + lambda (Co (R_{i-1} + Rs/w_{i-1}) - Rs (C_i + Co w_{i+1}) / w_i^2) = 0]
    - active delay constraint (Eq. (5)): [tau_total(w) = tau_t]

    For fixed [lambda], Eq. (8) yields the closed form
    [w_i = sqrt (Rs (C_i + Co w_{i+1}) / (1/lambda + Co (R_{i-1} + Rs/w_{i-1})))]
    whose Gauss–Seidel sweeps converge geometrically, while
    [tau_total(w(lambda))] is strictly decreasing in [lambda], so the outer
    constraint is solved by monotone bracketing ({!Rip_numerics.Bracket}'s
    Illinois regula falsi).  This fixed point solves the same system as
    the root-finder the paper names (DESIGN §3.3). *)

type result = {
  widths : float array;  (** optimal continuous widths, length n *)
  lambda : float;  (** Lagrange multiplier, > 0 *)
  total_width : float;  (** sum of [widths] *)
  delay : float;  (** [tau_total] at the solution; equals the budget *)
  evaluations : int;
      (** root-finder evaluations of [tau_total(w(lambda))], each one a
          Gauss–Seidel solve at fixed [lambda]; a warm solve's count
          includes a failed warm bracket's *)
}

val tau_total :
  Rip_net.Geometry.t -> Rip_tech.Repeater_model.t ->
  positions:float array -> widths:float array -> float
(** Eq. (2) for continuous widths at the given positions (driver and
    receiver widths come from the net). *)

val min_delay_sizing :
  Rip_net.Geometry.t -> Rip_tech.Repeater_model.t ->
  positions:float array -> float array
(** The [lambda -> infinity] limit of Eq. (8): the fastest continuous
    sizing for these positions; its [tau_total] is the feasibility bound. *)

val min_delay_sizing_bounded :
  Rip_net.Geometry.t -> Rip_tech.Repeater_model.t ->
  positions:float array -> min_width:float -> max_width:float -> float array
(** As {!min_delay_sizing} with every width projected into
    [min_width, max_width] during the sweeps (projected fixed point) — the
    fastest *manufacturable* sizing, used by the analytical tau_min. *)

val solve :
  ?warm:result -> Rip_net.Geometry.t -> Rip_tech.Repeater_model.t ->
  positions:float array -> budget:float -> result option
(** [None] when even {!min_delay_sizing} misses the budget (the positions
    are infeasible).  With empty [positions] the answer is [Some] with no
    widths when the bare wire meets the budget, [None] otherwise.

    [warm] is a solve at nearby positions with as many repeaters, such as
    the previous REFINE round's: the multiplier is bracketed within
    [0.8 .. 1.25] of its [1/lambda] (widened fourfold at most three
    times) and the sweeps start from its widths.  When that bracket never
    straddles the budget the solve runs cold, as without [warm].  Either
    way the answer agrees with the cold solve's to the root finder's
    tolerance (widths and [lambda] within 1e-9 relative), and is [None]
    exactly when the cold solve is.
    @raise Invalid_argument when positions are not strictly increasing or
    lie outside (0, L). *)
