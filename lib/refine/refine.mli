(** Algorithm REFINE (Figure 5 of the paper).

    From an initial discrete insertion solution, iteratively (a) solve the
    continuous optimal widths and the multiplier [lambda] for the current
    locations ({!Width_solver}), (b) evaluate the one-sided location
    derivatives ({!Movement}), (c) slide each repeater one step in the
    width-reducing direction — skipping moves that would land inside a
    forbidden zone, cross a neighbour, or leave the net — and (d) repeat
    until the relative total-width improvement stays below [epsilon] for
    [patience] consecutive iterations.  A move round that increases the
    total width is reverted and the step halved (backtracking), so the
    first-order move rule of Eq. (13) cannot oscillate around an optimum;
    the walk ends when the step shrinks below a tenth of [move_step].

    The result carries continuous widths; RIP subsequently re-discretises
    them (library rounding + final DP). *)

type config = {
  move_step : float;  (** the paper's "preselected distance", um *)
  epsilon : float;  (** the stopping threshold eps_0 on relative gain *)
  max_iterations : int;
  min_gap : float;  (** minimum spacing kept between repeaters, um *)
  patience : int;
      (** consecutive below-epsilon iterations tolerated before stopping:
          individual 50 um moves gain little each but add up over a long
          walk, so a single quiet iteration must not end the loop *)
  hop_zones : bool;
      (** the paper's future-work variant: instead of vetoing a move that
          lands inside a forbidden zone, hop to the zone's far edge when
          that stays within [max_hop] of the current position *)
  max_hop : float;  (** um; only used when [hop_zones] *)
}

val default_config : config
(** 50 um step, eps_0 = 1e-4, 256 iterations max, 1 um gap, patience 4,
    no zone hopping. *)

type probe_event =
  | Iteration of {
      iteration : int;
      moved : int;
      total_width : float;
      evaluations : int;
    }
      (** One move-round finished: repeaters moved this round, the total
          width after the round's re-solve (unchanged when the round was
          reverted) and the width-solver evaluations since the previous
          event (the first event also carries the initial solve's), so
          the events' evaluations add up to the outcome's. *)

type outcome = {
  solution : Rip_elmore.Solution.t;  (** best solution seen (continuous widths) *)
  lambda : float;  (** multiplier at the returned solution *)
  iterations : int;  (** while-loop iterations executed *)
  moves : int;  (** total repeater moves applied *)
  initial_total_width : float;  (** width after the first solve (Line 1) *)
  total_width : float;  (** width of the returned solution *)
  delay : float;  (** its delay; equals the budget to solver tolerance *)
  converged : bool;  (** stopped on epsilon rather than iteration cap *)
  evaluations : int;
      (** root-finder evaluations ({!Width_solver.result.evaluations})
          summed over the run's width solves; a re-solve that finds the
          moved positions infeasible returns no count and is left out *)
}

val run :
  ?config:config ->
  ?hooks:probe_event Rip_numerics.Hooks.t ->
  Rip_net.Geometry.t -> Rip_tech.Repeater_model.t ->
  budget:float -> initial:Rip_elmore.Solution.t -> outcome option
(** [None] when even the fastest continuous sizing at the initial locations
    misses the budget.  The initial solution's widths are ignored (Line 1
    recomputes them); its locations seed the iteration.  Each re-solve
    after a move round is warm-started from the current solve
    ({!Width_solver.solve}'s [warm]).

    [hooks.cancel] is polled once per iteration of the move loop; returning
    unit leaves the run bit-identical to one without the hook, raising
    aborts it with that exception (see {!Rip_engine.Cancel}).
    [hooks.probe] receives one [Iteration] event per move round.  Both
    are bit-identity-preserving observers; with
    {!Rip_numerics.Hooks.default} nothing is observed and nothing is
    allocated. *)
