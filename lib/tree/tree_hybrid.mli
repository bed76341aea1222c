(** The hybrid scheme extended to trees — the paper's announced future
    work ("we are currently extending our hybrid scheme to the design of
    low-power interconnect trees").  It runs the same passes as two-pin
    RIP ({!Rip_core.Pipeline}) under the same {!Rip_core.Config.t}, over
    the tree substrate:

    - power DP: {!Tree_dp}, over {!Tree_dp.uniform_sites} and
      {!Tree_dp.around_sites};
    - min-delay DP: {!Tree_min_delay}, which seeds the continuous step
      when both coarse libraries miss and supplies the rescue's and the
      anchor's insertions;
    - continuous step: Lagrangian sizing at the current placements
      ({!Tree_sizing}).  The published REFINE's location moves are
      specific to chains, so the tree's step moves nothing and yields no
      multiplier to price the final pass with.

    [Tree_dp] takes no width bound, so no tree pass solves a subset
    first. *)

type trace =
  (Tree_dp.result, Tree_solution.t, float list array) Rip_core.Pipeline.trace
(** Every pass's answer; the continuous step's outcome is the sized
    insertion. *)

type report = {
  solution : Tree_solution.t;
  total_width : float;
  max_delay : float;  (** worst-sink Elmore delay, <= budget *)
  runtime_seconds : float;  (** thread-CPU time of the whole pipeline *)
  trace : trace;
}

val solve :
  ?config:Rip_core.Config.t -> ?hooks:'event Rip_core.Hooks.t ->
  Rip_tech.Process.t -> Tree.t -> budget:float ->
  (report, Rip_core.Rip.error) result
(** Power-minimal tree repeater insertion with every sink within
    [budget], or [Infeasible_budget] with the tree's {!tau_min} as the
    hint.  [config.refine] is chain-only and ignored.
    [hooks.phase] brackets the pipeline's phases; the tree solvers poll
    no [cancel] and emit no [probe] events. *)

val tau_min : Rip_tech.Process.t -> Tree.t -> float
(** Minimum worst-sink delay over the reference design space: the
    min-delay DP over {!Rip_core.Config.tau_min_library} at
    {!Rip_core.Config.tau_min_pitch}, anchoring tree timing targets. *)
