(** Power-minimal repeater insertion under a delay budget — the DP of
    Lillis, Cheng & Lin (ref. [14] of the paper), specialised to two-pin
    chains.

    Every DP state is a (candidate site, repeater width) pair; a state
    carries the Pareto frontier of [(arrival delay, total width so far)]
    labels over all ways of reaching it.  Transitions append one Eq.-(1)
    stage delay.  Labels exceeding the budget are discarded eagerly
    (delay only grows along the chain), and frontiers are bucketed by
    quantised total width so each distinct width keeps only its fastest
    label — the pseudo-polynomial bound of [14].

    {!run} on a {!type-request} is the one production DP every caller —
    [Rip.solve]'s passes, the baseline jobs, the service's rescue DP, the
    bench suite — routes through.  It runs {!Fast_dp}, which prunes
    candidates in the style of Li & Shi's O(bn{^2}) buffer insertion.
    {!reference} is the textbook boxed-label DP it must match bit for bit:
    the tests' oracle, and the bench's yardstick for [run]'s speed. *)

type stats = {
  sites : int;  (** candidate sites including driver and receiver *)
  transitions : int;  (** per-column source-state scans *)
  labels : int;  (** labels surviving pruning, summed over states *)
}

type result = {
  solution : Rip_elmore.Solution.t;
  total_width : float;  (** the optimised power proxy, u *)
  delay : float;  (** Elmore delay of [solution], seconds *)
  stats : stats;
}

type probe_event =
  | Column of {
      site : int;  (** candidate site index, 1-based along the chain *)
      width_index : int;  (** index into the site's width array *)
      collected : int;  (** width-bucketed labels before the Pareto prune *)
      kept : int;  (** frontier size after pruning (and any cap) *)
    }
      (** One DP state finished: its frontier was frozen.  Labels pruned
          at this state = [collected - kept].  {!run} and {!reference}
          both emit the event; {!run}'s counts reflect its additional
          forward-infeasibility pruning, which is exactly what makes the
          win visible in METRICS. *)

(** {1 Requests and the solve} *)

type request = {
  geometry : Rip_net.Geometry.t;
  repeater : Rip_tech.Repeater_model.t;
  library : Repeater_library.t;
  candidates : float list;
  budget : float;
  frontier_cap : int option;
      (** bounds every per-state frontier to that many labels (evenly
          sampled along the width axis, keeping the cheapest and the
          fastest).  Without it the DP is exact but pseudo-polynomial;
          with it, an anytime approximation that still never returns a
          budget-violating solution.  Must be at least 2.  When a cap
          actually binds on a state where {!run} pruned labels, {!run}
          and {!reference} may sample different survivors and cease to be
          bit-identical — a comparison that must hold on all inputs
          passes [None] (see DESIGN.md). *)
  width_bound : int option;
      (** an upper bound on the answer's total width in the DP's label
          units ({!width_units}), typically another request's answer on a
          subset of these candidates.  {!run} drops every label that
          cannot finish within it: at or above the optimum the answer is
          unchanged, below it the result is [None].  {!reference} ignores
          it and stays the unbounded oracle. *)
  price : float option;
      (** a Lagrangian multiplier on delay in label units per second,
          finite and positive, that sharpens [width_bound] (see
          {!Fast_dp.solve}); ignored without one.  Any such price leaves
          {!run}'s answer unchanged when no [frontier_cap] binds.
          {!reference} ignores it. *)
  arena : Fast_dp.Arena.t option;
      (** reusable label store for {!run} (ignored by {!reference});
          omitted, the solve allocates a private one *)
  hooks : probe_event Rip_numerics.Hooks.t;
      (** [cancel] is polled once per candidate column; [probe] receives
          one {!probe_event} per DP state; [phase] is unused at this
          layer.  All hooks are bit-identity-preserving observers. *)
}

val request :
  ?frontier_cap:int ->
  ?width_bound:int ->
  ?price:float ->
  ?arena:Fast_dp.Arena.t ->
  ?hooks:probe_event Rip_numerics.Hooks.t ->
  Rip_net.Geometry.t -> Rip_tech.Repeater_model.t ->
  library:Repeater_library.t -> candidates:float list -> budget:float ->
  request
(** Constructor with the defaults of a plain solve: no cap, no width
    bound, no price, no arena, {!Rip_numerics.Hooks.default}. *)

val width_units : result -> int
(** The result's total width in the DP's quantised label units: the sum
    of {!Fast_dp.width_units} over its repeaters, exactly the receiver
    label's width.  Pass it as [width_bound] to a request over a superset
    of the candidates. *)

val run : request -> result option
(** The solve.  [None] when no repeater assignment over the given sites
    and library meets the budget.  The returned solution's delay is
    recomputed through {!Rip_elmore.Delay.total} and always satisfies
    [delay <= budget].
    @raise Invalid_argument when [frontier_cap < 2] or [price] is not
    finite and positive. *)

val reference : request -> result option
(** The oracle: the boxed-label Hashtbl DP of [14], one frontier per
    state collected in a hash table.  It ignores [width_bound], [price]
    and [arena] and honours [frontier_cap] and the hooks.  Without a
    binding cap its answer is {!run}'s, bit for bit; tests compare the
    two, and the bench times {!run} against it.
    @raise Invalid_argument when [frontier_cap < 2]. *)
