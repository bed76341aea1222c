(** Cooperative cancellation for long-running solves.

    A token carries an optional absolute deadline on
    {!Rip_numerics.Cpu_clock.monotonic_seconds}; it fires once the clock
    passes it.  The worker side is wired in as the plain [cancel] poll of
    a {!Rip_numerics.Hooks.t} bundle handed to {!Rip_dp.Power_dp.run},
    {!Rip_refine.Refine.run} and {!Rip_core.Rip.solve} — those libraries
    never depend on this module; {!hook} adapts a token to the poll
    shape.  No thread watches the clock: the solver's own polls read it.

    Polling granularity is one DP candidate column / one REFINE
    iteration, so a token stops a pseudo-polynomial label explosion
    within one column's work of its deadline, not after the solve. *)

exception Cancelled
(** Raised by a {!hook} once its token's deadline has passed.  Escapes
    through the solver's polling points; never raised spontaneously. *)

type t
(** A cancellation token.  Immutable, so any thread may poll it. *)

val create : ?deadline:float -> unit -> t
(** A token firing at [deadline] (absolute monotonic seconds).  Without
    a deadline the token never fires and never reads the clock. *)

val deadline : t -> float option
(** The deadline the token was created with. *)

val cancelled : t -> bool
(** Whether the deadline has passed. *)

val hook : t -> unit -> unit
(** [hook t] is the poll closure to pass as [cancel]: it raises
    {!Cancelled} once [t] has fired and returns unit otherwise.  A token
    without a deadline yields [ignore]. *)

val protect : (unit -> 'a) -> 'a option
(** [protect f] runs [f], mapping an escaped {!Cancelled} to [None]. *)
