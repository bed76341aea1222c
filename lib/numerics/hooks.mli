(** The uniform solver-hook bundle: cooperative cancellation, a typed
    probe, and a phase-span hook, threaded through every solver entry
    point ({!Rip_dp.Power_dp.run}, [Refine.run], [Rip.solve]) instead of
    per-function piles of optional arguments.

    All three hooks share one contract: a hook that does nothing leaves
    the solve bit-identical to one without it.  [cancel] may raise to
    abort the solve with that exception (the engine's cancellation token
    raises [Cancelled]); [probe] observes solver events; [phase] brackets
    named pipeline phases in the shape of [Rip_obs.Trace.begin_span] —
    [phase name] is called on entry and the closure it returns on exit
    (also on exceptions).

    The record is polymorphic in the probe's event type so each solver
    layer publishes its own event vocabulary; {!contramap} re-tags events
    when one layer forwards a sub-solver's hooks. *)

type 'event t = {
  cancel : unit -> unit;  (** polled at solver-defined granularity *)
  probe : ('event -> unit) option;
      (** optional so call sites can skip building the event entirely —
          an absent probe costs one branch, never an allocation *)
  phase : (string -> unit -> unit) option;  (** span hook, see above *)
}

val default : 'event t
(** Never cancels, observes nothing: the hook bundle of a plain solve. *)

val make :
  ?cancel:(unit -> unit) ->
  ?probe:('event -> unit) ->
  ?phase:(string -> unit -> unit) ->
  unit -> 'event t

val poll : 'event t -> unit
(** [poll t] runs the cancellation hook. *)

val emit : 'event t -> 'event -> unit
(** [emit t e] feeds [e] to the probe if one is present.  Prefer matching
    on [t.probe] directly when building [e] allocates. *)

val contramap : ('a -> 'b) -> 'b t -> 'a t
(** [contramap f t] is [t] listening to ['a] events by re-tagging each
    through [f] — how a pipeline forwards its hooks to a sub-solver with
    a narrower event type. *)

val in_phase : 'event t -> string -> (unit -> 'a) -> 'a
(** [in_phase t name f] brackets [f] with the phase hook (a plain call
    when absent). *)
