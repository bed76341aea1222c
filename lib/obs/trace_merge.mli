(** Merge per-process Chrome-trace dumps into one cross-process
    timeline.

    Every {!Trace.to_chrome_json} dump carries a [ripMeta] header with
    the tracer's scope, pid and epoch.  Epochs are instants on the
    machine-wide [CLOCK_MONOTONIC] timebase, so rebasing each dump's
    timestamps onto the earliest epoch aligns all processes on one
    timeline without touching a wall clock; span ids are already
    collision-free across processes ({!Trace.scoped_span_id}), so the
    merged file groups cleanly by the [trace_id] span arg. *)

type dump = {
  label : string;  (** process label: the ripMeta scope, or the filename *)
  pid : int;
  epoch_us : float;  (** tracer epoch in microseconds (monotonic) *)
  events : Json.t list;  (** the raw [traceEvents] objects *)
}

val parse : ?label:string -> string -> (dump, string) result
(** Parse one Chrome-trace JSON document.  Dumps without [ripMeta]
    (foreign traces) load with scope [""], pid 0 and epoch 0. *)

val load_file : string -> (dump, string) result
(** {!parse} a file; the default label is the filename without
    extension when the dump carries no scope. *)

val merge : dump list -> string
(** One merged Chrome-trace JSON document: each dump's events rebased
    onto the earliest epoch, every process on its own [pid] track
    (reassigned when dumps collide or carry pid 0) labelled with a
    [process_name] metadata event. *)

val merge_files : string list -> (string, string) result

type trace_span = {
  span_process : string;  (** which dump (label) recorded it *)
  span_name : string;
  span_cat : string;
  span_args : (string * string) list;
}

val traces : dump list -> (string * trace_span list) list
(** Group spans across all dumps by their [trace_id] arg — the
    cross-process view of each distributed trace, in first-seen order.
    Spans without a [trace_id] arg are not included. *)

val analyse : trace_span list -> int * bool
(** [analyse spans] of one trace: the number of distinct router forward
    targets (spans of category ["router"] named [forward:<shard>]) and
    whether the trace links across processes — some span recorded by
    another process parents under a router forward span, so the wire
    TRACE header demonstrably carried the context across the hop.  Two
    or more targets in a linked trace are the signature of a failover:
    a replayed workload re-forwards to the same primary, but only a
    transport failure sends one request to a second shard. *)
