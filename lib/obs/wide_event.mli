(** Wide events: exactly one structured JSON line per request, spooled
    per process with tail sampling.

    A wide event is the request's whole story in one record — digest,
    serving shard, cache outcome, degradation rung, failover/spill
    involvement, queue wait, DP labels pruned, deadline slack — so
    offline analysis (rip_trace query) joins nothing.  The schema is
    versioned ({!schema_version}, carried in every line); consumers
    reject lines from a schema they do not understand.

    Tail sampling keeps the spool small without losing the tail:
    anomalous events (every outcome other than [fresh]/[cached], and
    any failover/spill involvement) are kept at 100% —
    offline counts of them are exact, not estimates — plus everything
    above a latency threshold; the boring rest is sampled
    deterministically from the event identity, never a clock or PRNG,
    so replayed workloads spool identically. *)

val schema_version : int

type t = {
  schema : int;
  process : string;  (** emitting process scope: ["router"], ["s0"], ... *)
  trace_id : string;  (** [""] when the request was untraced *)
  digest : string;
  shard : string;  (** serving shard id ([""] when none was chosen) *)
  outcome : string;
      (** [fresh | cached | degraded | timeout | busy | toobig | error | shed] *)
  degrade_reason : string;  (** [""] unless [outcome = "degraded"] *)
  cache : string;  (** ["hit" | "miss" | ""] *)
  failover : bool;
  spilled : bool;
  labels_pruned : int;
      (** DP labels dropped at frontier freezes ([collected - kept]); the
          labels the fast DP skips before collection are not counted *)
  queue_wait : float;  (** seconds *)
  latency : float;  (** seconds, request wall time at the emitter *)
  deadline_slack : float;
      (** seconds left at completion; [nan] = no deadline *)
}

val empty : t
(** All-blank event at the current schema — build events with record
    update syntax so adding a field never touches call sites. *)

val to_line : t -> string
(** One compact JSON object, no trailing newline. *)

val of_line : string -> (t, string) result
(** Inverse of {!to_line}; unknown fields are ignored, a missing or
    unsupported [schema] is an error. *)

(** {2 Tail sampling} *)

type sampler = {
  latency_threshold : float;  (** keep everything at or above, seconds *)
  sample_ratio : float;  (** [0,1]: fraction of the boring rest kept *)
}

val default_sampler : sampler
(** 100 ms threshold, 5% of the rest. *)

val keep_all : sampler

val interesting : t -> bool
(** The always-keep predicate: any outcome other than [fresh]/[cached],
    or any failover/spill involvement. *)

val keep : sampler -> t -> bool

(** {2 The bounded spool} *)

type spool

val create : ?max_bytes:int -> ?sampler:sampler -> string -> spool
(** Open (truncating) a JSONL spool at a path.  When the file would
    exceed [max_bytes] (default 4 MiB) it rotates to [path.1]
    (clobbering the previous generation), bounding disk at ~2x
    [max_bytes].
    @raise Invalid_argument on [max_bytes < 4096] or a sampler with
    [sample_ratio] outside [0,1] or a negative threshold. *)

val emit : spool -> t -> unit
(** Sample, serialise, append, flush.  Thread-safe; dropped events are
    only counted ({!sampled_out}). *)

val written : spool -> int
val sampled_out : spool -> int
val path : spool -> string
val close : spool -> unit

(** {2 Offline loading} *)

val load_file : string -> t list
(** Parse a spool file, skipping unparsable lines (a torn tail after a
    crash is expected, not an error); an unreadable path yields []. *)

val load_files : string list -> t list
