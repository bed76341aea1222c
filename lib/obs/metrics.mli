(** A zero-dependency metrics registry: atomic counters, gauges and
    fixed-bucket log-scale histograms, renderable as Prometheus text.

    Every instrument is lock-free on the write path — counters and
    histogram buckets are [Atomic.t] ints, histogram sums are quantised
    to nanounits and accumulated with [Atomic.fetch_and_add] — so
    recording a sample from a worker domain never contends with other
    writers or with a scrape.  Snapshots are internally consistent by
    construction: a histogram snapshot's [count] is derived from the
    bucket counts read in one pass, so [count = sum of buckets] always
    holds, torn or not; under quiescence (writers joined) every recorded
    sample is visible exactly once. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  (** @raise Invalid_argument on a negative increment (counters are
      monotone). *)

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  type snapshot = {
    upper_bounds : float array;
        (** inclusive bucket upper bounds, strictly increasing; an
            implicit +infinity bucket follows the last *)
    counts : int array;  (** per-bucket counts, length [upper_bounds + 1] *)
    count : int;  (** total observations = sum of [counts] *)
    sum : float;  (** sum of observed values (nanounit-quantised) *)
  }

  val log_bounds : lo:float -> hi:float -> per_decade:int -> float array
  (** Log-scale bucket upper bounds from [lo] to at least [hi], with
      [per_decade] bounds per decade.
      @raise Invalid_argument unless [0 < lo < hi] and [per_decade > 0]. *)

  val default_latency_bounds : float array
  (** 1 microsecond to 100 seconds, five buckets per decade — wide enough
      for a cache hit and a pathological DP alike. *)

  val observe : t -> float -> unit
  (** Record one sample.  Negative and non-finite samples clamp to 0 /
      the overflow bucket respectively — a histogram must never lose an
      event its twin counter recorded. *)

  val snapshot : t -> snapshot

  val diff : snapshot -> snapshot -> snapshot
  (** [diff later earlier]: the samples recorded between two scrapes of
      the same histogram.
      @raise Invalid_argument when bounds differ or a count would go
      negative (snapshots from different instruments). *)

  type bound_estimate = Lower | Interpolated | Upper

  val quantile : ?estimate:bound_estimate -> snapshot -> float -> float
  (** [quantile s q] for [q] in [0,1]: the value at the shared
      {!Rip_numerics.Stats.quantile_rank} rank, located in the bucket
      cumulative counts.  [Interpolated] (default) interpolates linearly
      inside the bucket; [Lower]/[Upper] return the bucket's bounds — a
      sound under/over-estimate of the true sample quantile.  0 on an
      empty snapshot.
      @raise Invalid_argument for [q] outside [0,1]. *)
end

type t
(** A registry: a named collection of instruments with one render. *)

val create : unit -> t

val counter : t -> name:string -> help:string -> Counter.t
val gauge : t -> name:string -> help:string -> Gauge.t

val gauge_fn : t -> name:string -> help:string -> (unit -> float) -> unit
(** A gauge computed at scrape time (uptime, queue depth, cache size). *)

val histogram :
  ?bounds:float array -> t -> name:string -> help:string -> Histogram.t
(** Default bounds: {!Histogram.default_latency_bounds}. *)

val render : t -> string
(** Prometheus text exposition: [# HELP]/[# TYPE] then samples, metrics
    in registration order, histogram buckets as cumulative
    [name_bucket{le="..."}] with an explicit [+Inf] bucket, plus
    [name_sum]/[name_count].  HELP text is escaped per the exposition
    format (backslash and newline); floats are rendered at full
    precision so a scrape diff round-trips. *)

val parse_histograms : string -> (string * Histogram.snapshot) list
(** Parse the histogram families out of a {!render}-produced exposition
    (the client side of METRICS reconciliation).  Unknown lines are
    ignored; malformed histogram families are dropped. *)

val parse_scalars : string -> (string * float) list
(** The scalar samples of an exposition — counters, gauges, histogram
    [_sum]/[_count] series — in exposition order.  Comment and
    label-carrying lines are skipped (this registry never emits
    labels). *)

val scalar : string -> string -> float option
(** [scalar text name]: the first scalar sample named [name], the
    single-value lookup dashboards poll. *)

val registered_names : t -> string list
(** Registration order; duplicate registration raises. *)
