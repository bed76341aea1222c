(** The router's own instrument registry (separate from any shard's).

    Per-shard series are encoded in the metric name —
    [rip_router_shard_<id>_forwarded_total] etc., with shard-id
    characters outside [A-Za-z0-9_] mapped to ['_'] — because the
    registry has no label support. *)

module Obs = Rip_obs.Metrics

type shard_instruments = {
  forwarded : Obs.Counter.t;
  failovers : Obs.Counter.t;
  spills : Obs.Counter.t;
      (** requests this shard took as the key's second choice because
          the owner had more forwards outstanding *)
  outstanding : Obs.Gauge.t;
      (** forwards sent to this shard, not yet answered *)
  up : Obs.Gauge.t;  (** 1 while the shard is in the ring *)
}

type t = {
  registry : Obs.t;
  requests : Obs.Counter.t;
  local_degraded : Obs.Counter.t;
  toobig : Obs.Counter.t;  (** oversized frames the router answered *)
  rebalances : Obs.Counter.t;
  forward_seconds : Obs.Histogram.t;
  in_flight : Obs.Gauge.t;
  shards : (string * shard_instruments) list;
}

val create : shard_ids:string list -> unit -> t
(** All shard gauges start [up = 1]. *)

val sanitize : string -> string

val shard : t -> string -> shard_instruments
(** @raise Not_found for an unknown id. *)

val render : t -> string
val registry : t -> Obs.t
