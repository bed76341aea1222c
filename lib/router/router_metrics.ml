module Obs = Rip_obs.Metrics
module Cpu_clock = Rip_numerics.Cpu_clock

(* The router's own registry — deliberately separate from any shard's.
   The registry has no label support, so per-shard series are encoded in
   the metric name: shard "s0" yields [rip_router_shard_s0_forwarded_total]
   and so on.  Shard ids are protocol tokens over [A-Za-z0-9._-]; the
   dots and dashes Prometheus names cannot carry are mapped to '_'. *)

let sanitize id =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    id

type shard_instruments = {
  forwarded : Obs.Counter.t;  (* requests relayed to this shard *)
  failovers : Obs.Counter.t;  (* transport failures that triggered a retry elsewhere *)
  spills : Obs.Counter.t;
      (* requests this shard took as the key's second choice because
         the owner had more forwards outstanding *)
  outstanding : Obs.Gauge.t;  (* forwards sent here, not yet settled *)
  up : Obs.Gauge.t;  (* 1 while the shard is in the ring *)
}

type t = {
  registry : Obs.t;
  requests : Obs.Counter.t;
  local_degraded : Obs.Counter.t;
  toobig : Obs.Counter.t;
  rebalances : Obs.Counter.t;
  forward_seconds : Obs.Histogram.t;
  in_flight : Obs.Gauge.t;
  shards : (string * shard_instruments) list;
}

let create ~shard_ids () =
  let registry = Obs.create () in
  let started = Cpu_clock.monotonic_seconds () in
  let counter name help = Obs.counter registry ~name ~help in
  Obs.gauge_fn registry ~name:"rip_router_uptime_seconds"
    ~help:"Seconds since router start (monotonic clock)" (fun () ->
      Cpu_clock.monotonic_seconds () -. started);
  let requests = counter "rip_router_requests_total" "SOLVE requests received" in
  let local_degraded =
    counter "rip_router_degraded_total"
      "SOLVE requests answered DEGRADED by the router itself (no candidate \
       shard left, or every forward lost its transport)"
  in
  let toobig =
    counter "rip_router_toobig_total"
      "request frames answered TOOBIG by the router itself"
  in
  let rebalances =
    counter "rip_router_rebalances_total"
      "hash-ring membership changes (shard removed after down_after missed \
       polls or re-added on recovery)"
  in
  let forward_seconds =
    Obs.histogram registry ~name:"rip_router_forward_seconds"
      ~help:"round-trip seconds of requests forwarded to a shard"
  in
  let in_flight =
    Obs.gauge registry ~name:"rip_router_in_flight"
      ~help:"SOLVE requests currently inside the router"
  in
  let shards =
    List.map
      (fun id ->
        let p name help =
          counter (Printf.sprintf "rip_router_shard_%s_%s" (sanitize id) name)
            (Printf.sprintf "%s (shard %s)" help id)
        in
        let g name help =
          Obs.gauge registry
            ~name:
              (Printf.sprintf "rip_router_shard_%s_%s" (sanitize id) name)
            ~help:(Printf.sprintf "%s (shard %s)" help id)
        in
        ( id,
          {
            forwarded = p "forwarded_total" "requests forwarded";
            failovers =
              p "failovers_total"
                "transport failures that sent the request elsewhere";
            spills =
              p "spills_total"
                "requests taken as the key's second choice (owner with more \
                 forwards outstanding)";
            outstanding =
              g "outstanding"
                "forwards sent and not yet answered";
            up = g "up" "1 while the shard is in the ring";
          } ))
      shard_ids
  in
  List.iter (fun (_, i) -> Obs.Gauge.set i.up 1.0) shards;
  {
    registry;
    requests;
    local_degraded;
    toobig;
    rebalances;
    forward_seconds;
    in_flight;
    shards;
  }

let shard t id = List.assoc id t.shards
let render t = Obs.render t.registry
let registry t = t.registry
