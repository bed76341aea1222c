(* The cluster front end.  router.mli states the routing, admission
   and failure-detection contract and DESIGN.md §6d the reasoning
   behind it.  Connections are served by the shared
   [Rip_service.Frontend]; this module answers what arrives on them. *)

module Client = Rip_service.Client
module Frontend = Rip_service.Frontend
module Protocol = Rip_service.Protocol
module Wire = Rip_service.Wire
module Fallback = Rip_service.Fallback
module Obs = Rip_obs.Metrics
module Trace = Rip_obs.Trace
module Wide_event = Rip_obs.Wide_event
module Cpu_clock = Rip_numerics.Cpu_clock
module Net = Rip_net.Net

type shard_spec = { id : string; socket : string; weight : int }

type config = {
  pool_size : int;  (* connections kept per shard *)
  request_timeout : float;  (* per-forward socket timeout, seconds *)
  poll_interval : float;  (* liveness tick, seconds *)
  vnodes_per_weight : int;
  down_after : int;  (* missed polls before a shard leaves the ring *)
  max_frame_bytes : int;
  tracer : Trace.t option;  (* ingress/forward spans + TRACE propagation *)
  spool : Wide_event.spool option;  (* one wide event per request *)
}

let default_config =
  {
    pool_size = 8;
    request_timeout = 60.0;
    poll_interval = 0.25;
    vnodes_per_weight = Ring.default_vnodes_per_weight;
    down_after = 2;
    max_frame_bytes = Wire.default_max_frame_bytes;
    tracer = None;
    spool = None;
  }

type shard = {
  spec : shard_spec;
  pool : Client.Pool.t;  (* forwards, [request_timeout] *)
  control : Client.Pool.t;  (* HEALTH polls and METRICS scrapes *)
  inst : Router_metrics.shard_instruments;
  (* The remaining fields are guarded by the router mutex. *)
  mutable up : bool;  (* in the ring *)
  mutable missed_polls : int;
  mutable queue_bound : int;  (* the shard's --queue-depth (HEALTH) *)
  mutable high_water : int;  (* the shard's --high-water (HEALTH) *)
  mutable outstanding : int;  (* forwards sent, not yet answered *)
}

type t = {
  process : Rip_tech.Process.t;
  config : config;
  shards : shard array;
  metrics : Router_metrics.t;
  frontend : Frontend.t;
  mutex : Mutex.t;  (* ring + shard state + in_flight *)
  seq : int Atomic.t;  (* minted-trace sequence at ingress *)
  mutable ring : Ring.t;
  mutable in_flight : int;
}

let create ?(config = default_config) ~shards process =
  if List.length shards = 0 then
    invalid_arg "Router.create: at least one shard is required";
  if config.pool_size < 1 then
    invalid_arg "Router.create: pool_size must be >= 1";
  if config.poll_interval <= 0.0 then
    invalid_arg "Router.create: poll_interval must be positive";
  if config.down_after < 1 then
    invalid_arg "Router.create: down_after must be >= 1";
  let ring =
    Ring.create ~vnodes_per_weight:config.vnodes_per_weight
      (List.map (fun s -> (s.id, s.weight)) shards)
  in
  let metrics =
    Router_metrics.create ~shard_ids:(List.map (fun s -> s.id) shards) ()
  in
  (* A shard answers HEALTH and METRICS on its connection thread,
     never behind a solve, so one left unanswered for four ticks is a
     missed poll: a wedged shard stalls the serial poller for that
     long, not for [request_timeout].  The timeouts bound each dial
     too, which blocks once a wedged shard's backlog is full. *)
  let control_timeout = 4.0 *. config.poll_interval in
  let shard_states =
    Array.of_list
      (List.map
         (fun spec ->
           let pool ~timeout ~size =
             Client.Pool.create ~timeout ~size (fun () ->
                 Client.connect_unix ~timeout spec.socket)
           in
           {
             spec;
             pool = pool ~timeout:config.request_timeout ~size:config.pool_size;
             control = pool ~timeout:control_timeout ~size:1;
             inst = Router_metrics.shard metrics spec.id;
             up = true;
             missed_polls = 0;
             queue_bound = 64;
             high_water = 48;
             outstanding = 0;
           })
         shards)
  in
  {
    process;
    config;
    shards = shard_states;
    metrics;
    frontend = Frontend.create ~max_frame_bytes:config.max_frame_bytes ();
    mutex = Mutex.create ();
    seq = Atomic.make 0;
    ring;
    in_flight = 0;
  }

let metrics t = t.metrics

let stopping t = Frontend.stopping t.frontend
let request_shutdown t = Frontend.request_shutdown t.frontend

(* Whether [shard] is in the ring; the request path asks before a
   failover forward, the cluster block before a scrape. *)
let is_up t shard =
  Mutex.lock t.mutex;
  let up = shard.up in
  Mutex.unlock t.mutex;
  up

(* --- Poller: failure detection --------------------------------------------- *)

(* One HEALTH answer per tick does everything a poll is for: the shard
   is alive (a shard that was down re-enters the ring, a counted
   rebalance) and its admission bounds are current (a restarted shard
   may come back with another configuration). *)
let on_health t shard (h : Protocol.health) =
  Mutex.lock t.mutex;
  let re_add = not shard.up in
  if re_add then begin
    t.ring <- Ring.add t.ring shard.spec.id ~weight:shard.spec.weight;
    shard.up <- true
  end;
  shard.missed_polls <- 0;
  shard.queue_bound <- h.Protocol.health_queue_depth;
  shard.high_water <- h.Protocol.health_high_water;
  Mutex.unlock t.mutex;
  if re_add then begin
    Obs.Gauge.set shard.inst.up 1.0;
    Obs.Counter.incr t.metrics.rebalances
  end

(* The [down_after]-th consecutive miss takes the shard out of the
   ring at once: its arcs fall to the survivors, a counted rebalance. *)
let on_poll_failure t shard =
  Mutex.lock t.mutex;
  shard.missed_polls <- shard.missed_polls + 1;
  let went_down = shard.up && shard.missed_polls >= t.config.down_after in
  if went_down then begin
    t.ring <- Ring.remove t.ring shard.spec.id;
    shard.up <- false
  end;
  Mutex.unlock t.mutex;
  if went_down then begin
    Obs.Gauge.set shard.inst.up 0.0;
    Obs.Counter.incr t.metrics.rebalances
  end

let poll_shard t shard =
  match Client.Pool.request shard.control Protocol.Health with
  | Ok (Protocol.Health_frame h) -> on_health t shard h
  | Ok _ | Error _ -> on_poll_failure t shard

let rec poll_loop t =
  if not (stopping t) then begin
    Array.iter (poll_shard t) t.shards;
    Thread.delay t.config.poll_interval;
    poll_loop t
  end

(* --- Local degraded answers ------------------------------------------------ *)

(* No shard left to try, or every forward tried lost its transport: the
   router answers from its own fallback tier.  No shard saw the request,
   so the router says why on stderr — the route decision and each
   forward's transport error. *)
let worker_lost t ~budget ~net ~key why =
  Obs.Counter.incr t.metrics.local_degraded;
  Printf.eprintf "router: DEGRADED worker-lost for net %s: %s\n%!" key why;
  Fallback.degraded ~process:t.process ~budget ~net Protocol.Worker_lost

(* --- Request routing ------------------------------------------------------- *)

let find_shard t id =
  match Array.find_opt (fun s -> String.equal s.spec.id id) t.shards with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Router: unknown shard %s" id)

type routing =
  | Forward of { target : shard; failover : shard option; spilled : bool }
  | No_candidate

(* Every shard in the ring is up, so both of a key's choices are. *)
let route t key =
  Mutex.lock t.mutex;
  let decision =
    match Ring.lookup_pair t.ring key with
    | None -> No_candidate
    | Some (primary_id, secondary_id) -> (
        let primary = find_shard t primary_id in
        let secondary = Option.map (find_shard t) secondary_id in
        (* Two choices: a busier owner loses the request to an idler
           second choice; a tie keeps the owner's cache. *)
        match secondary with
        | Some s when s.outstanding < primary.outstanding ->
            Forward { target = s; failover = Some primary; spilled = true }
        | _ ->
            Forward { target = primary; failover = secondary; spilled = false })
  in
  Mutex.unlock t.mutex;
  decision

let track_outstanding t shard delta =
  Mutex.lock t.mutex;
  shard.outstanding <- shard.outstanding + delta;
  (* Set under the lock, so the gauge cannot end on a stale value. *)
  Obs.Gauge.set shard.inst.outstanding (float_of_int shard.outstanding);
  Mutex.unlock t.mutex

(* One forward attempt: the [forward:<id>] span and the shard's
   outstanding count that [route] compares both cover exactly the
   pool's round trip.  An answer lands in [rip_router_forward_seconds];
   a transport failure counts as a failover away from this shard. *)
let forward ~args t shard frame =
  let sent_at = Cpu_clock.monotonic_seconds () in
  track_outstanding t shard 1;
  let result =
    Trace.span t.config.tracer ~cat:"router" ~args
      ("forward:" ^ shard.spec.id)
      (fun () -> Client.Pool.request shard.pool frame)
  in
  track_outstanding t shard (-1);
  (match result with
  | Ok _ ->
      Obs.Counter.incr shard.inst.forwarded;
      Obs.Histogram.observe t.metrics.forward_seconds
        (Cpu_clock.monotonic_seconds () -. sent_at)
  | Error _ -> Obs.Counter.incr shard.inst.failovers);
  result

let serve_solve t (solve : Protocol.solve) =
  let { Protocol.budget; deadline_ms; trace; net; net_text = _ } = solve in
  let started = Cpu_clock.monotonic_seconds () in
  Obs.Counter.incr t.metrics.requests;
  let key = Net.canonical_digest net in
  let tracer = t.config.tracer in
  let scope =
    match tracer with
    | Some tr when not (String.equal (Trace.scope tr) "") -> Trace.scope tr
    | _ -> "router"
  in
  (* Ingress: propagate the client's TRACE context, or mint a
     deterministic root when observability is on — the trace id is the
     join key every downstream span and wide event carries. *)
  let context =
    match trace with
    | Some c -> Some c
    | None ->
        if Option.is_some tracer || Option.is_some t.config.spool then
          Some
            (Trace.make_context ~scope ~digest:key
               ~seq:(Atomic.fetch_and_add t.seq 1) ())
        else None
  in
  let sid name = Trace.span_id ~scope ~digest:key name in
  let span_args ~parent name =
    ("span_id", sid name)
    :: (match context with
       | Some c ->
           [ ("trace_id", c.Trace.trace_id); ("parent_span_id", parent) ]
       | None -> [])
  in
  let ingress_id = sid "ingress" in
  (* A forwarded frame is the request's own net lines under a header
     carrying a child context parented on that shard's forward span, so
     shard-side spans nest under the router's forward in the merged
     timeline. *)
  let frame_for shard =
    let trace =
      Option.map
        (fun c -> Trace.child c ~span_id:(sid ("forward:" ^ shard.spec.id)))
        context
    in
    Protocol.Solve (Protocol.with_trace solve trace)
  in
  let fwd_args shard =
    span_args ~parent:ingress_id ("forward:" ^ shard.spec.id)
  in
  let served_by = ref "" and failed_over = ref false in
  let spilled_flag = ref false in
  let ingress_parent =
    match context with
    | Some c -> c.Trace.parent_span_id
    | None -> Trace.root_span_id
  in
  let response =
    Trace.span tracer ~cat:"router"
      ~args:(span_args ~parent:ingress_parent "ingress")
      "ingress"
      (fun () ->
        match route t key with
        | No_candidate ->
            (* Every shard is gone; the router still answers. *)
            worker_lost t ~budget ~net ~key "no candidate shard"
        | Forward { target; failover; spilled } -> (
            served_by := target.spec.id;
            spilled_flag := spilled;
            if spilled then Obs.Counter.incr target.inst.spills;
            let forward_to shard =
              forward ~args:(fwd_args shard) t shard (frame_for shard)
            in
            let failed shard e = Printf.sprintf "%s: %s" shard.spec.id e in
            match forward_to target with
            | Ok response -> response
            | Error e -> (
                (* The poller will notice the death on its own tick; the
                   request fails over right now. *)
                match failover with
                | Some other when is_up t other -> (
                    failed_over := true;
                    served_by := other.spec.id;
                    match forward_to other with
                    | Ok response -> response
                    | Error e' ->
                        worker_lost t ~budget ~net ~key
                          (failed target e ^ "; " ^ failed other e'))
                | _ ->
                    worker_lost t ~budget ~net ~key
                      (failed target e ^ "; no failover shard available"))))
  in
  (* Exactly one wide event per request through the router, always kept
     by the tail sampler when anything interesting happened (degraded,
     failover, spill), so offline [rip_trace query] counts reconcile
     exactly with the load generator's. *)
  (match t.config.spool with
  | None -> ()
  | Some spool ->
      let finished = Cpu_clock.monotonic_seconds () in
      let outcome, degrade_reason = Protocol.outcome_of_response response in
      (* Only a shard's answer says whether it hit its cache. *)
      let cache =
        match response with
        | Protocol.Result { served = Protocol.Cached; _ } -> "hit"
        | Protocol.Result { served = Protocol.Fresh; _ } -> "miss"
        | _ -> ""
      in
      Wide_event.emit spool
        {
          Wide_event.empty with
          process = scope;
          trace_id =
            (match context with Some c -> c.Trace.trace_id | None -> "");
          digest = key;
          shard = !served_by;
          outcome;
          degrade_reason;
          cache;
          failover = !failed_over;
          spilled = !spilled_flag;
          latency = finished -. started;
          deadline_slack =
            (match deadline_ms with
            | None -> Float.nan
            | Some ms -> started +. (ms /. 1000.0) -. finished);
        });
  response

(* --- Aggregated views ------------------------------------------------------ *)

(* The cluster block of the router's METRICS: the cluster as one
   server, under the names a shard uses.  Every unlabelled sample of
   each up shard's exposition is summed by name, in first-seen
   order; uptime is left out (the router's own is
   [rip_router_uptime_seconds]) and histogram buckets carry labels, so
   only their [_sum]/[_count] series add up.  The answers the router
   gave itself never reached a shard: a local DEGRADED answer counts in
   [rip_requests_total], [rip_degraded_total] and [rip_cache_misses]
   (a shard looks its cache up before it degrades), which keeps
   requests = solved + errors + busy + timeouts + degraded and
   misses = requests - hits, and a local TOOBIG in [rip_toobig_total]
   only (an oversized frame is not a SOLVE request, as on a server).  A
   restarted shard's counters start from zero, so the sums restart with
   it, like any Prometheus counter. *)
let cluster_block t =
  let totals = Hashtbl.create 64 and order = ref [] in
  let add (name, value) =
    match Hashtbl.find_opt totals name with
    | Some total -> Hashtbl.replace totals name (total +. value)
    | None ->
        Hashtbl.add totals name value;
        order := name :: !order
  in
  Array.iter
    (fun shard ->
      if is_up t shard then
        match Client.Pool.request shard.control Protocol.Metrics with
        | Ok (Protocol.Metrics_frame body) ->
            List.iter
              (fun ((name, _) as sample) ->
                if not (String.equal name "rip_uptime_seconds") then
                  add sample)
              (Obs.parse_scalars body)
        | Ok _ | Error _ -> ())
    t.shards;
  let local_degraded =
    float_of_int (Obs.Counter.value t.metrics.local_degraded)
  in
  add ("rip_requests_total", local_degraded);
  add ("rip_degraded_total", local_degraded);
  add ("rip_cache_misses", local_degraded);
  add ("rip_toobig_total", float_of_int (Obs.Counter.value t.metrics.toobig));
  String.concat ""
    (List.rev_map
       (fun name -> Printf.sprintf "%s %.17g\n" name (Hashtbl.find totals name))
       !order)

let metrics_body t = Router_metrics.render t.metrics ^ cluster_block t

let health t =
  Mutex.lock t.mutex;
  let in_flight = t.in_flight in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 t.shards in
  let queue_depth = sum (fun s -> s.queue_bound) in
  let high_water = sum (fun s -> s.high_water) in
  Mutex.unlock t.mutex;
  {
    Protocol.health_shard_id = "router";
    health_in_flight = in_flight;
    health_queue_depth = queue_depth;
    health_high_water = high_water;
  }

(* --- Connection handling (see {!Frontend}) --------------------------------- *)

let track_in_flight t delta =
  Mutex.lock t.mutex;
  t.in_flight <- t.in_flight + delta;
  let now = t.in_flight in
  Mutex.unlock t.mutex;
  Obs.Gauge.set t.metrics.in_flight (float_of_int now)

let handlers t =
  {
    Frontend.solve =
      (fun solve ->
        track_in_flight t 1;
        Fun.protect
          ~finally:(fun () -> track_in_flight t (-1))
          (fun () -> serve_solve t solve));
    metrics = (fun () -> metrics_body t);
    health = (fun () -> health t);
    on_toobig = (fun () -> Obs.Counter.incr t.metrics.toobig);
  }

let run t listen_fd =
  (* On a router already stopping, [Frontend.run] returns at once and
     the poller exits at its first check. *)
  let poller = Thread.create poll_loop t in
  Frontend.run t.frontend (handlers t) listen_fd;
  Thread.join poller;
  Array.iter
    (fun shard ->
      Client.Pool.close_all shard.pool;
      Client.Pool.close_all shard.control)
    t.shards
