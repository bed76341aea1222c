(* The cluster front end.  router.mli states the routing, admission,
   failure-detection and tail-tolerance contract and DESIGN.md §6d/§6e
   the reasoning behind it.  Connections are served by the shared
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
  down_after : int;  (* missed polls before a shard is down *)
  remove_after : int;  (* further misses before ring removal *)
  solver : Rip_core.Config.t option;  (* for the local fallback tier *)
  max_frame_bytes : int;
  hedge : bool;  (* hedge slow forwards onto the failover candidate *)
  hedge_delay_floor : float;  (* seconds; hedge delay never below this *)
  hedge_delay_factor : float;  (* hedge delay = factor * forward p99 *)
  breaker_threshold : int;  (* consecutive transport failures to open *)
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
    remove_after = 8;
    solver = None;
    max_frame_bytes = Wire.default_max_frame_bytes;
    hedge = true;
    hedge_delay_floor = 0.05;
    hedge_delay_factor = 1.5;
    breaker_threshold = 3;
    tracer = None;
    spool = None;
  }

(* The circuit breaker shadows the poller's failure detector on a much
   faster clock: the poller needs [down_after] ticks to mark a shard
   down, but [breaker_threshold] consecutive transport failures on the
   request path trip the breaker immediately, taking the shard out of
   the candidate set before more requests burn a timeout each.  A
   successful poll while open moves to half-open (the poller is the
   probe); the next forwarded request decides — success closes,
   failure re-opens. *)
type breaker_state = Breaker_closed | Breaker_open | Breaker_half_open

type shard = {
  spec : shard_spec;
  pool : Client.Pool.t;
  inst : Router_metrics.shard_instruments;
  (* The remaining fields are guarded by the router mutex. *)
  mutable up : bool;
  mutable missed_polls : int;
  mutable down_polls : int;
  mutable in_ring : bool;
  mutable queue_bound : int;  (* the shard's --queue-depth (HEALTH) *)
  mutable high_water : int;  (* the shard's --high-water (HEALTH) *)
  mutable breaker : breaker_state;
  mutable breaker_failures : int;  (* consecutive transport failures *)
  mutable outstanding : int;  (* forwards sent, not yet received/abandoned *)
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
  if config.down_after < 1 || config.remove_after < 1 then
    invalid_arg "Router.create: down_after and remove_after must be >= 1";
  if config.hedge_delay_floor < 0.0 || config.hedge_delay_factor <= 0.0 then
    invalid_arg
      "Router.create: hedge_delay_floor must be >= 0 and hedge_delay_factor \
       positive";
  if config.breaker_threshold < 1 then
    invalid_arg "Router.create: breaker_threshold must be >= 1";
  let ring =
    Ring.create ~vnodes_per_weight:config.vnodes_per_weight
      (List.map (fun s -> (s.id, s.weight)) shards)
  in
  let metrics =
    Router_metrics.create ~shard_ids:(List.map (fun s -> s.id) shards) ()
  in
  let shard_states =
    Array.of_list
      (List.map
         (fun spec ->
           let socket = spec.socket in
           {
             spec;
             pool =
               Client.Pool.create ~timeout:config.request_timeout
                 ~size:config.pool_size (fun () ->
                   Client.connect_unix socket);
             inst = Router_metrics.shard metrics spec.id;
             up = true;
             missed_polls = 0;
             down_polls = 0;
             in_ring = true;
             queue_bound = 64;
             high_water = 48;
             breaker = Breaker_closed;
             breaker_failures = 0;
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

(* --- Circuit breaker ------------------------------------------------------- *)

let breaker_gauge = function
  | Breaker_closed -> 0.0
  | Breaker_open -> 1.0
  | Breaker_half_open -> 2.0

(* [available] is the request path's view of a shard: poller liveness
   AND a breaker that is not open.  Half-open admits traffic — the next
   forward is the probe that decides.  Callers hold the router mutex. *)
let available shard = shard.up && shard.breaker <> Breaker_open

let shard_available t shard =
  Mutex.lock t.mutex;
  let a = available shard in
  Mutex.unlock t.mutex;
  a

let note_forward_ok t shard =
  Mutex.lock t.mutex;
  shard.breaker_failures <- 0;
  let closed = shard.breaker <> Breaker_closed in
  shard.breaker <- Breaker_closed;
  Mutex.unlock t.mutex;
  if closed then
    Obs.Gauge.set shard.inst.breaker_state (breaker_gauge Breaker_closed)

let note_forward_error t shard =
  Mutex.lock t.mutex;
  shard.breaker_failures <- shard.breaker_failures + 1;
  let opened =
    match shard.breaker with
    | Breaker_closed -> shard.breaker_failures >= t.config.breaker_threshold
    | Breaker_half_open -> true  (* the probe failed; snap back open *)
    | Breaker_open -> false
  in
  if opened then shard.breaker <- Breaker_open;
  Mutex.unlock t.mutex;
  if opened then begin
    Obs.Gauge.set shard.inst.breaker_state (breaker_gauge Breaker_open);
    Obs.Counter.incr shard.inst.breaker_opens
  end

(* --- Poller: failure detection --------------------------------------------- *)

(* One HEALTH answer per tick does everything a poll is for: the shard
   is alive (a down shard is re-admitted, and re-added to the ring if
   it had been removed), its admission bounds are current (a restarted
   shard may come back with another configuration), and an open
   breaker moves to half-open, so the next forwarded request decides
   (success closes, failure snaps back open). *)
let on_health t shard (h : Protocol.health) =
  Mutex.lock t.mutex;
  let re_add = not shard.in_ring in
  shard.up <- true;
  shard.missed_polls <- 0;
  shard.down_polls <- 0;
  if re_add then begin
    t.ring <- Ring.add t.ring shard.spec.id ~weight:shard.spec.weight;
    shard.in_ring <- true
  end;
  shard.queue_bound <- h.Protocol.health_queue_depth;
  shard.high_water <- h.Protocol.health_high_water;
  let half_opened =
    match shard.breaker with
    | Breaker_open ->
        shard.breaker <- Breaker_half_open;
        true
    | _ -> false
  in
  Mutex.unlock t.mutex;
  Obs.Gauge.set shard.inst.up 1.0;
  if re_add then Obs.Counter.incr t.metrics.rebalances;
  if half_opened then
    Obs.Gauge.set shard.inst.breaker_state (breaker_gauge Breaker_half_open)

let on_poll_failure t shard =
  Mutex.lock t.mutex;
  let went_down =
    shard.missed_polls <- shard.missed_polls + 1;
    shard.up && shard.missed_polls >= t.config.down_after
  in
  if went_down then begin
    shard.up <- false;
    shard.down_polls <- 0
  end
  else if not shard.up then shard.down_polls <- shard.down_polls + 1;
  let removed =
    if
      (not shard.up) && shard.in_ring
      && shard.down_polls >= t.config.remove_after
    then begin
      t.ring <- Ring.remove t.ring shard.spec.id;
      shard.in_ring <- false;
      true
    end
    else false
  in
  Mutex.unlock t.mutex;
  if went_down then Obs.Gauge.set shard.inst.up 0.0;
  if removed then Obs.Counter.incr t.metrics.rebalances

let poll_shard t shard =
  match Client.Pool.request shard.pool Protocol.Health with
  | Ok (Protocol.Health_frame h) -> on_health t shard h
  | Ok _ | Error _ -> on_poll_failure t shard

let rec poll_loop t =
  if not (stopping t) then begin
    Array.iter (poll_shard t) t.shards;
    Thread.delay t.config.poll_interval;
    poll_loop t
  end

(* --- Local degraded answers ------------------------------------------------ *)

let degraded_response t ~budget ~net reason =
  Obs.Counter.incr t.metrics.local_degraded;
  Fallback.degraded ~process:t.process ?solver:t.config.solver ~budget ~net
    reason

(* --- Request routing ------------------------------------------------------- *)

let find_shard t id =
  match Array.find_opt (fun s -> String.equal s.spec.id id) t.shards with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Router: unknown shard %s" id)

type routing =
  | Forward of {
      target : shard;
      failover : shard option;
      spilled : bool;
      breaker_skip : bool;  (* the key's primary was skipped breaker-open *)
    }
  | No_candidate

let route t key =
  Mutex.lock t.mutex;
  let decision =
    match Ring.lookup_pair t.ring key with
    | None -> No_candidate
    | Some (primary_id, secondary_id) -> (
        let primary = find_shard t primary_id in
        let secondary = Option.map (find_shard t) secondary_id in
        let secondary_up =
          match secondary with Some s when available s -> Some s | _ -> None
        in
        if not (available primary) then
          match secondary_up with
          | Some s ->
              Forward
                {
                  target = s;
                  failover = None;
                  spilled = false;
                  breaker_skip = primary.breaker = Breaker_open;
                }
          | None -> No_candidate
        else
          (* Two choices: a busier owner loses the request to an idler
             second choice; a tie keeps the owner's cache. *)
          match secondary_up with
          | Some s when s.outstanding < primary.outstanding ->
              Forward
                {
                  target = s;
                  failover = Some primary;
                  spilled = true;
                  breaker_skip = false;
                }
          | _ ->
              Forward
                {
                  target = primary;
                  failover = secondary_up;
                  spilled = false;
                  breaker_skip = false;
                })
  in
  Mutex.unlock t.mutex;
  decision

(* One forward attempt, split so a hedge can bound its wait on it: the
   [forward:<id>] span and the round-trip clock start at [send_forward]
   and stop at [receive_forward] or [abandon_forward].  So does the
   shard's outstanding count that [route] compares: every sent forward
   ends in exactly one of the two, which settles it. *)
type sent = {
  shard : shard;
  pending : Client.Pool.pending;
  sent_at : float;
  end_span : unit -> unit;
}

let track_outstanding t shard delta =
  Mutex.lock t.mutex;
  shard.outstanding <- shard.outstanding + delta;
  (* Set under the lock, so the gauge cannot end on a stale value. *)
  Obs.Gauge.set shard.inst.outstanding (float_of_int shard.outstanding);
  Mutex.unlock t.mutex

let send_forward ?(args = []) t shard frame =
  let sent_at = Cpu_clock.monotonic_seconds () in
  let end_span =
    Trace.begin_opt t.config.tracer ~cat:"router" ~args
      ("forward:" ^ shard.spec.id)
  in
  match Client.Pool.send shard.pool frame with
  | Ok pending ->
      track_outstanding t shard 1;
      Ok { shard; pending; sent_at; end_span }
  | Error _ as e ->
      end_span ();
      note_forward_error t shard;
      Obs.Counter.incr shard.inst.failovers;
      e

let receive_forward t s =
  let result = Client.Pool.receive s.pending in
  s.end_span ();
  track_outstanding t s.shard (-1);
  (match result with
  | Ok _ ->
      note_forward_ok t s.shard;
      Obs.Counter.incr s.shard.inst.forwarded;
      Obs.Histogram.observe t.metrics.forward_seconds
        (Cpu_clock.monotonic_seconds () -. s.sent_at)
  | Error _ ->
      note_forward_error t s.shard;
      Obs.Counter.incr s.shard.inst.failovers);
  result

(* A straggler given up on still feeds its elapsed time (a lower bound
   of its round trip) into the histogram the hedge delay is derived
   from, so slow shards keep raising the p99.  It counts neither as
   forwarded nor as failed, and leaves the breaker alone: slowness is
   not a transport failure. *)
let abandon_forward t s =
  Client.Pool.abandon s.pending;
  s.end_span ();
  track_outstanding t s.shard (-1);
  Obs.Histogram.observe t.metrics.forward_seconds
    (Cpu_clock.monotonic_seconds () -. s.sent_at)

let forward ?args t shard frame =
  Result.bind (send_forward ?args t shard frame) (receive_forward t)

(* --- Hedged forwards ------------------------------------------------------- *)

(* Tail tolerance: the primary is sent, then waited on for at most the
   hedge delay — derived from the p99 of recent forward round-trips,
   floored so a cold histogram cannot hedge everything.  Only a primary
   still silent by then is hedged: the same request goes to the
   failover candidate (the key's other ring choice, whose cache the key
   may land on anyway), all on the connection's own thread.  A primary
   that has answered by the time the hedge returns still wins; one that
   has not is abandoned (see [abandon_forward]). *)

(* Per-request involvement flags for the wide event. *)
type request_obs = {
  mutable o_shard : string;
  mutable o_hedged : bool;
  mutable o_hedge_won : bool;
  mutable o_failover : bool;
}

let hedge_delay t =
  let snapshot = Obs.Histogram.snapshot t.metrics.forward_seconds in
  Float.max t.config.hedge_delay_floor
    (t.config.hedge_delay_factor *. Obs.Histogram.quantile snapshot 0.99)

(* The first candidate's transport failed: retry on the other one right
   away.  Inside a hedge this happens only before the hedge delay
   expires, so it is an ordinary failover, not a hedge. *)
let fail_over t obs (secondary, frame, args) =
  obs.o_failover <- true;
  obs.o_shard <- secondary.spec.id;
  forward ~args t secondary frame

let hedge_won t obs secondary response =
  Obs.Counter.incr t.metrics.hedge_wins;
  obs.o_hedge_won <- true;
  obs.o_shard <- secondary.spec.id;
  Ok response

let hedged_forward t obs (primary, primary_frame, primary_args)
    ((secondary, secondary_frame, secondary_args) as hedge) =
  match send_forward ~args:primary_args t primary primary_frame with
  | Error _ -> fail_over t obs hedge
  | Ok first when Client.Pool.wait first.pending (hedge_delay t) -> (
      match receive_forward t first with
      | Ok _ as answered -> answered
      | Error _ -> fail_over t obs hedge)
  | Ok first -> (
      Obs.Counter.incr t.metrics.hedges;
      obs.o_hedged <- true;
      match forward ~args:secondary_args t secondary secondary_frame with
      | Ok response when Client.Pool.wait first.pending 0.0 -> (
          (* First answer wins: the primary's arrived while the hedge
             ran, so it is the one served. *)
          match receive_forward t first with
          | Ok _ as answered -> answered
          | Error _ -> hedge_won t obs secondary response)
      | Ok response ->
          abandon_forward t first;
          hedge_won t obs secondary response
      | Error _ ->
          (* The hedge lost its transport; all that is left is the
             primary, bounded by the request timeout. *)
          receive_forward t first)

let serve_solve t ~budget ~deadline_ms ~trace ~net =
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
  (* A forwarded frame carries a child context parented on that shard's
     forward span, so shard-side spans nest under the router's forward
     in the merged timeline. *)
  let frame_for shard =
    let trace =
      Option.map
        (fun c -> Trace.child c ~span_id:(sid ("forward:" ^ shard.spec.id)))
        context
    in
    Protocol.Solve { budget; deadline_ms; trace; net }
  in
  let fwd_args shard =
    span_args ~parent:ingress_id ("forward:" ^ shard.spec.id)
  in
  let obs =
    { o_shard = ""; o_hedged = false; o_hedge_won = false; o_failover = false }
  in
  let spilled_flag = ref false and breaker_flag = ref false in
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
            degraded_response t ~budget ~net Protocol.Worker_lost
        | Forward { target; failover; spilled; breaker_skip } -> (
            obs.o_shard <- target.spec.id;
            spilled_flag := spilled;
            breaker_flag := breaker_skip;
            if spilled then Obs.Counter.incr target.inst.spills;
            let hedge_target =
              if t.config.hedge then
                match failover with
                | Some other when shard_available t other -> Some other
                | _ -> None
              else None
            in
            let forward_to shard = (shard, frame_for shard, fwd_args shard) in
            let result =
              match hedge_target with
              | Some other ->
                  hedged_forward t obs (forward_to target) (forward_to other)
              | None -> (
                  match
                    forward ~args:(fwd_args target) t target (frame_for target)
                  with
                  | Ok _ as answered -> answered
                  | Error _ as e -> (
                      (* The poller will notice the death on its own tick;
                         the request fails over right now. *)
                      match failover with
                      | Some other when shard_available t other ->
                          fail_over t obs (forward_to other)
                      | _ -> e))
            in
            match result with
            | Ok response -> response
            | Error _ ->
                (* Every candidate was tried (the hedge tries both). *)
                degraded_response t ~budget ~net Protocol.Worker_lost))
  in
  (* Exactly one wide event per request through the router, always kept
     by the tail sampler when anything interesting happened (degraded,
     hedged, failover, spill, breaker skip), so offline [rip_trace
     query] counts reconcile exactly with the load generator's. *)
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
          shard = obs.o_shard;
          outcome;
          degrade_reason;
          cache;
          hedged = obs.o_hedged;
          hedge_won = obs.o_hedge_won;
          failover = obs.o_failover;
          spilled = !spilled_flag;
          breaker_skip = !breaker_flag;
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
   each available shard's exposition is summed by name, in first-seen
   order; uptime is left out (the router's own is
   [rip_router_uptime_seconds]) and histogram buckets carry labels, so
   only their [_sum]/[_count] series add up.  The answers the router
   gave itself never reached a shard: a local DEGRADED answer counts in
   [rip_requests_total] and [rip_degraded_total], which keeps
   requests = solved + errors + busy + timeouts + degraded, and a local
   TOOBIG in [rip_toobig_total] only (an oversized frame is not a SOLVE
   request, as on a server).  A restarted shard's counters start from
   zero, so the sums restart with it, like any Prometheus counter. *)
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
      if shard_available t shard then
        match Client.Pool.request shard.pool Protocol.Metrics with
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
      (fun ~budget ~deadline_ms ~trace ~net ->
        track_in_flight t 1;
        Fun.protect
          ~finally:(fun () -> track_in_flight t (-1))
          (fun () -> serve_solve t ~budget ~deadline_ms ~trace ~net));
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
  Array.iter (fun shard -> Client.Pool.close_all shard.pool) t.shards
