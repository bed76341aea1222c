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

(* Counter totals carried across shard incarnations.  A restarted shard
   reports counters from zero; folding the dead incarnation's last
   snapshot into this baseline keeps the router's aggregate STATS
   monotone, which the load generator's delta reconciliation relies
   on. *)
type baseline = {
  mutable b_requests : int;
  mutable b_solved : int;
  mutable b_errors : int;
  mutable b_rejected_busy : int;
  mutable b_timeouts : int;
  mutable b_degraded : int;
  mutable b_toobig : int;
  mutable b_cache_self_heals : int;
  mutable b_cache_hits : int;
  mutable b_cache_misses : int;
  mutable b_cache_evictions : int;
  mutable b_cache_replayed : int;
  mutable b_journal_compactions : int;
  mutable b_queue_wait_seconds : float;
  mutable b_solve_cpu_seconds : float;
}

let zero_baseline () =
  {
    b_requests = 0;
    b_solved = 0;
    b_errors = 0;
    b_rejected_busy = 0;
    b_timeouts = 0;
    b_degraded = 0;
    b_toobig = 0;
    b_cache_self_heals = 0;
    b_cache_hits = 0;
    b_cache_misses = 0;
    b_cache_evictions = 0;
    b_cache_replayed = 0;
    b_journal_compactions = 0;
    b_queue_wait_seconds = 0.0;
    b_solve_cpu_seconds = 0.0;
  }

let fold_into_baseline b (s : Protocol.stats) =
  b.b_requests <- b.b_requests + s.requests;
  b.b_solved <- b.b_solved + s.solved;
  b.b_errors <- b.b_errors + s.errors;
  b.b_rejected_busy <- b.b_rejected_busy + s.rejected_busy;
  b.b_timeouts <- b.b_timeouts + s.timeouts;
  b.b_degraded <- b.b_degraded + s.degraded;
  b.b_toobig <- b.b_toobig + s.toobig;
  b.b_cache_self_heals <- b.b_cache_self_heals + s.cache_self_heals;
  b.b_cache_hits <- b.b_cache_hits + s.cache_hits;
  b.b_cache_misses <- b.b_cache_misses + s.cache_misses;
  b.b_cache_evictions <- b.b_cache_evictions + s.cache_evictions;
  b.b_cache_replayed <- b.b_cache_replayed + s.cache_replayed;
  b.b_journal_compactions <- b.b_journal_compactions + s.journal_compactions;
  b.b_queue_wait_seconds <- b.b_queue_wait_seconds +. s.queue_wait_seconds;
  b.b_solve_cpu_seconds <- b.b_solve_cpu_seconds +. s.solve_cpu_seconds

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
  baseline : baseline;
  (* The remaining fields are guarded by the router mutex. *)
  mutable up : bool;
  mutable missed_polls : int;
  mutable down_polls : int;
  mutable in_ring : bool;
  mutable last_stats : Protocol.stats option;
  mutable polled : bool;  (* has answered a poll *)
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
             baseline = zero_baseline ();
             up = true;
             missed_polls = 0;
             down_polls = 0;
             in_ring = true;
             last_stats = None;
             polled = false;
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

(* --- Poller: failure detection --------------------------------------------- *)

let refresh_bounds t shard =
  match Client.Pool.request shard.pool Protocol.Health with
  | Ok (Protocol.Health_frame h) ->
      Mutex.lock t.mutex;
      shard.queue_bound <- h.Protocol.health_queue_depth;
      shard.high_water <- h.Protocol.health_high_water;
      Mutex.unlock t.mutex
  | Ok _ | Error _ -> ()

let mark_recovered t shard =
  Mutex.lock t.mutex;
  let re_add = not shard.in_ring in
  shard.up <- true;
  shard.missed_polls <- 0;
  shard.down_polls <- 0;
  if re_add then begin
    t.ring <- Ring.add t.ring shard.spec.id ~weight:shard.spec.weight;
    shard.in_ring <- true
  end;
  Mutex.unlock t.mutex;
  Obs.Gauge.set shard.inst.up 1.0;
  if re_add then Obs.Counter.incr t.metrics.rebalances

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

let on_stats t shard (stats : Protocol.stats) =
  let was_down =
    Mutex.lock t.mutex;
    let d = not shard.up in
    Mutex.unlock t.mutex;
    d
  in
  if was_down then begin
    (* Back from the dead: a new incarnation, with fresh counters and
       possibly a different configuration. *)
    refresh_bounds t shard;
    mark_recovered t shard
  end;
  Mutex.lock t.mutex;
  shard.missed_polls <- 0;
  (* An answered poll is the open breaker's probe: move to half-open so
     the next forwarded request decides (success closes, failure snaps
     back open). *)
  let half_opened =
    match shard.breaker with
    | Breaker_open ->
        shard.breaker <- Breaker_half_open;
        true
    | _ -> false
  in
  (* Restart detection: counters went backwards (or uptime did) — fold
     the dead incarnation's final snapshot into the baseline so the
     aggregate stays monotone. *)
  (match shard.last_stats with
  | Some prev
    when stats.Protocol.uptime_seconds < prev.Protocol.uptime_seconds
         || stats.Protocol.requests < prev.Protocol.requests ->
      fold_into_baseline shard.baseline prev
  | _ -> ());
  shard.last_stats <- Some stats;
  shard.polled <- true;
  Mutex.unlock t.mutex;
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
  match Client.Pool.request shard.pool Protocol.Stats with
  | Ok (Protocol.Stats_frame stats) -> on_stats t shard stats
  | Ok _ | Error _ -> on_poll_failure t shard

let rec poll_loop t =
  if not (stopping t) then begin
    Array.iter
      (fun shard ->
        let never_polled =
          Mutex.lock t.mutex;
          let b = (not shard.polled) && shard.up in
          Mutex.unlock t.mutex;
          b
        in
        if never_polled then refresh_bounds t shard;
        poll_shard t shard)
      t.shards;
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

(* The cluster's STATS, as if it were one server: counters are the sum
   of every shard's live counters, each shard's retired-incarnation
   baseline, and the answers the router produced itself; percentiles
   are the worst (max) across shards — a conservative bound a client's
   own percentile must still dominate; uptime is the router's own. *)
let aggregate_stats t =
  let live =
    Array.map
      (fun shard ->
        match Client.Pool.request shard.pool Protocol.Stats with
        | Ok (Protocol.Stats_frame s) -> Some s
        | Ok _ | Error _ ->
            Mutex.lock t.mutex;
            let cached = shard.last_stats in
            Mutex.unlock t.mutex;
            cached)
      t.shards
  in
  let sum_i f =
    Array.fold_left (fun acc s -> acc + match s with Some s -> f s | None -> 0) 0 live
  in
  let sum_f f =
    Array.fold_left
      (fun acc s -> acc +. match s with Some s -> f s | None -> 0.0)
      0.0 live
  in
  let max_f f =
    Array.fold_left
      (fun acc s -> Float.max acc (match s with Some s -> f s | None -> 0.0))
      0.0 live
  in
  let base f = Array.fold_left (fun acc s -> acc + f s.baseline) 0 t.shards in
  let base_f f =
    Array.fold_left (fun acc s -> acc +. f s.baseline) 0.0 t.shards
  in
  let local_degraded = Obs.Counter.value t.metrics.local_degraded in
  let local_toobig = Obs.Counter.value t.metrics.toobig in
  (* The whole snapshot is taken under the lock: the poller folds dead
     incarnations into [shard.baseline] concurrently, and a torn read
     would break the accounting identity below. *)
  Mutex.lock t.mutex;
  let in_flight = t.in_flight in
  let stats =
  {
    Protocol.shard_id = "router";
    uptime_seconds = Router_metrics.uptime_seconds t.metrics;
    (* Requests the router answered itself never reached a shard; adding
       the locally-degraded count on both sides keeps the accounting
       identity requests = solved + errors + busy + timeouts + degraded
       across the aggregate. *)
    requests = sum_i (fun s -> s.Protocol.requests) + base (fun b -> b.b_requests) + local_degraded;
    solved = sum_i (fun s -> s.Protocol.solved) + base (fun b -> b.b_solved);
    errors = sum_i (fun s -> s.Protocol.errors) + base (fun b -> b.b_errors);
    rejected_busy =
      sum_i (fun s -> s.Protocol.rejected_busy) + base (fun b -> b.b_rejected_busy);
    timeouts = sum_i (fun s -> s.Protocol.timeouts) + base (fun b -> b.b_timeouts);
    degraded =
      sum_i (fun s -> s.Protocol.degraded) + base (fun b -> b.b_degraded)
      + local_degraded;
    (* Oversized frames the router answered itself never reach a shard;
       like a shard's, they are not SOLVE requests. *)
    toobig =
      sum_i (fun s -> s.Protocol.toobig) + base (fun b -> b.b_toobig)
      + local_toobig;
    cache_self_heals =
      sum_i (fun s -> s.Protocol.cache_self_heals)
      + base (fun b -> b.b_cache_self_heals);
    cache_hits =
      sum_i (fun s -> s.Protocol.cache_hits) + base (fun b -> b.b_cache_hits);
    cache_misses =
      sum_i (fun s -> s.Protocol.cache_misses) + base (fun b -> b.b_cache_misses);
    cache_evictions =
      sum_i (fun s -> s.Protocol.cache_evictions)
      + base (fun b -> b.b_cache_evictions);
    cache_replayed =
      sum_i (fun s -> s.Protocol.cache_replayed)
      + base (fun b -> b.b_cache_replayed);
    cache_size = sum_i (fun s -> s.Protocol.cache_size);
    cache_capacity = sum_i (fun s -> s.Protocol.cache_capacity);
    queue_wait_seconds =
      sum_f (fun s -> s.Protocol.queue_wait_seconds)
      +. base_f (fun b -> b.b_queue_wait_seconds);
    solve_cpu_seconds =
      sum_f (fun s -> s.Protocol.solve_cpu_seconds)
      +. base_f (fun b -> b.b_solve_cpu_seconds);
    (* A gauge, like cache_size: live bytes only, no baseline. *)
    journal_bytes = sum_i (fun s -> s.Protocol.journal_bytes);
    journal_compactions =
      sum_i (fun s -> s.Protocol.journal_compactions)
      + base (fun b -> b.b_journal_compactions);
    in_flight;
    queue_depth = sum_i (fun s -> s.Protocol.queue_depth);
    queue_wait_p50 = max_f (fun s -> s.Protocol.queue_wait_p50);
    queue_wait_p95 = max_f (fun s -> s.Protocol.queue_wait_p95);
    queue_wait_p99 = max_f (fun s -> s.Protocol.queue_wait_p99);
    solve_p50 = max_f (fun s -> s.Protocol.solve_p50);
    solve_p95 = max_f (fun s -> s.Protocol.solve_p95);
    solve_p99 = max_f (fun s -> s.Protocol.solve_p99);
  }
  in
  Mutex.unlock t.mutex;
  stats

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
    stats = (fun () -> aggregate_stats t);
    metrics = (fun () -> Router_metrics.render t.metrics);
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
