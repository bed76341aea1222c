(* Price-based admission control, one controller per shard.

   Instead of gating on a static high-water mark, the router treats each
   shard as a resource with an ask price and searches for the price that
   maximises the shard's *profit*: useful answers per second minus the
   weighted cost of the degradation it is inflicting (DEGRADED answers,
   TIMEOUTs, BUSY rejections).  The search is the iterative scheme of
   CloudNetworking's [optimizeResourcePriceNew]: while raising the price
   still raises profit, keep multiplying it by the growth factor; the
   first step that *loses* profit reverses direction and shrinks — a
   one-dimensional extremum-seeking climb that needs no model of the
   solver's capacity, only the last tick's observation.

   When the shard is comfortably below its utilization target the
   controller bypasses the climb entirely and decays the price toward
   the floor: an idle shard must become cheap quickly, or a transient
   spike would keep spilling traffic off a now-empty machine.

   The router turns prices into decisions: a key's primary shard serves
   it while its price is below [spill_price] (unless the second choice
   has fewer forwards outstanding, see router.mli); above that the
   request goes to its second-choice shard when that one is cheaper;
   when even the chosen shard's price has climbed past [shed_price] the
   router answers DEGRADED locally rather than queue behind a saturated
   cluster.  Those two thresholds live in the router's config — this
   module only maintains the per-shard price. *)

type config = {
  initial_price : float;
  floor : float;  (* idle price; decay target *)
  ceiling : float;  (* climb stops here regardless of profit *)
  growth : float;  (* multiplicative raise while profit improves *)
  shrink : float;  (* multiplicative back-off / idle decay *)
  degraded_cost : float;  (* profit penalty per DEGRADED per second *)
  timeout_cost : float;  (* profit penalty per TIMEOUT per second *)
  busy_cost : float;  (* profit penalty per BUSY per second *)
  utilization_low : float;  (* below this the price decays to floor *)
}

let default_config =
  {
    initial_price = 1.0;
    floor = 0.25;
    ceiling = 64.0;
    growth = 1.5;
    shrink = 0.6;
    degraded_cost = 2.0;
    timeout_cost = 4.0;
    busy_cost = 1.0;
    utilization_low = 0.25;
  }

type observation = {
  seconds : float;  (* wall seconds covered by this tick *)
  completed : int;  (* RESULT answers (fresh + cached) in the window *)
  degraded : int;
  timeouts : int;
  busy : int;
  in_flight : int;  (* admission slots held right now *)
  queue_depth : int;  (* the shard's configured bound (HEALTH) *)
}

type t = {
  config : config;
  mutable price : float;
  mutable last_profit : float;
  mutable rising : bool;  (* current climb direction *)
  mutable ticks : int;
}

let validate config =
  if not (config.floor > 0.0 && config.floor <= config.initial_price) then
    invalid_arg "Pricing.create: need 0 < floor <= initial_price";
  if config.ceiling < config.initial_price then
    invalid_arg "Pricing.create: ceiling below initial_price";
  if config.growth <= 1.0 then
    invalid_arg "Pricing.create: growth must exceed 1";
  if not (config.shrink > 0.0 && config.shrink < 1.0) then
    invalid_arg "Pricing.create: shrink must be in (0, 1)"

let create ?(config = default_config) () =
  validate config;
  {
    config;
    price = config.initial_price;
    last_profit = 0.0;
    rising = true;
    ticks = 0;
  }

let price t = t.price
let config t = t.config

let profit config o =
  if o.seconds <= 0.0 then 0.0
  else
    let per_second n = float_of_int n /. o.seconds in
    per_second o.completed
    -. (config.degraded_cost *. per_second o.degraded)
    -. (config.timeout_cost *. per_second o.timeouts)
    -. (config.busy_cost *. per_second o.busy)

let utilization o =
  if o.queue_depth <= 0 then 0.0
  else float_of_int o.in_flight /. float_of_int o.queue_depth

let clamp config price = Float.min config.ceiling (Float.max config.floor price)

let observe t o =
  let c = t.config in
  let p = profit c o in
  let util = utilization o in
  (if util < c.utilization_low && o.degraded = 0 && o.busy = 0 then begin
     (* Comfortably idle and inflicting no pain: decay toward the floor
        and reset the climb so the next congestion episode starts
        fresh. *)
     t.price <- clamp c (t.price *. c.shrink);
     t.rising <- true
   end
   else begin
     (* One extremum-seeking step.  On the very first loaded tick there
        is no previous profit to compare against, so just start the
        climb. *)
     (if t.ticks > 0 && p < t.last_profit then t.rising <- not t.rising);
     let factor = if t.rising then c.growth else c.shrink in
     t.price <- clamp c (t.price *. factor)
   end);
  t.last_profit <- p;
  t.ticks <- t.ticks + 1;
  t.price
