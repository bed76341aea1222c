(* rip_loadgen: closed-loop load generator for rip_serviced / rip_routerd.

     rip_loadgen --socket /tmp/rip.sock --requests 400 --connections 4
     rip_loadgen --port 7177 --passes 2 --distinct-nets 6
     rip_loadgen --deadline-ms 50 --retries 3 --attempt-timeout-ms 500
     rip_loadgen --socket /tmp/rip_router.sock --verify --passes 2
     rip_loadgen --socket /tmp/rip_router.sock --dump-metrics

   Replays a deterministic Netgen workload (a few distinct nets repeated
   many times, as a router re-querying global nets would) against a
   running daemon and reports throughput, latency percentiles, retry and
   degradation counts, and the server's METRICS counter deltas next to
   its own counts.  With --passes 2 the second pass replays the
   identical workload against the now-warm cache — the cold-vs-warm
   throughput comparison.

   The generator talks to one socket.  Pointed at rip_routerd it loads
   the whole cluster: the router owns placement and its METRICS sums
   the shards' counters under the names a shard uses, so the same
   consistency gate covers every shard.  --verify pins each (net,
   budget)'s first answer and fails the run on any contradicting one,
   whichever shard served it. *)

module Protocol = Rip_service.Protocol
module Client = Rip_service.Client
module Loadgen = Rip_service.Loadgen
module Obs = Rip_obs.Metrics
module Metrics = Rip_service.Metrics

let process = Rip_tech.Process.default_180nm

let fetch connect frame ~expect =
  match
    let client = connect () in
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () -> Client.request client frame)
  with
  | Ok response -> expect response
  | Error e -> Error e
  | exception Unix.Unix_error (code, _, _) -> Error (Unix.error_message code)

let fetch_metrics connect =
  fetch connect Protocol.Metrics ~expect:(function
    | Protocol.Metrics_frame body -> Ok body
    | _ -> Error "unexpected response to METRICS")

(* A series' value in a METRICS body; 0 when the body lacks it (a
   shard without a journal, a router with no shard available). *)
let reading body =
  let samples = Obs.parse_scalars body in
  fun name -> Option.value ~default:0.0 (List.assoc_opt name samples)

type totals = {
  sent : int;
  fresh : int;
  cached : int;
  degraded : int;
  timeouts : int;
  errors : int;
  busy : int;
  transport : int;
  retried_transport : int;
  retried_busy : int;
  retried_timeout : int;
  verify_mismatches : int;
}

let zero_totals =
  {
    sent = 0;
    fresh = 0;
    cached = 0;
    degraded = 0;
    timeouts = 0;
    errors = 0;
    busy = 0;
    transport = 0;
    retried_transport = 0;
    retried_busy = 0;
    retried_timeout = 0;
    verify_mismatches = 0;
  }

let add_totals t (r : Loadgen.result) =
  {
    sent = t.sent + r.sent;
    fresh = t.fresh + r.solved_fresh;
    cached = t.cached + r.solved_cached;
    degraded = t.degraded + r.degraded;
    timeouts = t.timeouts + r.timeouts;
    errors = t.errors + r.errors;
    busy = t.busy + r.busy;
    transport = t.transport + r.transport_failures;
    retried_transport = t.retried_transport + r.retried_transport;
    retried_busy = t.retried_busy + r.retried_busy;
    retried_timeout = t.retried_timeout + r.retried_timeout;
    verify_mismatches = t.verify_mismatches + r.verify_mismatches;
  }

(* Counter deltas between two METRICS scrapes of the target, a shard's
   own series or the router's cluster sums of them. *)
let print_consistency ~before ~after (t : totals) =
  let before = reading before and after = reading after in
  let delta name = int_of_float (after name -. before name) in
  let requests_delta = delta "rip_requests_total" in
  let hits_delta = delta "rip_cache_hits" in
  let misses_delta = delta "rip_cache_misses" in
  let errors_delta = delta "rip_errors_total" in
  let busy_delta = delta "rip_rejected_busy_total" in
  let solved_delta = delta "rip_solved_total" in
  let timeouts_delta = delta "rip_timeouts_total" in
  let degraded_delta = delta "rip_degraded_total" in
  Printf.printf
    "METRICS deltas     : requests %d, solved %d, hits %d, misses %d, \
     errors %d, busy %d, timeouts %d, degraded %d, evictions %d, \
     self-heals %d, replayed %d\n"
    requests_delta solved_delta hits_delta misses_delta errors_delta
    busy_delta timeouts_delta degraded_delta
    (delta "rip_cache_evictions")
    (delta "rip_cache_self_heals")
    (* Journal replay pre-warms the cache at boot without counting as a
       hit or a miss, so a nonzero replayed delta leaves the
       [misses = requests - hits] identity below untouched. *)
    (delta "rip_cache_replayed");
  Printf.printf
    "loadgen counts     : requests %d, solved %d, hits %d, degraded %d, \
     timeouts %d, errors %d, busy %d (retries: busy %d, timeout %d, \
     transport %d)\n"
    t.sent (t.fresh + t.cached) t.cached t.degraded t.timeouts t.errors
    t.busy t.retried_busy t.retried_timeout t.retried_transport;
  (* Every retried BUSY/TIMEOUT attempt also reached the server, so its
     counters see [sent] plus those retries.  A transport retry may or
     may not have reached the server (the failure can hit before or
     after processing), so the airtight identities below are only
     checkable when no transport trouble occurred. *)
  if t.retried_transport > 0 || t.transport > 0 then begin
    Printf.printf
      "counters consistent: skipped (transport retries/failures make \
       server-side attempt counts ambiguous)\n";
    true
  end
  else begin
    let attempts = t.sent + t.retried_busy + t.retried_timeout in
    let consistent =
      requests_delta = attempts
      && solved_delta = t.fresh + t.cached
      && hits_delta = t.cached
      && errors_delta = t.errors
      && busy_delta = t.busy + t.retried_busy
      && timeouts_delta = t.timeouts + t.retried_timeout
      && degraded_delta = t.degraded
      && misses_delta = requests_delta - hits_delta
    in
    Printf.printf "counters consistent: %s\n"
      (if consistent then "yes"
       else "NO (another client talking to the same daemon?)");
    consistent
  end

(* The server's view of itself, from the closing METRICS scrape: its
   admission gauges and its histograms' percentiles since startup.  A
   router's cluster block carries no histogram buckets, so through a
   router the percentiles are reported missing. *)
let print_server_now after =
  let gauge = reading after in
  Printf.printf "server now         : in_flight %.0f, queue_depth %.0f\n"
    (gauge "rip_in_flight") (gauge "rip_queue_depth");
  let histograms = Obs.parse_histograms after in
  match
    ( List.assoc_opt Metrics.queue_wait_metric histograms,
      List.assoc_opt Metrics.solve_cpu_metric histograms )
  with
  | Some queue, Some solve ->
      let ms s p = Obs.Histogram.quantile s p *. 1e3 in
      Printf.printf
        "server percentiles : queue p50/p95/p99 %.3f/%.3f/%.3f ms, solve \
         p50/p95/p99 %.3f/%.3f/%.3f ms (since startup)\n"
        (ms queue 0.50) (ms queue 0.95) (ms queue 0.99) (ms solve 0.50)
        (ms solve 0.95) (ms solve 0.99)
  | _ -> Printf.printf "server percentiles : histograms missing from METRICS\n"

(* Delta of one server histogram across the run, from two METRICS
   scrapes.  [diff] raises when the families do not line up (daemon
   restarted between scrapes); treat that as no data. *)
let histogram_delta ~before ~after name =
  match
    ( List.assoc_opt name (Obs.parse_histograms before),
      List.assoc_opt name (Obs.parse_histograms after) )
  with
  | Some earlier, Some later -> (
      match Obs.Histogram.diff later earlier with
      | delta -> Some delta
      | exception Invalid_argument _ -> None)
  | _ -> None

let print_histogram label (d : Obs.Histogram.snapshot) =
  let q p = Obs.Histogram.quantile d p *. 1e3 in
  Printf.printf
    "%-19s: n=%d, sum %.3f s, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n" label
    d.Obs.Histogram.count d.Obs.Histogram.sum (q 0.5) (q 0.95) (q 0.99)

(* Client latencies bound server-side times from above, request by
   request: a fresh solve's queue wait and its solver CPU time both fit
   inside the round trip the client measured around that request.
   Order statistics preserve pointwise domination, and client and
   server use the same rank convention ({!Rip_numerics.Stats.quantile_rank}),
   so at every quantile the client's exact value must be >= the
   server's Lower bucket-bound estimate.  The request-by-request
   pairing only exists when every request of the run was one fresh
   solve, so the check is reported but skipped when cache hits,
   retries, degradation, timeouts or transport trouble blur it.  The
   histograms are one server's, so the check runs against a shard
   socket; a router's cluster block sums only their [_sum]/[_count]
   series, not their buckets, and the check reports them missing. *)
let print_percentile_reconciliation ~metrics_before ~metrics_after
    (t : totals) passes (runs : Loadgen.result list) =
  match
    ( histogram_delta ~before:metrics_before ~after:metrics_after
        Metrics.queue_wait_metric,
      histogram_delta ~before:metrics_before ~after:metrics_after
        Metrics.solve_cpu_metric )
  with
  | Some queue, Some solve -> (
      print_histogram "server queue wait" queue;
      print_histogram "server solve cpu" solve;
      let clean =
        t.cached = 0 && t.degraded = 0 && t.timeouts = 0 && t.errors = 0
        && t.busy = 0 && t.transport = 0 && t.retried_busy = 0
        && t.retried_timeout = 0 && t.retried_transport = 0
      in
      match runs with
      | [ client ] when clean && passes = 1 ->
          let lower s p =
            Obs.Histogram.quantile ~estimate:Obs.Histogram.Lower s p
          in
          let dominates (p, client_p) =
            client_p >= lower queue p && client_p >= lower solve p
          in
          let consistent =
            queue.Obs.Histogram.count = t.fresh
            && solve.Obs.Histogram.count = t.fresh
            && List.for_all dominates
                 [
                   (0.5, client.Loadgen.p50);
                   (0.95, client.Loadgen.p95);
                   (0.99, client.Loadgen.p99);
                 ]
          in
          Printf.printf "percentiles consistent: %s\n"
            (if consistent then
               "yes (client p50/p95/p99 dominate the server's lower bucket \
                bounds; histogram counts match)"
             else "NO (server histograms disagree with client latencies)");
          consistent
      | _ ->
          Printf.printf
            "percentiles consistent: skipped (needs one all-fresh pass: no \
             cache hits, retries, degradation or transport trouble — try \
             --distinct-nets >= --requests)\n";
          true)
  | _ ->
      Printf.printf
        "server histograms  : missing from METRICS; reconciliation skipped\n";
      true

let run_load socket_path port host requests connections distinct_nets seed
    slack passes deadline_ms traced retries attempt_timeout_ms backoff_ms
    skip_consistency verify dump_metrics =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let connect () =
    match port with
    | Some port -> Client.connect_tcp ~host ~port ()
    | None -> Client.connect_unix socket_path
  in
  if retries < 1 then begin
    prerr_endline "rip_loadgen: --retries must be at least 1";
    2
  end
  else if dump_metrics then
    match fetch_metrics connect with
    | Ok body ->
        print_string body;
        0
    | Error e ->
        Printf.eprintf "rip_loadgen: METRICS failed: %s\n" e;
        1
  else begin
    let policy =
      {
        Client.default_retry_policy with
        attempts = retries;
        backoff_seconds = backoff_ms /. 1000.0;
        attempt_timeout =
          Option.map (fun ms -> ms /. 1000.0) attempt_timeout_ms;
      }
    in
    let workload =
      Loadgen.workload ~seed:(Int64.of_int seed) ~distinct_nets ~slack
        ?deadline_ms ~traced ~requests process
    in
    match fetch_metrics connect with
    | Error e ->
        Printf.eprintf "rip_loadgen: cannot reach the daemon: %s\n" e;
        1
    | Ok metrics_before ->
        let runs =
          List.init passes (fun pass ->
              let label =
                if passes = 1 then "pass"
                else if pass = 0 then "pass 1 (cold)"
                else Printf.sprintf "pass %d (warm)" (pass + 1)
              in
              let run =
                Loadgen.run ~connect ~connections ~policy
                  ~seed:(Int64.of_int (seed + pass))
                  ~verify workload
              in
              Printf.printf "--- %s ---\n%s" label (Loadgen.render run);
              run)
        in
        (match runs with
        | cold :: (_ :: _ as rest) ->
            let warm = List.nth rest (List.length rest - 1) in
            let throughput (r : Loadgen.result) = r.Loadgen.throughput in
            Printf.printf
              "cold -> warm throughput: %.1f -> %.1f req/s (%.1fx)\n"
              (throughput cold) (throughput warm)
              (if throughput cold > 0.0 then
                 throughput warm /. throughput cold
               else 0.0)
        | _ -> ());
        let totals = List.fold_left add_totals zero_totals runs in
        let failures =
          List.exists
            (fun (run : Loadgen.result) ->
              run.Loadgen.transport_failures > 0 || run.Loadgen.errors > 0)
            runs
        in
        (if verify then
           Printf.printf "answers verified   : %s\n"
             (if totals.verify_mismatches = 0 then
                "yes (every RESULT matched the bytes pinned for its net)"
              else
                Printf.sprintf "NO (%d contradicting RESULT answers)"
                  totals.verify_mismatches));
        let consistent =
          match fetch_metrics connect with
          | Error e ->
              Printf.eprintf "rip_loadgen: cannot fetch closing METRICS: %s\n"
                e;
              false
          | Ok metrics_after ->
              let counters_ok =
                print_consistency ~before:metrics_before ~after:metrics_after
                  totals
              in
              print_server_now metrics_after;
              let percentiles_ok =
                print_percentile_reconciliation ~metrics_before ~metrics_after
                  totals passes runs
              in
              counters_ok && percentiles_ok
        in
        let reconciled =
          if skip_consistency then begin
            Printf.printf
              "exit gate          : --skip-consistency (transport/errors \
               only)\n";
            true
          end
          else consistent
        in
        if failures || (not reconciled) || totals.verify_mismatches > 0 then 1
        else 0
  end

open Cmdliner

let socket_path =
  Arg.(
    value
    & opt string "rip_serviced.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket of the daemon or router (ignored with \
              --port).")

let port =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Connect over TCP instead.")

let host =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Daemon host for --port.")

let requests =
  Arg.(
    value & opt int 200
    & info [ "requests"; "n" ] ~docv:"N" ~doc:"SOLVE requests per pass.")

let connections =
  Arg.(
    value & opt int 4
    & info [ "connections"; "c" ] ~docv:"C"
        ~doc:"Concurrent closed-loop connections.")

let distinct_nets =
  Arg.(
    value & opt int 8
    & info [ "distinct-nets" ] ~docv:"K"
        ~doc:"Distinct nets in the workload; requests repeat over them \
              round-robin, so K far below N exercises the solve cache.")

let seed =
  Arg.(
    value & opt int 20050307
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Workload generator and retry-jitter seed.")

let slack =
  Arg.(
    value & opt float 1.3
    & info [ "slack" ] ~docv:"MULT"
        ~doc:"Delay budget as a multiple of each net's minimum delay.")

let passes =
  Arg.(
    value & opt int 1
    & info [ "passes" ] ~docv:"P"
        ~doc:"Replays of the identical workload; 2 gives a cold-vs-warm \
              cache comparison.")

let deadline_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Stamp every SOLVE with a DEADLINE header: past it the server \
              answers TIMEOUT or degrades to its analytic fallback tier.")

let traced =
  Arg.(
    value & flag
    & info [ "traced" ]
        ~doc:"Stamp every SOLVE with a deterministic root TRACE context \
              (scope 'loadgen', the request index as sequence), so servers \
              and routers run with --trace-out parent their spans under \
              this client's requests and rip_trace merge joins them into \
              one cross-process timeline.")

let retries =
  Arg.(
    value & opt int Client.default_retry_policy.attempts
    & info [ "retries" ] ~docv:"N"
        ~doc:"Total attempts per request (>= 1); only transport failures, \
              BUSY and TIMEOUT are retried.")

let attempt_timeout_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "attempt-timeout-ms" ] ~docv:"MS"
        ~doc:"Per-attempt socket timeout; a stalled attempt counts as a \
              transport failure and is retried on a fresh connection.")

let backoff_ms =
  Arg.(
    value
    & opt float (Client.default_retry_policy.backoff_seconds *. 1000.0)
    & info [ "backoff-ms" ] ~docv:"MS"
        ~doc:"Base of the full-jitter exponential backoff between retries.")

let skip_consistency =
  Arg.(
    value & flag
    & info [ "skip-consistency" ]
        ~doc:"Do not gate the exit code on the METRICS counter and \
              percentile reconciliation — only on transport failures and \
              ERROR answers.  For chaos runs (shards killed or restarted \
              mid-run), where a restarted shard's counters start again \
              from zero and the identities are unverifiable.")

let verify =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:"Pin the first RESULT's solution bytes per (net, budget) and \
              fail if any later RESULT — cached, fresh, or from another \
              shard behind the router — contradicts them.  DEGRADED \
              answers are exempt.")

let dump_metrics =
  Arg.(
    value & flag
    & info [ "dump-metrics" ]
        ~doc:"Fetch and print METRICS from the target, then exit without \
              generating load.")

let main =
  Cmd.v
    (Cmd.info "rip_loadgen" ~version:"1.0.0"
       ~doc:"Closed-loop load generator and latency reporter for rip_serviced \
             and rip_routerd")
    Term.(
      const run_load $ socket_path $ port $ host $ requests
      $ connections $ distinct_nets $ seed $ slack $ passes $ deadline_ms
      $ traced $ retries $ attempt_timeout_ms $ backoff_ms
      $ skip_consistency $ verify $ dump_metrics)

let () = exit (Cmd.eval' main)
