(* rip_top: a live terminal dashboard for a solve cluster.

     rip_top --socket /tmp/rip_router.sock
     rip_top --endpoint /tmp/a.sock --endpoint /tmp/b.sock --interval 1
     rip_top --socket r.sock --once

   Polls METRICS on every endpoint each refresh and renders one screen:
   router endpoints contribute a per-shard table (up, forwarded/
   failover/spill counters; "spills" counts the requests the
   shard took as a key's second choice, because the owner had more
   forwards outstanding) plus a forward-latency line; shard
   endpoints contribute a per-shard row (requests, cache hit rate, queue
   depth, solve p50/p95/p99, journal bytes).  --once prints a single
   frame without clearing the screen — the mode CI and scripts use. *)

module Client = Rip_service.Client
module Protocol = Rip_service.Protocol
module Obs = Rip_obs.Metrics

let fetch_metrics connect =
  match
    let client = connect () in
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () -> Client.request client Protocol.Metrics)
  with
  | Ok (Protocol.Metrics_frame body) -> Ok body
  | Ok _ -> Error "unexpected response to METRICS"
  | Error e -> Error e
  | exception Unix.Unix_error (code, _, _) -> Error (Unix.error_message code)

let scalar body name = Option.value ~default:0.0 (Obs.scalar body name)

let quantiles body name =
  match List.assoc_opt name (Obs.parse_histograms body) with
  | None -> None
  | Some snap ->
      let q p = Obs.Histogram.quantile snap p in
      Some (q 0.50, q 0.95, q 0.99, snap.Obs.Histogram.count)

let ms v = 1000.0 *. v

let human_bytes b =
  if b >= 1048576.0 then Printf.sprintf "%.1f MiB" (b /. 1048576.0)
  else if b >= 1024.0 then Printf.sprintf "%.1f KiB" (b /. 1024.0)
  else Printf.sprintf "%.0f B" b

(* Shard ids of a router exposition, recovered from the
   [rip_router_shard_<id>_up] gauge names, which every shard has from
   the router's start. *)
let router_shard_ids body =
  let prefix = "rip_router_shard_" and suffix = "_up" in
  List.filter_map
    (fun (name, _) ->
      let lp = String.length prefix and ls = String.length suffix in
      let ln = String.length name in
      if
        ln > lp + ls
        && String.sub name 0 lp = prefix
        && String.sub name (ln - ls) ls = suffix
      then Some (String.sub name lp (ln - lp - ls))
      else None)
    (Obs.parse_scalars body)

let render_router buf label body =
  let s name = scalar body name in
  Buffer.add_string buf
    (Printf.sprintf "router %s  up %.0fs  requests %.0f  in-flight %.0f\n"
       label
       (s "rip_router_uptime_seconds")
       (s "rip_router_requests_total")
       (s "rip_router_in_flight"));
  Buffer.add_string buf
    (Printf.sprintf "  degraded %.0f  rebalances %.0f\n"
       (s "rip_router_degraded_total")
       (s "rip_router_rebalances_total"));
  (match quantiles body "rip_router_forward_seconds" with
  | Some (p50, p95, p99, count) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  forward latency (n=%d): p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n"
           count (ms p50) (ms p95) (ms p99))
  | None -> ());
  let shards = router_shard_ids body in
  if shards <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "  %-8s %-4s %10s %10s %8s\n" "shard" "up" "forwarded"
         "failovers" "spills");
    List.iter
      (fun id ->
        let m name = s (Printf.sprintf "rip_router_shard_%s_%s" id name) in
        Buffer.add_string buf
          (Printf.sprintf "  %-8s %-4s %10.0f %10.0f %8.0f\n" id
             (if m "up" = 1.0 then "yes" else "NO")
             (m "forwarded_total") (m "failovers_total") (m "spills_total")))
      shards
  end

let render_shard buf label body =
  let s name = scalar body name in
  let hits = s "rip_cache_hits" and misses = s "rip_cache_misses" in
  let lookups = hits +. misses in
  let hit_rate = if lookups > 0.0 then 100.0 *. hits /. lookups else 0.0 in
  Buffer.add_string buf
    (Printf.sprintf
       "shard %s  up %.0fs  requests %.0f  in-flight %.0f  queue %.0f\n" label
       (s "rip_uptime_seconds")
       (s "rip_requests_total")
       (s "rip_in_flight") (s "rip_queue_depth"));
  Buffer.add_string buf
    (Printf.sprintf
       "  solved %.0f  degraded %.0f  timeouts %.0f  busy %.0f  errors %.0f\n"
       (s "rip_solved_total") (s "rip_degraded_total")
       (s "rip_timeouts_total")
       (s "rip_rejected_busy_total")
       (s "rip_errors_total"));
  Buffer.add_string buf
    (Printf.sprintf
       "  cache: %.1f%% hit (%.0f/%.0f), %.0f entries  journal %s\n" hit_rate
       hits lookups (s "rip_cache_size")
       (human_bytes (s "rip_journal_bytes")));
  (match quantiles body "rip_solve_cpu_seconds" with
  | Some (p50, p95, p99, count) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  solve cpu (n=%d): p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n" count
           (ms p50) (ms p95) (ms p99))
  | None -> ());
  match quantiles body "rip_queue_wait_seconds" with
  | Some (p50, p95, p99, _) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  queue wait: p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n" (ms p50)
           (ms p95) (ms p99))
  | None -> ()

let render_frame connects labels =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun i connect ->
      (match fetch_metrics connect with
      | Error e ->
          Buffer.add_string buf
            (Printf.sprintf "%s: unreachable (%s)\n" labels.(i) e)
      | Ok body ->
          if Option.is_some (Obs.scalar body "rip_router_requests_total") then
            render_router buf labels.(i) body
          else render_shard buf labels.(i) body);
      if i < Array.length connects - 1 then Buffer.add_char buf '\n')
    connects;
  Buffer.contents buf

let run socket_path port host endpoints interval once count =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if interval <= 0.0 then begin
    prerr_endline "rip_top: --interval must be positive";
    2
  end
  else begin
    let connects, labels =
      match endpoints with
      | [] ->
          let connect () =
            match port with
            | Some port -> Client.connect_tcp ~host ~port ()
            | None -> Client.connect_unix socket_path
          in
          let label =
            match port with
            | Some port -> Printf.sprintf "%s:%d" host port
            | None -> socket_path
          in
          ([| connect |], [| label |])
      | endpoints ->
          ( Array.of_list
              (List.map (fun path () -> Client.connect_unix path) endpoints),
            Array.of_list endpoints )
    in
    let stop = ref false in
    let handler = Sys.Signal_handle (fun _ -> stop := true) in
    if not once then Sys.set_signal Sys.sigint handler;
    let frames = if once then 1 else Option.value ~default:max_int count in
    let rec loop remaining =
      if remaining <= 0 || !stop then 0
      else begin
        let frame = render_frame connects labels in
        if not once then print_string "\027[2J\027[H";
        print_string frame;
        flush stdout;
        if remaining > 1 && not !stop then Thread.delay interval;
        loop (remaining - 1)
      end
    in
    loop frames
  end

open Cmdliner

let socket_path =
  Arg.(
    value
    & opt string "rip_routerd.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket of the daemon to watch (ignored with \
              --port or --endpoint).")

let port =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Watch a TCP daemon instead.")

let host =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Host for --port.")

let endpoints =
  Arg.(
    value & opt_all string []
    & info [ "endpoint" ] ~docv:"SOCKET"
        ~doc:"Watch this Unix-socket endpoint (repeatable); mix a router \
              and bare shards freely — each is detected from its METRICS \
              families.")

let interval =
  Arg.(
    value & opt float 2.0
    & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period.")

let once =
  Arg.(
    value & flag
    & info [ "once" ]
        ~doc:"Print a single frame without clearing the screen and exit — \
              for CI and scripts.")

let count =
  Arg.(
    value
    & opt (some int) None
    & info [ "count" ] ~docv:"N" ~doc:"Stop after N frames (default: run \
                                       until interrupted).")

let main =
  Cmd.v
    (Cmd.info "rip_top" ~version:"1.0.0"
       ~doc:"Live per-shard dashboard over METRICS: shards in the ring, \
             forwards and failovers, cache hit rates, latency percentiles")
    Term.(
      const run $ socket_path $ port $ host $ endpoints $ interval $ once
      $ count)

let () = exit (Cmd.eval' main)
