(* Resilience and chaos suite: deadlines, fault injection, graceful
   degradation, bounded frames, cache self-healing and client retries.

   Every fault plan here is deterministic (fixed seed), so the suite is
   reproducible; the @chaos dune alias runs exactly these tests. *)

module Protocol = Rip_service.Protocol
module Server = Rip_service.Server
module Client = Rip_service.Client
module Frontend = Rip_service.Frontend
module Faults = Rip_service.Faults
module Wire = Rip_service.Wire
module Solve_cache = Rip_service.Solve_cache
module Loadgen = Rip_service.Loadgen
module Cancel = Rip_engine.Cancel
module Net = Rip_net.Net
module Segment = Rip_net.Segment
module Zone = Rip_net.Zone
module Geometry = Rip_net.Geometry
module Rip = Rip_core.Rip
module Validate = Rip_core.Validate
module Solution = Rip_elmore.Solution

let process = Helpers.process

let sample_net ?(name = "chaos") () =
  Net.create ~name
    ~segments:
      [
        Segment.of_layer Rip_tech.Layer.metal4 ~length:1800.0;
        Segment.of_layer Rip_tech.Layer.metal5 ~length:2200.0;
      ]
    ~zones:[ Zone.create ~z_start:1500.0 ~z_end:2600.0 ]
    ~driver_width:20.0 ~receiver_width:40.0 ()

let feasible_budget net = 1.3 *. Rip.tau_min process (Geometry.of_net net)

let faults spec =
  match Faults.parse_spec spec with
  | Ok f -> f
  | Error e -> Alcotest.failf "bad fault spec %S: %s" spec e

(* One in-process connection over a socketpair. *)
let connect_pair server =
  let server_fd, client_fd =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let worker = Thread.create (Server.handle_connection server) server_fd in
  (Client.of_fd client_fd, worker)

let with_server ?config f =
  let server = Server.create ?config process in
  Fun.protect ~finally:(fun () -> Server.shutdown server) (fun () -> f server)

let solution_of_wire (s : Protocol.solution) =
  Solution.create s.Protocol.repeaters

(* A degraded answer may miss the budget (that is the point) but must be
   legal in every other respect. *)
let check_degraded_legal net ~budget (s : Protocol.solution) =
  let violations =
    Validate.check process net ~budget (solution_of_wire s)
    |> List.filter (function
         | Validate.Over_budget _ -> false
         | _ -> true)
  in
  Alcotest.(check int)
    "degraded solution has no legality violations" 0 (List.length violations)

(* --- Cancellation tokens ------------------------------------------------- *)

let test_cancel_token () =
  let now = Rip_numerics.Cpu_clock.monotonic_seconds () in
  let never = Cancel.create () in
  Alcotest.(check bool) "no deadline: not cancelled" false
    (Cancel.cancelled never);
  Cancel.hook never ();
  let future = Cancel.create ~deadline:(now +. 3600.0) () in
  Alcotest.(check bool) "future deadline: not yet cancelled" false
    (Cancel.cancelled future);
  Cancel.hook future ();
  let t = Cancel.create ~deadline:(now -. 0.001) () in
  Alcotest.(check bool) "past deadline fires without any cancel call" true
    (Cancel.cancelled t);
  Alcotest.check_raises "hook raises once fired" Cancel.Cancelled
    (Cancel.hook t);
  Alcotest.(check (option int))
    "protect maps Cancelled to None" None
    (Cancel.protect (fun () -> Cancel.hook t (); 1));
  Alcotest.(check (option int))
    "protect passes values through" (Some 7)
    (Cancel.protect (fun () -> 7));
  (* The clock never runs backwards, so a fired token stays fired and a
     token without a deadline stays unfired. *)
  Alcotest.(check bool) "still fired" true (Cancel.cancelled t);
  Alcotest.(check bool) "never fires" false (Cancel.cancelled never)

(* --- Deadline edge cases -------------------------------------------------- *)

let test_timeout_at_admission () =
  with_server ~config:{ Server.default_config with jobs = Some 1 }
    (fun server ->
      let client, worker = connect_pair server in
      let net = sample_net () in
      (match
         Client.request client
           (Protocol.solve ~deadline_ms:0.0 ~budget:(feasible_budget net) net)
       with
      | Ok Protocol.Timeout -> ()
      | Ok other ->
          Alcotest.failf "expired deadline answered %S"
            (Protocol.print_response other)
      | Error e -> Alcotest.failf "transport failure: %s" e);
      let metrics = Server.metrics_body server in
      Alcotest.(check int) "one timeout" 1
        (Helpers.count metrics "rip_timeouts_total");
      Alcotest.(check int) "nothing solved" 0
        (Helpers.count metrics "rip_solved_total");
      Alcotest.(check int) "no solver time spent" 0
        (compare (Helpers.metric metrics "rip_solve_cpu_seconds_sum") 0.0);
      Client.close client;
      Thread.join worker)

let test_cache_hit_beats_expired_deadline () =
  with_server ~config:{ Server.default_config with jobs = Some 1 }
    (fun server ->
      let client, worker = connect_pair server in
      let net = sample_net () in
      let budget = feasible_budget net in
      (match
         Client.request client
           (Protocol.solve ~budget net)
       with
      | Ok (Protocol.Result { served = Protocol.Fresh; _ }) -> ()
      | Ok other ->
          Alcotest.failf "warmup answered %S" (Protocol.print_response other)
      | Error e -> Alcotest.failf "warmup failed: %s" e);
      (* The replay is free, so a cached answer beats TIMEOUT even for a
         deadline that was already dead on arrival. *)
      (match
         Client.request client
           (Protocol.solve ~deadline_ms:0.0 ~budget net)
       with
      | Ok (Protocol.Result { served = Protocol.Cached; _ }) -> ()
      | Ok other ->
          Alcotest.failf "cache hit past deadline answered %S"
            (Protocol.print_response other)
      | Error e -> Alcotest.failf "cache hit failed: %s" e);
      Alcotest.(check int) "no timeout counted" 0
        (Helpers.count (Server.metrics_body server) "rip_timeouts_total");
      Client.close client;
      Thread.join worker)

let test_deadline_mid_solve_degrades () =
  (* The injected 500 ms solve delay guarantees the 50 ms deadline fires
     mid-solve; the delay sleeps only until the token's deadline, so the
     request still answers promptly — well before the delay would have
     ended. *)
  with_server
    ~config:
      {
        Server.default_config with
        jobs = Some 1;
        faults = Some (faults "seed=3,delay:p=1:ms=500");
      }
    (fun server ->
      let client, worker = connect_pair server in
      let net = sample_net () in
      let budget = feasible_budget net in
      let sent = Rip_numerics.Cpu_clock.monotonic_seconds () in
      (match
         Client.request client
           (Protocol.solve ~deadline_ms:50.0 ~budget net)
       with
      | Ok (Protocol.Degraded
               { reason = Protocol.Deadline_exceeded; answer = { solution; _ } })
        ->
          let elapsed = Rip_numerics.Cpu_clock.monotonic_seconds () -. sent in
          if elapsed >= 0.25 then
            Alcotest.failf
              "DEGRADED took %.0f ms; the 500 ms delay was not cut at the \
               50 ms deadline"
              (elapsed *. 1000.0);
          check_degraded_legal net ~budget solution
      | Ok other ->
          Alcotest.failf "deadline mid-solve answered %S"
            (Protocol.print_response other)
      | Error e -> Alcotest.failf "transport failure: %s" e);
      let metrics = Server.metrics_body server in
      Alcotest.(check int) "one degradation" 1
        (Helpers.count metrics "rip_degraded_total");
      Alcotest.(check int) "no TIMEOUT (work was attempted)" 0
        (Helpers.count metrics "rip_timeouts_total");
      Client.close client;
      Thread.join worker)

(* --- Fault injection ------------------------------------------------------ *)

let test_worker_kill_degrades () =
  with_server
    ~config:
      {
        Server.default_config with
        jobs = Some 1;
        faults = Some (faults "seed=5,kill:p=1");
      }
    (fun server ->
      let client, worker = connect_pair server in
      let net = sample_net () in
      let budget = feasible_budget net in
      let solve = Protocol.solve ~budget net in
      (match Client.request client solve with
      | Ok (Protocol.Degraded
               { reason = Protocol.Worker_lost; answer = { solution; _ } }) ->
          check_degraded_legal net ~budget solution
      | Ok other ->
          Alcotest.failf "killed worker answered %S"
            (Protocol.print_response other)
      | Error e -> Alcotest.failf "transport failure: %s" e);
      (* The server survives its dead worker: the connection still
         answers, both solves and pings. *)
      (match Client.request client solve with
      | Ok (Protocol.Degraded { reason = Protocol.Worker_lost; _ }) -> ()
      | Ok other ->
          Alcotest.failf "second kill answered %S"
            (Protocol.print_response other)
      | Error e -> Alcotest.failf "second solve failed: %s" e);
      (match Client.request client Protocol.Ping with
      | Ok Protocol.Pong -> ()
      | Ok other ->
          Alcotest.failf "PING after kills answered %S"
            (Protocol.print_response other)
      | Error e -> Alcotest.failf "PING failed: %s" e);
      Alcotest.(check int) "both requests degraded" 2
        (Helpers.count (Server.metrics_body server) "rip_degraded_total");
      Client.close client;
      Thread.join worker)

let test_overload_sheds_to_degraded () =
  (* high_water 1 under queue_depth 2: the first solve (held in its
     injected 300 ms delay) occupies the only below-high-water slot, so
     a concurrent second solve is answered from the analytic tier. *)
  with_server
    ~config:
      {
        Server.default_config with
        jobs = Some 1;
        queue_depth = 2;
        high_water = 1;
        faults = Some (faults "seed=9,delay:p=1:ms=300");
      }
    (fun server ->
      let net = sample_net () in
      let budget = feasible_budget net in
      let solve = Protocol.solve ~budget net in
      let responses = Array.make 2 (Error "not run") in
      let one index () =
        let client, worker = connect_pair server in
        responses.(index) <- Client.request client solve;
        Client.close client;
        Thread.join worker
      in
      let first = Thread.create (one 0) () in
      Thread.delay 0.08;  (* let the first solve enter its delay *)
      let second = Thread.create (one 1) () in
      Thread.join first;
      Thread.join second;
      let degraded, full =
        Array.fold_left
          (fun (d, f) r ->
            match r with
            | Ok
                (Protocol.Degraded
                  { reason = Protocol.Overload; answer = { solution; _ } }) ->
                check_degraded_legal net ~budget solution;
                (d + 1, f)
            | Ok (Protocol.Result _) -> (d, f + 1)
            | Ok other ->
                Alcotest.failf "unexpected answer %S"
                  (Protocol.print_response other)
            | Error e -> Alcotest.failf "transport failure: %s" e)
          (0, 0) responses
      in
      Alcotest.(check int) "one request shed" 1 degraded;
      Alcotest.(check int) "one full solve" 1 full)

let test_cache_corruption_self_heals () =
  with_server ~config:{ Server.default_config with jobs = Some 1 }
    (fun server ->
      let client, worker = connect_pair server in
      let net = sample_net () in
      let budget = feasible_budget net in
      let solve = Protocol.solve ~budget net in
      let served () =
        match Client.request client solve with
        | Ok (Protocol.Result { served; _ }) -> served
        | Ok other ->
            Alcotest.failf "solve answered %S" (Protocol.print_response other)
        | Error e -> Alcotest.failf "solve failed: %s" e
      in
      Alcotest.(check bool) "warmup is fresh" true (served () = Protocol.Fresh);
      Alcotest.(check bool) "replay is cached" true
        (served () = Protocol.Cached);
      (* Flip the stored digest: the next read must detect the mismatch,
         evict the entry and re-solve rather than serve the bad bytes. *)
      Alcotest.(check bool) "corruption hook found the entry" true
        (Server.corrupt_cache_entry server (Server.cache_key server ~net ~budget));
      Alcotest.(check bool) "corrupted entry is re-solved" true
        (served () = Protocol.Fresh);
      Alcotest.(check bool) "healed entry serves again" true
        (served () = Protocol.Cached);
      let metrics = Server.metrics_body server in
      Alcotest.(check int) "one self-heal counted" 1
        (Helpers.count metrics "rip_cache_self_heals");
      Client.close client;
      Thread.join worker)

(* --- Frame bounds --------------------------------------------------------- *)

let read_all fd =
  let buffer = Bytes.create 4096 in
  let out = Buffer.create 256 in
  let rec go () =
    match Unix.read fd buffer 0 (Bytes.length buffer) with
    | 0 -> Buffer.contents out
    | n ->
        Buffer.add_subbytes out buffer 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        Buffer.contents out
  in
  go ()

let test_oversized_frame_rejected () =
  with_server
    ~config:
      { Server.default_config with jobs = Some 1; max_frame_bytes = 256 }
    (fun server ->
      let server_fd, client_fd =
        Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
      in
      let worker =
        Thread.create (Server.handle_connection server) server_fd
      in
      (* One endless header line: the frame budget must trip on buffered
         bytes before any line is handed to the parser, however the reads
         split. *)
      let s = "SOLVE " ^ String.make 600 'x' ^ "\nEND\n" in
      (try Wire.send client_fd s
       with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
      let answer = read_all client_fd in
      Alcotest.(check string) "typed TOOBIG then hang up" "TOOBIG\n" answer;
      Thread.join worker;
      Unix.close client_fd;
      Alcotest.(check int) "toobig counted" 1
        (Helpers.count (Server.metrics_body server) "rip_toobig_total"))

let test_wire_reader_bounds () =
  (* Writes are interleaved with reads so each read sees exactly one
     line's bytes: the budget is checked on buffer growth, so batching
     both lines into one read would trip it before the first line. *)
  let read_fd, write_fd = Unix.pipe ~cloexec:true () in
  let reader = Wire.create ~max_frame_bytes:16 read_fd in
  let next = Wire.reader reader in
  Wire.send write_fd "0123456789\n";
  Alcotest.(check (option string)) "first line fits" (Some "0123456789")
    (next ());
  (* The second line pushes the frame past 16 bytes... *)
  Wire.send write_fd "0123456789\n";
  Alcotest.check_raises "second line trips the frame budget"
    Wire.Frame_too_big (fun () -> ignore (next ()));
  (* ...but a new frame resets the budget; the buffered line that
     tripped the bound is then readable again. *)
  Wire.new_frame reader;
  Alcotest.(check (option string)) "after new_frame" (Some "0123456789")
    (next ());
  Wire.send write_fd "ok\n";
  Unix.close write_fd;
  Alcotest.(check (option string)) "reads on" (Some "ok") (next ());
  Alcotest.(check (option string)) "eof" None (next ());
  Unix.close read_fd

let test_wire_reader_lines () =
  let read_fd, write_fd = Unix.pipe ~cloexec:true () in
  let next = Wire.reader (Wire.create read_fd) in
  Wire.send write_fd "alpha\r\nbeta\ntail-without-newline";
  Unix.close write_fd;
  Alcotest.(check (option string)) "crlf stripped" (Some "alpha") (next ());
  Alcotest.(check (option string)) "plain line" (Some "beta") (next ());
  Alcotest.(check (option string)) "final unterminated line"
    (Some "tail-without-newline") (next ());
  Alcotest.(check (option string)) "eof" None (next ());
  Unix.close read_fd

(* --- Fault plans ---------------------------------------------------------- *)

let test_faults_spec_parsing () =
  let plan =
    faults "seed=7,delay:p=0.5:ms=20,kill:p=0.25,drop:p=0.75:bytes=64,corrupt"
  in
  let spec = Faults.spec plan in
  Alcotest.(check int64) "seed" 7L spec.Faults.seed;
  Alcotest.(check (float 0.0)) "delay p" 0.5 spec.Faults.delay_p;
  Alcotest.(check (float 0.0)) "delay seconds" 0.020 spec.Faults.delay_seconds;
  Alcotest.(check (float 0.0)) "kill p" 0.25 spec.Faults.kill_p;
  Alcotest.(check int) "drop bytes" 64 spec.Faults.drop_bytes;
  Alcotest.(check (float 0.0)) "bare clause means p=1" 1.0
    spec.Faults.corrupt_p;
  let disk =
    faults "seed=9,torn:p=0.25,bitflip:p=0.125,fsyncdelay:p=0.5:ms=8"
  in
  let disk_spec = Faults.spec disk in
  Alcotest.(check (float 0.0)) "torn p" 0.25 disk_spec.Faults.torn_p;
  Alcotest.(check (float 0.0)) "bitflip p" 0.125 disk_spec.Faults.bitflip_p;
  Alcotest.(check (float 0.0)) "fsyncdelay p" 0.5
    disk_spec.Faults.fsync_delay_p;
  Alcotest.(check (float 0.0)) "fsyncdelay seconds" 0.008
    disk_spec.Faults.fsync_delay_seconds;
  (match Faults.parse_spec "" with
  | Ok plan ->
      Alcotest.(check (float 0.0)) "empty spec is disabled" 0.0
        (Faults.spec plan).Faults.kill_p
  | Error e -> Alcotest.failf "empty spec rejected: %s" e);
  List.iter
    (fun bad ->
      match Faults.parse_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S should not parse" bad)
    [
      "frobnicate"; "kill:p=nope"; "kill:p=1.5"; "seed=xyz"; "delay:ms=-3";
      "torn:p=2"; "fsyncdelay:ms=-1";
    ]

let test_faults_deterministic () =
  let draws spec =
    let plan = faults spec in
    List.init 32 (fun _ -> (Faults.kill_worker plan, Faults.solve_delay plan))
  in
  Alcotest.(check bool) "same seed, same schedule" true
    (draws "seed=42,kill:p=0.3,delay:p=0.4:ms=5"
    = draws "seed=42,kill:p=0.3,delay:p=0.4:ms=5");
  Alcotest.(check bool) "different seed, different schedule" true
    (draws "seed=42,kill:p=0.3,delay:p=0.4:ms=5"
    <> draws "seed=43,kill:p=0.3,delay:p=0.4:ms=5");
  let off = Faults.disabled () in
  Alcotest.(check bool) "disabled never kills" false (Faults.kill_worker off);
  Alcotest.(check bool) "disabled never delays" true
    (Faults.solve_delay off = None);
  Alcotest.(check bool) "disabled never drops" true
    (Faults.drop_after off = None)

(* --- Client retries over a real listener ---------------------------------- *)

let temp_socket_path tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "rip_%s_%d.sock" tag (Unix.getpid ()))

let with_listening_server ~config ~tag f =
  let path = temp_socket_path tag in
  let server = Server.create ~config process in
  let listen_fd = Frontend.listen_unix path in
  let run_thread = Thread.create (Server.run server) listen_fd in
  Fun.protect
    ~finally:(fun () ->
      Server.request_shutdown server;
      Thread.join run_thread;
      Server.shutdown server;
      if Sys.file_exists path then
        try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f server path)

let test_dropped_connection_retries () =
  (* Every response is cut after 5 bytes: the client must see a typed
     transport error (never a half-parsed Ok), reconnect, retry, and
     finally report the failure after exhausting its attempts. *)
  with_listening_server ~tag:"drop"
    ~config:
      {
        Server.default_config with
        jobs = Some 1;
        faults = Some (faults "seed=2,drop:p=1:bytes=5");
      }
    (fun server path ->
      let policy =
        {
          Client.default_retry_policy with
          attempts = 3;
          backoff_seconds = 0.001;
          backoff_cap_seconds = 0.002;
        }
      in
      let session =
        Client.session ~policy ~seed:77L (fun () -> Client.connect_unix path)
      in
      let net = sample_net () in
      let outcome =
        Client.request_with_retry session
          (Protocol.solve ~budget:(feasible_budget net) net)
      in
      Client.close_session session;
      (match outcome.Client.response with
      | Error _ -> ()
      | Ok r ->
          Alcotest.failf "dropped responses produced an Ok %S"
            (Protocol.print_response r));
      Alcotest.(check int) "all attempts used" 3 outcome.Client.attempts;
      Alcotest.(check int) "both retries were transport retries" 2
        outcome.Client.retried_transport;
      (* Every attempt reached the server and was fully served there. *)
      let metrics = Server.metrics_body server in
      Alcotest.(check int) "server saw every attempt" 3
        (Helpers.count metrics "rip_requests_total");
      Alcotest.(check int) "first attempt solved, replays hit the cache" 2
        (Helpers.count metrics "rip_cache_hits"))

let test_busy_retries_counted () =
  with_server ~config:{ Server.default_config with jobs = Some 1 }
    (fun server ->
      (* Draining servers reject solves with BUSY; the session must retry
         the configured number of times and surface the final BUSY. *)
      Server.request_shutdown server;
      let client, worker = connect_pair server in
      let connected = ref (Some client) in
      let session =
        Client.session
          ~policy:
            {
              Client.default_retry_policy with
              attempts = 3;
              backoff_seconds = 0.001;
              backoff_cap_seconds = 0.002;
            }
          ~seed:5L
          (fun () ->
            match !connected with
            | Some c ->
                connected := None;
                c
            | None -> Alcotest.fail "BUSY must not reconnect")
      in
      let net = sample_net () in
      let outcome =
        Client.request_with_retry session
          (Protocol.solve ~budget:(feasible_budget net) net)
      in
      (match outcome.Client.response with
      | Ok Protocol.Busy -> ()
      | Ok other ->
          Alcotest.failf "draining server answered %S"
            (Protocol.print_response other)
      | Error e -> Alcotest.failf "transport failure: %s" e);
      Alcotest.(check int) "two busy retries" 2 outcome.Client.retried_busy;
      Alcotest.(check int) "server counted every attempt" 3
        (Helpers.count (Server.metrics_body server) "rip_rejected_busy_total");
      Client.close_session session;
      Thread.join worker)

(* --- The chaos storm ------------------------------------------------------ *)

(* The acceptance scenario: injected worker kills and solve delays under
   a 50 ms deadline.  Every request must get exactly one well-formed
   typed response — RESULT, DEGRADED, TIMEOUT or BUSY — with zero hangs,
   and the load generator's counts must reconcile with the server's
   METRICS counters. *)
let test_chaos_storm_counts_reconcile () =
  with_listening_server ~tag:"chaos"
    ~config:
      {
        Server.default_config with
        jobs = Some 2;
        queue_depth = 8;
        high_water = 8;
        faults = Some (faults "seed=11,delay:p=0.4:ms=20,kill:p=0.3");
      }
    (fun server path ->
      let requests = 24 in
      let workload =
        Loadgen.workload ~seed:20050307L ~distinct_nets:2 ~slack:1.3
          ~deadline_ms:50.0 ~requests process
      in
      let policy =
        {
          Client.attempts = 2;
          backoff_seconds = 0.001;
          backoff_cap_seconds = 0.005;
          attempt_timeout = Some 5.0;
        }
      in
      let result =
        Loadgen.run
          ~connect:(fun () -> Client.connect_unix path)
          ~connections:3 ~policy ~seed:5L workload
      in
      (* Exactly one typed response per request, no hangs, no errors. *)
      Alcotest.(check int) "all requests issued" requests result.Loadgen.sent;
      Alcotest.(check int) "no transport failures" 0
        result.Loadgen.transport_failures;
      Alcotest.(check int) "no transport retries" 0
        result.Loadgen.retried_transport;
      Alcotest.(check int) "no solver errors" 0 result.Loadgen.errors;
      Alcotest.(check int) "every request answered with a typed frame"
        requests
        (result.Loadgen.solved_fresh + result.Loadgen.solved_cached
        + result.Loadgen.degraded + result.Loadgen.timeouts
        + result.Loadgen.busy);
      (* The loadgen's view reconciles with the server's METRICS: every
         retried BUSY/TIMEOUT attempt also reached the server. *)
      let metrics = Server.metrics_body server in
      let attempts =
        requests + result.Loadgen.retried_busy + result.Loadgen.retried_timeout
      in
      Alcotest.(check int) "server saw every attempt" attempts
        (Helpers.count metrics "rip_requests_total");
      Alcotest.(check int) "solved reconciles"
        (result.Loadgen.solved_fresh + result.Loadgen.solved_cached)
        (Helpers.count metrics "rip_solved_total");
      Alcotest.(check int) "degraded reconciles" result.Loadgen.degraded
        (Helpers.count metrics "rip_degraded_total");
      Alcotest.(check int) "timeouts reconcile"
        (result.Loadgen.timeouts + result.Loadgen.retried_timeout)
        (Helpers.count metrics "rip_timeouts_total");
      Alcotest.(check int) "busy reconciles"
        (result.Loadgen.busy + result.Loadgen.retried_busy)
        (Helpers.count metrics "rip_rejected_busy_total");
      Alcotest.(check int) "cache hits reconcile" result.Loadgen.solved_cached
        (Helpers.count metrics "rip_cache_hits");
      Alcotest.(check int) "every attempt hit or missed the cache"
        (Helpers.count metrics "rip_requests_total")
        (Helpers.count metrics "rip_cache_hits"
        + Helpers.count metrics "rip_cache_misses");
      (* Under kills and delays something must actually have degraded —
         otherwise this storm is not testing what it claims to. *)
      Alcotest.(check bool) "the storm injected real faults" true
        (result.Loadgen.degraded > 0))

(* --- Crash-durable journal ------------------------------------------------ *)

module Journal = Rip_service.Journal

let qcheck = QCheck_alcotest.to_alcotest

let temp_dir tag =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rip_journal_%s_%d_%d" tag (Unix.getpid ())
         (Hashtbl.hash tag))
  in
  (match Journal.prepare_dir dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "prepare_dir %s: %s" dir e);
  dir

let remove_dir dir =
  (match Sys.readdir dir with
  | names ->
      Array.iter
        (fun name ->
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        names
  | exception Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let with_journal_dir tag f =
  let dir = temp_dir tag in
  Fun.protect ~finally:(fun () -> remove_dir dir) (fun () -> f dir)

(* A live source that holds nothing: tests that stay below the
   compaction floor never call it. *)
let no_live () = []

let open_exn ?faults ?(live = no_live) dir =
  match Journal.open_ ?faults ~live dir with
  | Ok pair -> pair
  | Error e -> Alcotest.failf "Journal.open_: %s" e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let segment_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".rj")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

let test_journal_crc32_vector () =
  (* The standard IEEE 802.3 check value: crc32("123456789"). *)
  let b = Bytes.of_string "123456789" in
  Alcotest.(check int32)
    "crc32 check vector" 0xCBF43926l
    (Journal.crc32 b ~pos:0 ~len:9)

let test_journal_roundtrip () =
  with_journal_dir "roundtrip" (fun dir ->
      let pairs =
        List.init 8 (fun i ->
            (Printf.sprintf "key-%d" i, Printf.sprintf "value-%d-%s" i dir))
      in
      let journal, recovery = open_exn dir in
      Alcotest.(check int) "fresh dir has no entries" 0
        (List.length recovery.Journal.entries);
      List.iter (fun (key, value) -> Journal.append journal ~key ~value) pairs;
      Journal.close journal;
      let journal2, recovery2 = open_exn dir in
      Alcotest.(check int) "no CRC rejects" 0 recovery2.Journal.crc_rejected;
      Alcotest.(check int) "no torn bytes" 0 recovery2.Journal.torn_bytes;
      Alcotest.(check bool) "entries replay in append order" true
        (recovery2.Journal.entries = pairs);
      Journal.close journal2)

(* A directory with no segment is a first boot: nothing to repair.  A
   flushed segment its boot never closed replays whole. *)
let test_journal_first_boot () =
  with_journal_dir "firstboot" (fun dir ->
      let journal, recovery = open_exn dir in
      Alcotest.(check int) "no segment yet" 0 recovery.Journal.segments;
      Alcotest.(check int) "a first boot tears nothing" 0
        recovery.Journal.torn_bytes;
      Journal.append journal ~key:"k" ~value:"v";
      Journal.flush journal;
      let journal2, recovery2 = open_exn dir in
      Alcotest.(check int) "the first boot's segment" 1
        recovery2.Journal.segments;
      Alcotest.(check bool) "its record replays" true
        (recovery2.Journal.entries = [ ("k", "v") ]);
      Journal.close journal2;
      Journal.close journal)

let test_journal_last_wins () =
  with_journal_dir "lastwins" (fun dir ->
      let journal, _ = open_exn dir in
      Journal.append journal ~key:"a" ~value:"stale";
      Journal.append journal ~key:"b" ~value:"kept";
      Journal.append journal ~key:"a" ~value:"fresh";
      Journal.close journal;
      let journal2, recovery = open_exn dir in
      Alcotest.(check bool) "last write per key wins" true
        (recovery.Journal.entries = [ ("a", "fresh"); ("b", "kept") ]
        || recovery.Journal.entries = [ ("b", "kept"); ("a", "fresh") ]);
      Alcotest.(check int) "one live record per key" 2
        (List.length recovery.Journal.entries);
      Journal.close journal2)

(* Compaction keeps what the live source holds and nothing else: the
   log shrinks to that subset, and the next recovery replays exactly it,
   in key order.  The first compaction fires at the 256 KiB floor; the
   subset (48 records, about 193 KiB) is past half the floor, so the
   second waits until the log has doubled what the first one left, and
   after a restart the first waits until it has doubled what the
   recovery left. *)
let test_journal_compaction () =
  with_journal_dir "compaction" (fun dir ->
      let key i = Printf.sprintf "cmp-%03d" i in
      let value i = String.make 4096 (Char.chr (65 + (i mod 26))) in
      let frame = 13 + String.length (key 0) + 4096 in
      let subset = List.init 48 (fun j -> 94 - (2 * j)) in
      let live () = List.map (fun i -> (key i, value i)) subset in
      (* Append until the [n]-th compaction: the next key and the log's
         size just before and just after that append. *)
      let rec fill journal i n =
        if i >= 300 then Alcotest.failf "no compaction %d within 300 appends" n;
        let before = Journal.stats journal in
        Journal.append journal ~key:(key i) ~value:(value i);
        let after = Journal.stats journal in
        if after.Journal.compactions < n then fill journal (i + 1) n
        else (i + 1, before, after)
      in
      let fires_at threshold (before : Journal.stats) =
        before.Journal.bytes < threshold
        && before.Journal.bytes + frame >= threshold
      in
      let journal, _ = open_exn ~live dir in
      let next, before, first = fill journal 0 1 in
      Alcotest.(check bool) "the first fires at the floor" true
        (fires_at (256 * 1024) before);
      Alcotest.(check bool) "the log shrank" true
        (first.Journal.bytes < before.Journal.bytes);
      Alcotest.(check int) "one segment left" 1 first.Journal.segments;
      Alcotest.(check int) "one segment on disk" 1
        (List.length (segment_files dir));
      let next, before, second = fill journal next 2 in
      Alcotest.(check bool) "the second fires at twice what the first left"
        true
        (fires_at (2 * first.Journal.bytes) before);
      Alcotest.(check int) "the same live set" first.Journal.bytes
        second.Journal.bytes;
      Journal.close journal;
      let journal2, recovery = open_exn ~live dir in
      Alcotest.(check (list (pair string string)))
        "exactly the live subset, in key order"
        (List.map (fun i -> (key i, value i)) (List.sort compare subset))
        recovery.Journal.entries;
      let opened = Journal.stats journal2 in
      let _, before, _ = fill journal2 next 1 in
      Alcotest.(check bool) "after a restart, at twice what recovery left"
        true
        (fires_at (2 * opened.Journal.bytes) before);
      Journal.close journal2)

(* The cache's verified fold skips an entry whose digest no longer
   matches its bytes, so a compaction fed by it never persists them. *)
let test_journal_compaction_skips_corrupt () =
  with_journal_dir "corrupt" (fun dir ->
      let cache = Solve_cache.create ~capacity:8 in
      List.iter
        (fun k ->
          let v = "body-" ^ k in
          Solve_cache.add_verified cache k v ~digest:(Digest.string v))
        [ "a"; "b"; "c" ];
      Alcotest.(check bool) "corrupted" true (Solve_cache.corrupt cache "b");
      let live () =
        Solve_cache.fold_verified cache ~digest_of:Digest.string
          (fun k v ~digest acc -> (k, digest ^ v) :: acc)
          []
      in
      Alcotest.(check (list string)) "the fold skips the corrupt entry"
        [ "a"; "c" ]
        (List.sort compare (List.map fst (live ())));
      let journal, _ = open_exn ~live dir in
      (* One record past the floor forces the compaction. *)
      Journal.append journal ~key:"filler" ~value:(String.make (256 * 1024) 'f');
      Alcotest.(check int) "compaction ran" 1
        (Journal.stats journal).Journal.compactions;
      Journal.close journal;
      let journal2, recovery = open_exn dir in
      Alcotest.(check (list string)) "only verified entries persist"
        [ "a"; "c" ]
        (List.map fst recovery.Journal.entries);
      List.iter
        (fun (k, value) ->
          Alcotest.(check string) "digest then body"
            (Digest.string ("body-" ^ k) ^ "body-" ^ k)
            value)
        recovery.Journal.entries;
      Journal.close journal2)

(* A segment an older build closed ends in a 13-byte 'F' footer (zero
   lengths, CRC over the 9 header bytes).  It replays every record and
   reads the footer as a torn tail, once. *)
let test_journal_old_footer () =
  with_journal_dir "footer" (fun dir ->
      let frame typ key value =
        let klen = String.length key and vlen = String.length value in
        let b = Bytes.create (13 + klen + vlen) in
        Bytes.set b 0 typ;
        Bytes.set_int32_be b 1 (Int32.of_int klen);
        Bytes.set_int32_be b 5 (Int32.of_int vlen);
        Bytes.blit_string key 0 b 13 klen;
        Bytes.blit_string value 0 b (13 + klen) vlen;
        let head = Journal.crc32 b ~pos:0 ~len:9 in
        Bytes.set_int32_be b 9
          (Journal.crc32 ~crc:head b ~pos:13 ~len:(klen + vlen));
        Bytes.to_string b
      in
      let pairs = [ ("old-a", "one"); ("old-b", "two"); ("old-a", "three") ] in
      write_file
        (Filename.concat dir "segment-00000001.rj")
        (String.concat ""
           (("RIPJRNL1\n" :: List.map (fun (k, v) -> frame 'E' k v) pairs)
           @ [ frame 'F' "" "" ]));
      let journal, recovery = open_exn dir in
      Alcotest.(check int) "every record valid" 3 recovery.Journal.valid_records;
      Alcotest.(check (list (pair string string))) "every record replays"
        [ ("old-a", "three"); ("old-b", "two") ]
        recovery.Journal.entries;
      Alcotest.(check int) "the footer is a 13-byte torn tail" 13
        recovery.Journal.torn_bytes;
      Journal.close journal;
      let journal2, recovery2 = open_exn dir in
      Alcotest.(check int) "truncated once" 0 recovery2.Journal.torn_bytes;
      Alcotest.(check int) "records kept" 3 recovery2.Journal.valid_records;
      Journal.close journal2)

let test_journal_torn_tail () =
  with_journal_dir "torn" (fun dir ->
      let journal, _ = open_exn dir in
      Journal.append journal ~key:"whole" ~value:"survives";
      Journal.flush journal;
      Journal.close journal;
      (* A crash mid-append: valid frames, then a ragged half-record. *)
      let path = List.hd (segment_files dir) in
      let bytes = read_file path in
      write_file path (bytes ^ "E\x00\x00\x00\x05\x00");
      let journal2, recovery = open_exn dir in
      Alcotest.(check bool) "torn tail truncated" true
        (recovery.Journal.torn_bytes > 0);
      Alcotest.(check bool) "records before the tear survive" true
        (recovery.Journal.entries = [ ("whole", "survives") ]);
      Journal.close journal2;
      (* The repair truncated the file in place: a third recovery sees
         no tear at all. *)
      let journal3, recovery3 = open_exn dir in
      Alcotest.(check int) "repair is durable" 0 recovery3.Journal.torn_bytes;
      Journal.close journal3)

let test_journal_crc_reject () =
  with_journal_dir "crc" (fun dir ->
      let journal, _ = open_exn dir in
      Journal.append journal ~key:"first" ~value:"to-be-rotted";
      Journal.append journal ~key:"second" ~value:"intact";
      Journal.close journal;
      let path = List.hd (segment_files dir) in
      let bytes = Bytes.of_string (read_file path) in
      (* Flip one payload bit of the first record (magic 9B + header 13B
         + "first"): its CRC must reject it while the second record
         still parses. *)
      let pos = 9 + 13 + 5 + 1 in
      Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x10));
      write_file path (Bytes.to_string bytes);
      let journal2, recovery = open_exn dir in
      Alcotest.(check int) "one record rejected" 1 recovery.Journal.crc_rejected;
      Alcotest.(check bool) "later record unaffected" true
        (recovery.Journal.entries = [ ("second", "intact") ]);
      Journal.close journal2)

let test_journal_prepare_dir () =
  (* Typed errors, not exceptions: an unwritable parent and a path
     through a regular file must both come back as Error. *)
  (match Journal.prepare_dir "/proc/rip-journal-denied" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "prepare_dir under /proc should fail");
  with_journal_dir "prepok" (fun dir ->
      let file = Filename.concat dir "plain-file" in
      write_file file "not a directory";
      (match Journal.prepare_dir (Filename.concat file "sub") with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "prepare_dir through a file should fail");
      (* Re-preparing an existing directory is the mkdir-race idiom:
         always Ok. *)
      match Journal.prepare_dir dir with
      | Ok () -> ()
      | Error e -> Alcotest.failf "re-prepare of %s failed: %s" dir e)

(* Fuzz the recovery path: any byte-prefix of a valid journal, with any
   bits flipped, must recover to a subset of the original records —
   never crash, never surface a record that was not appended. *)
let test_journal_fuzz_recovery =
  let base_pairs =
    List.init 6 (fun i ->
        (Printf.sprintf "fuzz-key-%d" i, Printf.sprintf "fuzz-value-%d" i))
  in
  let base_bytes =
    let dir = temp_dir "fuzzbase" in
    Fun.protect
      ~finally:(fun () -> remove_dir dir)
      (fun () ->
        let journal, _ = open_exn dir in
        List.iter
          (fun (key, value) -> Journal.append journal ~key ~value)
          base_pairs;
        Journal.close journal;
        read_file (List.hd (segment_files dir)))
  in
  let gen =
    QCheck.Gen.(
      pair
        (int_range 0 (String.length base_bytes))
        (list_size (int_range 0 8)
           (pair (int_range 0 (String.length base_bytes - 1)) (int_range 0 7))))
  in
  QCheck.Test.make ~count:100
    ~name:"journal recovery of mutilated logs yields a valid subset"
    (QCheck.make gen) (fun (keep, flips) ->
      let bytes = Bytes.of_string (String.sub base_bytes 0 keep) in
      List.iter
        (fun (pos, bit) ->
          if pos < Bytes.length bytes then
            Bytes.set bytes pos
              (Char.chr (Char.code (Bytes.get bytes pos) lxor (1 lsl bit))))
        flips;
      let dir = temp_dir (Printf.sprintf "fuzz%d" (Hashtbl.hash (keep, flips))) in
      Fun.protect
        ~finally:(fun () -> remove_dir dir)
        (fun () ->
          write_file
            (Filename.concat dir "segment-00000000.rj")
            (Bytes.to_string bytes);
          match Journal.open_ ~live:no_live dir with
          | Error e -> QCheck.Test.fail_reportf "open_ failed: %s" e
          | Ok (journal, recovery) ->
              Journal.close journal;
              List.for_all
                (fun entry -> List.mem entry base_pairs)
                recovery.Journal.entries))

(* One SOLVE over a fresh connection: how it was served, and its body. *)
let solve_served server ~budget net =
  let client, worker = connect_pair server in
  let answer = Client.request client (Protocol.solve ~budget net) in
  Client.close client;
  Thread.join worker;
  match answer with
  | Ok (Protocol.Result { served; answer }) -> (served, answer.Protocol.body)
  | Ok other ->
      Alcotest.failf "unexpected response %s" (Protocol.print_response other)
  | Error e -> Alcotest.failf "transport failure: %s" e

(* End-to-end crash recovery: solve through a journaled server, tear
   the journal's tail as a crash would, boot a second server on the
   same directory and demand byte-identical cached replays. *)
let test_journal_server_restart () =
  with_journal_dir "server" (fun dir ->
      let config =
        {
          Server.default_config with
          jobs = Some 1;
          journal_dir = Some dir;
        }
      in
      let nets =
        List.init 5 (fun i ->
            Net.create
              ~name:(Printf.sprintf "restart-%d" i)
              ~segments:
                [
                  Segment.of_layer Rip_tech.Layer.metal4
                    ~length:(1800.0 +. (130.0 *. float_of_int i));
                  Segment.of_layer Rip_tech.Layer.metal5 ~length:2200.0;
                ]
              ~zones:[ Zone.create ~z_start:1500.0 ~z_end:2600.0 ]
              ~driver_width:20.0 ~receiver_width:40.0 ())
      in
      let solve server net =
        solve_served server ~budget:(feasible_budget net) net
      in
      let first_bodies =
        let server = Server.create ~config process in
        Fun.protect
          ~finally:(fun () -> Server.shutdown server)
          (fun () -> List.map (fun net -> snd (solve server net)) nets)
      in
      (* The crash: a ragged half-record after the (cleanly closed) log.
         Recovery must truncate it and keep every whole record. *)
      let segments =
        segment_files dir |> List.filter (fun p -> Sys.file_exists p)
      in
      let last = List.nth segments (List.length segments - 1) in
      write_file last (read_file last ^ "E\x00\x00\x01");
      let server2 = Server.create ~config process in
      Fun.protect
        ~finally:(fun () -> Server.shutdown server2)
        (fun () ->
          (match Server.journal_recovery server2 with
          | None -> Alcotest.fail "journaled server reports no recovery"
          | Some r ->
              Alcotest.(check int) "every solve was journaled" 5
                (List.length r.Journal.entries);
              Alcotest.(check bool) "the torn tail was repaired" true
                (r.Journal.torn_bytes > 0));
          let metrics = Server.metrics_body server2 in
          Alcotest.(check int) "all records replayed into the cache" 5
            (Helpers.count metrics "rip_cache_replayed");
          let replayed =
            List.map
              (fun net ->
                let served, body = solve server2 net in
                Alcotest.(check bool) "answered from the replayed cache" true
                  (served = Protocol.Cached);
                body)
              nets
          in
          Alcotest.(check bool) "cached replays are byte-identical" true
            (replayed = first_bodies);
          let metrics = Server.metrics_body server2 in
          Alcotest.(check int) "no misses: the warm set covered the suite" 0
            (Helpers.count metrics "rip_cache_misses");
          Alcotest.(check int) "replay counts as neither hit nor miss" 5
            (Helpers.count metrics "rip_cache_hits")))

(* A journaled server compacts from its own cache.  Distinct budgets on
   one net are distinct keys, so solving enough of them through an
   8-entry cache passes the compaction floor.  A restart then replays
   fewer records than were solved, every one of them verifies (the
   cache's entries were persisted as the digest-prefixed bodies replay
   expects), and the eight most recent answers come back Cached with the
   bytes first served. *)
let test_journal_server_compaction () =
  with_journal_dir "servercompact" (fun dir ->
      let config =
        {
          Server.default_config with
          jobs = Some 1;
          cache_capacity = 8;
          journal_dir = Some dir;
        }
      in
      let net = sample_net ~name:"compact" () in
      let budget i = feasible_budget net *. (1.0 +. (0.001 *. float_of_int i)) in
      let solved =
        let server = Server.create ~config process in
        Fun.protect
          ~finally:(fun () -> Server.shutdown server)
          (fun () ->
            let compactions () =
              Helpers.count (Server.metrics_body server) "rip_journal_compactions"
            in
            (* Three more solves after the compaction land in the log
               behind the compacted segment. *)
            let rec go i after acc =
              if i >= 4000 then Alcotest.fail "no compaction within 4000 solves";
              let acc = (budget i, snd (solve_served server ~budget:(budget i) net)) :: acc in
              if after = 3 then acc
              else if after > 0 || compactions () > 0 then go (i + 1) (after + 1) acc
              else go (i + 1) 0 acc
            in
            go 0 0 [])
      in
      let server2 = Server.create ~config process in
      Fun.protect
        ~finally:(fun () -> Server.shutdown server2)
        (fun () ->
          let entries =
            match Server.journal_recovery server2 with
            | Some r -> List.length r.Journal.entries
            | None -> Alcotest.fail "journaled server reports no recovery"
          in
          Alcotest.(check bool) "the log was compacted" true
            (entries < List.length solved);
          Alcotest.(check int) "every replayed record verifies" entries
            (Helpers.count (Server.metrics_body server2) "rip_cache_replayed");
          List.iteri
            (fun i (budget, body) ->
              if i < 8 then begin
                let served, replayed = solve_served server2 ~budget net in
                Alcotest.(check bool) "answered from the replayed cache" true
                  (served = Protocol.Cached);
                Alcotest.(check string) "byte-identical" body replayed
              end)
            solved))

let suite =
  [
    ( "resilience.cancel",
      [ Alcotest.test_case "token semantics" `Quick test_cancel_token ] );
    ( "resilience.deadline",
      [
        Alcotest.test_case "expired at admission" `Quick
          test_timeout_at_admission;
        Alcotest.test_case "cache hit beats deadline" `Quick
          test_cache_hit_beats_expired_deadline;
        Alcotest.test_case "fires mid-solve" `Quick
          test_deadline_mid_solve_degrades;
      ] );
    ( "resilience.faults",
      [
        Alcotest.test_case "spec parsing" `Quick test_faults_spec_parsing;
        Alcotest.test_case "deterministic draws" `Quick
          test_faults_deterministic;
        Alcotest.test_case "worker kill degrades" `Quick
          test_worker_kill_degrades;
        Alcotest.test_case "overload sheds" `Quick
          test_overload_sheds_to_degraded;
        Alcotest.test_case "cache self-heals" `Quick
          test_cache_corruption_self_heals;
      ] );
    ( "resilience.wire",
      [
        Alcotest.test_case "oversized frame rejected" `Quick
          test_oversized_frame_rejected;
        Alcotest.test_case "reader frame budget" `Quick
          test_wire_reader_bounds;
        Alcotest.test_case "reader line handling" `Quick
          test_wire_reader_lines;
      ] );
    ( "resilience.retry",
      [
        Alcotest.test_case "dropped connection" `Quick
          test_dropped_connection_retries;
        Alcotest.test_case "busy retries counted" `Quick
          test_busy_retries_counted;
      ] );
    ( "resilience.chaos",
      [
        Alcotest.test_case "storm counts reconcile" `Quick
          test_chaos_storm_counts_reconcile;
      ] );
    ( "resilience.journal",
      [
        Alcotest.test_case "crc32 check vector" `Quick
          test_journal_crc32_vector;
        Alcotest.test_case "roundtrip in append order" `Quick
          test_journal_roundtrip;
        Alcotest.test_case "a first boot is not unclean" `Quick
          test_journal_first_boot;
        Alcotest.test_case "last write wins" `Quick test_journal_last_wins;
        Alcotest.test_case "compaction keeps the live subset" `Quick
          test_journal_compaction;
        Alcotest.test_case "compaction skips a corrupt cache entry" `Quick
          test_journal_compaction_skips_corrupt;
        Alcotest.test_case "an older build's footer is a torn tail" `Quick
          test_journal_old_footer;
        Alcotest.test_case "torn tail truncated" `Quick
          test_journal_torn_tail;
        Alcotest.test_case "CRC rejection skips a record" `Quick
          test_journal_crc_reject;
        Alcotest.test_case "prepare_dir typed errors" `Quick
          test_journal_prepare_dir;
        qcheck test_journal_fuzz_recovery;
        Alcotest.test_case "server crash restart replays cache" `Quick
          test_journal_server_restart;
        Alcotest.test_case "server compaction keeps its cache" `Quick
          test_journal_server_compaction;
      ] );
  ]
