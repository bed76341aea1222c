(* The service subsystem: wire protocol round trips, solve-cache LRU
   semantics and key canonicalization, and an end-to-end in-process
   server over a socketpair. *)

module Protocol = Rip_service.Protocol
module Trace = Rip_obs.Trace
module Solve_cache = Rip_service.Solve_cache
module Server = Rip_service.Server
module Client = Rip_service.Client
module Loadgen = Rip_service.Loadgen
module Wire = Rip_service.Wire
module Net = Rip_net.Net
module Segment = Rip_net.Segment
module Zone = Rip_net.Zone
module Geometry = Rip_net.Geometry
module Rip = Rip_core.Rip

let process = Helpers.process

let sample_net ?(name = "proto") () =
  Net.create ~name
    ~segments:
      [
        Segment.of_layer Rip_tech.Layer.metal4 ~length:1800.0;
        Segment.of_layer Rip_tech.Layer.metal5 ~length:2200.0;
      ]
    ~zones:[ Zone.create ~z_start:1500.0 ~z_end:2600.0 ]
    ~driver_width:20.0 ~receiver_width:40.0 ()

let sample_solution =
  {
    Protocol.repeaters = [ (812.5, 40.0); (2437.5, 81.25) ];
    total_width = 121.25;
    delay = 3.25e-10;
    power_watts = 1.75e-3;
  }

(* --- Protocol ----------------------------------------------------------- *)

let frame_lines s =
  let lines = String.split_on_char '\n' s in
  match List.rev lines with "" :: rest -> List.rev rest | _ -> lines

let check_request_round_trip request =
  let wire = Protocol.print_request request in
  match Protocol.input_request (Protocol.reader_of_lines (frame_lines wire)) with
  | Ok (Some parsed) ->
      Alcotest.(check bool)
        (Printf.sprintf "request round trip %S" wire)
        true
        (Protocol.request_equal request parsed)
  | Ok None -> Alcotest.failf "round trip of %S hit end of stream" wire
  | Error e -> Alcotest.failf "round trip of %S failed: %s" wire e

let check_response_round_trip response =
  let wire = Protocol.print_response response in
  match
    Protocol.input_response (Protocol.reader_of_lines (frame_lines wire))
  with
  | Ok (Some parsed) ->
      Alcotest.(check bool)
        (Printf.sprintf "response round trip %S" wire)
        true
        (Protocol.response_equal response parsed)
  | Ok None -> Alcotest.failf "round trip of %S hit end of stream" wire
  | Error e -> Alcotest.failf "round trip of %S failed: %s" wire e

let test_protocol_request_round_trips () =
  check_request_round_trip Protocol.Ping;
  check_request_round_trip Protocol.Metrics;
  check_request_round_trip Protocol.Health;
  check_request_round_trip Protocol.Shutdown;
  check_request_round_trip (Protocol.solve ~budget:6.25e-10 (sample_net ()));
  check_request_round_trip
    (Protocol.solve ~deadline_ms:50.0 ~budget:6.25e-10 (sample_net ()));
  check_request_round_trip
    (Protocol.solve ~deadline_ms:50.0
       ~trace:(Trace.make_context ~scope:"loadgen" ~digest:"abc" ~seq:7 ())
       ~budget:6.25e-10 (sample_net ()));
  (* A budget that needs all 17 significant digits must survive. *)
  check_request_round_trip
    (Protocol.solve ~deadline_ms:(1.0 /. 3.0) ~budget:(1.0 /. 3.0 *. 1e-9)
       (Helpers.Net.uniform ~name:"u" Rip_tech.Layer.metal4 ~length:5000.0
          ~segment_count:3 ~driver_width:30.0 ~receiver_width:60.0))

let test_protocol_response_round_trips () =
  check_response_round_trip Protocol.Pong;
  check_response_round_trip Protocol.Bye;
  check_response_round_trip Protocol.Busy;
  check_response_round_trip Protocol.Timeout;
  check_response_round_trip Protocol.Toobig;
  List.iter
    (fun reason ->
      check_response_round_trip
        (Protocol.Degraded { reason; answer = Protocol.answer sample_solution }))
    [ Protocol.Deadline_exceeded; Protocol.Overload; Protocol.Worker_lost ];
  List.iter
    (fun kind ->
      check_response_round_trip
        (Protocol.Error_frame { kind; message = "something went wrong" }))
    [
      Protocol.Protocol_error; Protocol.Infeasible_budget;
      Protocol.Invalid_net; Protocol.Internal_error;
    ];
  check_response_round_trip
    (Protocol.Result
       { served = Fresh; answer = Protocol.answer sample_solution });
  check_response_round_trip
    (Protocol.Result
       { served = Cached; answer = Protocol.answer sample_solution });
  (* The bare-wire answer: zero repeaters is a legal solution. *)
  check_response_round_trip
    (Protocol.Result
       {
         served = Fresh;
         answer =
           Protocol.answer
             { Protocol.repeaters = []; total_width = 0.0; delay = 4.5e-10;
               power_watts = 0.0 };
       });
  check_response_round_trip
    (Protocol.Health_frame
       {
         Protocol.health_shard_id = "s0";
         health_in_flight = 3;
         health_queue_depth = 64;
         health_high_water = 48;
       });
  (* A METRICS frame carries its Prometheus body bytewise: comment
     lines, label syntax and full-precision floats must all survive. *)
  check_response_round_trip
    (Protocol.Metrics_frame
       "# HELP rip_requests_total SOLVE requests received\n\
        # TYPE rip_requests_total counter\n\
        rip_requests_total 9\n\
        rip_queue_wait_seconds_bucket{le=\"9.9999999999999995e-07\"} 0\n\
        rip_queue_wait_seconds_bucket{le=\"+Inf\"} 4\n\
        rip_queue_wait_seconds_sum 0.75\n\
        rip_queue_wait_seconds_count 4\n");
  check_response_round_trip (Protocol.Metrics_frame "")

let test_protocol_errors () =
  let request_of lines =
    Protocol.input_request (Protocol.reader_of_lines lines)
  in
  let response_of lines =
    Protocol.input_response (Protocol.reader_of_lines lines)
  in
  (match request_of [] with
  | Ok None -> ()
  | Ok (Some _) | Error _ -> Alcotest.fail "empty stream should be Ok None");
  (match request_of [ "FROBNICATE" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage verb should not parse");
  (match request_of [ "SOLVE not-a-float" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric budget should not parse");
  (* Truncated frames: the stream ends before END. *)
  (match request_of [ "SOLVE 1e-10"; "driver 20" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated SOLVE should not parse");
  (match response_of [ "RESULT fresh"; "width 10" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated RESULT should not parse");
  (match response_of [ "RESULT stale" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown served marker should not parse");
  (* Carriage returns from interactive socat/telnet sessions are fine. *)
  match request_of [ "PING\r" ] with
  | Ok (Some Protocol.Ping) -> ()
  | Ok _ | Error _ -> Alcotest.fail "trailing \\r should be stripped"

(* TRACE is best-effort context propagation: a malformed, truncated or
   duplicated header must degrade to an untraced request — never a
   protocol error, never a crash — while DEADLINE keeps its strict
   semantics in the same header line. *)
let solve_body_lines =
  lazy
    (let base =
       Protocol.print_request (Protocol.solve ~budget:2.5e-10 (sample_net ()))
     in
     List.tl (frame_lines base))

let parse_with_header header =
  Protocol.input_request
    (Protocol.reader_of_lines (header :: Lazy.force solve_body_lines))

let test_trace_header_parsing () =
  let ctx = Trace.make_context ~scope:"loadgen" ~digest:"abc" ~seq:3 () in
  let trace_tokens =
    Printf.sprintf "TRACE %s %s %d" ctx.Trace.trace_id
      ctx.Trace.parent_span_id ctx.Trace.flags
  in
  let expect_trace name header expected =
    match parse_with_header header with
    | Ok (Some (Protocol.Solve { trace; _ })) ->
        Alcotest.(check bool)
          name true
          (Option.equal Trace.context_equal trace expected)
    | Ok _ -> Alcotest.failf "%s: not a SOLVE" name
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  let expect_deadline name header expected =
    match parse_with_header header with
    | Ok (Some (Protocol.Solve { deadline_ms; _ })) ->
        Alcotest.(check (option (float 1e-9))) name expected deadline_ms
    | Ok _ -> Alcotest.failf "%s: not a SOLVE" name
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  expect_trace "valid TRACE parses" ("SOLVE 2.5e-10 " ^ trace_tokens)
    (Some ctx);
  expect_trace "TRACE then DEADLINE"
    ("SOLVE 2.5e-10 " ^ trace_tokens ^ " DEADLINE 50")
    (Some ctx);
  expect_trace "DEADLINE then TRACE"
    ("SOLVE 2.5e-10 DEADLINE 50 " ^ trace_tokens)
    (Some ctx);
  expect_deadline "deadline survives a leading TRACE"
    ("SOLVE 2.5e-10 " ^ trace_tokens ^ " DEADLINE 50")
    (Some 50.0);
  (* every malformed variant degrades to untraced, still Ok *)
  List.iter
    (fun (name, header) -> expect_trace name header None)
    [
      ("bad hex degrades", "SOLVE 2.5e-10 TRACE zz yy 0");
      ("short trace id degrades", "SOLVE 2.5e-10 TRACE abc 0000000000000000 0");
      ( "flags out of range degrade",
        Printf.sprintf "SOLVE 2.5e-10 TRACE %s %s 999" ctx.Trace.trace_id
          ctx.Trace.parent_span_id );
      ("truncated TRACE degrades", "SOLVE 2.5e-10 TRACE abcdef");
      ("bare TRACE degrades", "SOLVE 2.5e-10 TRACE");
      ( "duplicate TRACE degrades",
        Printf.sprintf "SOLVE 2.5e-10 %s %s" trace_tokens trace_tokens );
    ];
  expect_deadline "deadline survives a truncated TRACE"
    "SOLVE 2.5e-10 TRACE garbage DEADLINE 50" (Some 50.0);
  (* DEADLINE stays strict: its errors are still protocol errors *)
  (match parse_with_header "SOLVE 2.5e-10 DEADLINE -5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative deadline should not parse");
  match parse_with_header "SOLVE 2.5e-10 DEADLINE nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric deadline should not parse"

let fuzz_trace_header =
  QCheck.Test.make ~count:500
    ~name:"arbitrary SOLVE header tokens never crash the parser"
    QCheck.(
      make
        Gen.(
          list_size (int_range 0 8)
            (oneofl
               [
                 "TRACE";
                 "DEADLINE";
                 "50";
                 "-3";
                 "abc";
                 String.make 32 'a';
                 String.make 32 'g';
                 String.make 16 '0';
                 "zz";
                 "1e-3";
                 "999";
                 "";
               ])))
    (fun tokens ->
      let header = String.concat " " ("SOLVE" :: "2.5e-10" :: tokens) in
      match parse_with_header header with
      | Ok (Some (Protocol.Solve { budget; _ })) -> budget = 2.5e-10
      | Ok _ | Error _ -> true)

(* A parsed SOLVE keeps its net lines for forwarding: comments cut,
   blank lines dropped, CR stripped — so re-printing it gives the
   canonical frame.  A parsed answer keeps its body bytes. *)
let test_protocol_keeps_bytes () =
  let canonical =
    Protocol.print_request (Protocol.solve ~budget:2.5e-10 (sample_net ()))
  in
  let messy =
    match frame_lines canonical with
    | header :: body ->
        (header ^ "\r") :: "# routed by hand" :: "" :: "  \t"
        :: List.map (fun l -> if l = "END" then l else l ^ " # note\r") body
    | [] -> Alcotest.fail "empty frame"
  in
  (* The cut comments leave trailing blanks, which the net grammar
     ignores. *)
  let trimmed frame =
    String.concat "" (List.map (fun l -> String.trim l ^ "\n") (frame_lines frame))
  in
  (match Protocol.input_request (Protocol.reader_of_lines messy) with
  | Ok (Some request) ->
      Alcotest.(check string) "reprints as the canonical frame" canonical
        (trimmed (Protocol.print_request request))
  | Ok None -> Alcotest.fail "end of stream"
  | Error e -> Alcotest.fail e);
  let body = Protocol.solution_body sample_solution in
  (match Protocol.answer_of_body body with
  | Ok answer ->
      Alcotest.(check bool) "answer parsed, bytes kept" true
        (Protocol.response_equal
           (Protocol.Result { served = Fresh; answer })
           (Protocol.Result
              { served = Fresh; answer = Protocol.answer sample_solution }))
  | Error e -> Alcotest.fail e);
  match Protocol.answer_of_body (String.sub body 0 (String.length body - 1)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a body without its last newline was accepted"

let test_protocol_cached_body_identical () =
  let body served =
    Protocol.print_response
      (Protocol.Result { served; answer = Protocol.answer sample_solution })
  in
  let strip_header s =
    match String.index_opt s '\n' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
    | None -> s
  in
  Alcotest.(check string)
    "cached replay is byte-identical below the header"
    (strip_header (body Protocol.Fresh))
    (strip_header (body Protocol.Cached));
  Alcotest.(check string)
    "the body is solution_body plus END"
    (Protocol.solution_body sample_solution ^ "END\n")
    (strip_header (body Protocol.Fresh))

(* --- Solve_cache -------------------------------------------------------- *)

let test_cache_hit_after_insert () =
  let cache = Solve_cache.create ~capacity:4 in
  let key = Solve_cache.key ~process ~net:(sample_net ()) ~budget:1e-10 in
  Alcotest.(check (option int)) "cold" None (Solve_cache.find cache key);
  Solve_cache.add cache key 42;
  Alcotest.(check (option int)) "hit" (Some 42) (Solve_cache.find cache key);
  let stats = Solve_cache.stats cache in
  Alcotest.(check int) "hits" 1 stats.Solve_cache.hits;
  Alcotest.(check int) "misses" 1 stats.Solve_cache.misses;
  Alcotest.(check int) "evictions" 0 stats.Solve_cache.evictions;
  Alcotest.(check int) "size" 1 stats.Solve_cache.size

let test_cache_capacity_one_evicts () =
  let cache = Solve_cache.create ~capacity:1 in
  Solve_cache.add cache "a" 1;
  Solve_cache.add cache "b" 2;
  Alcotest.(check (option int)) "a evicted" None (Solve_cache.find cache "a");
  Alcotest.(check (option int)) "b kept" (Some 2) (Solve_cache.find cache "b");
  let stats = Solve_cache.stats cache in
  Alcotest.(check int) "one eviction" 1 stats.Solve_cache.evictions;
  Alcotest.(check int) "size stays 1" 1 stats.Solve_cache.size

let test_cache_lru_order () =
  let cache = Solve_cache.create ~capacity:2 in
  Solve_cache.add cache "a" 1;
  Solve_cache.add cache "b" 2;
  (* Touch a: b becomes the least recently used and must go first. *)
  ignore (Solve_cache.find cache "a");
  Solve_cache.add cache "c" 3;
  Alcotest.(check (option int)) "a kept" (Some 1) (Solve_cache.find cache "a");
  Alcotest.(check (option int)) "b evicted" None (Solve_cache.find cache "b");
  Alcotest.(check (option int)) "c kept" (Some 3) (Solve_cache.find cache "c")

let test_cache_overwrite_refreshes () =
  let cache = Solve_cache.create ~capacity:2 in
  Solve_cache.add cache "a" 1;
  Solve_cache.add cache "b" 2;
  Solve_cache.add cache "a" 10;
  Solve_cache.add cache "c" 3;
  Alcotest.(check (option int))
    "overwritten entry survives with the new value" (Some 10)
    (Solve_cache.find cache "a");
  Alcotest.(check (option int)) "b evicted" None (Solve_cache.find cache "b");
  Alcotest.(check int) "size" 2 (Solve_cache.size cache)

let test_cache_capacity_zero_disables () =
  let cache = Solve_cache.create ~capacity:0 in
  Solve_cache.add cache "a" 1;
  Alcotest.(check (option int)) "never stored" None (Solve_cache.find cache "a");
  Alcotest.(check int) "size 0" 0 (Solve_cache.size cache);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Solve_cache.create: negative capacity") (fun () ->
      ignore (Solve_cache.create ~capacity:(-1)))

let test_cache_key_canonicalization () =
  let net = sample_net () in
  let renamed =
    Net.create ~name:"proto_alias"
      ~segments:(Array.to_list net.Net.segments)
      ~zones:net.Net.zones ~driver_width:net.Net.driver_width
      ~receiver_width:net.Net.receiver_width ()
  in
  let key n = Solve_cache.key ~process ~net:n ~budget:6.25e-10 in
  Alcotest.(check string)
    "cosmetic rename shares the key" (key net) (key renamed);
  (* Distinct electrical content must get distinct keys even when the
     name collides. *)
  let other =
    Net.create ~name:"proto"
      ~segments:[ Segment.of_layer Rip_tech.Layer.metal4 ~length:4000.0 ]
      ~zones:[] ~driver_width:20.0 ~receiver_width:40.0 ()
  in
  Alcotest.(check bool) "different net, different key" false
    (String.equal (key net) (key other));
  Alcotest.(check bool) "different budget, different key" false
    (String.equal (key net)
       (Solve_cache.key ~process ~net ~budget:6.26e-10));
  let r = process.Rip_tech.Process.repeater in
  let perturbed =
    {
      process with
      Rip_tech.Process.repeater =
        Rip_tech.Repeater_model.create ~rs:(1.01 *. r.Rip_tech.Repeater_model.rs)
          ~co:r.Rip_tech.Repeater_model.co ~cp:r.Rip_tech.Repeater_model.cp;
    }
  in
  Alcotest.(check bool) "different process, different key" false
    (String.equal (key net)
       (Solve_cache.key ~process:perturbed ~net ~budget:6.25e-10))

(* --- End to end over a socketpair --------------------------------------- *)

let expect_result = function
  | Ok (Protocol.Result { served; answer }) -> (served, answer.Protocol.solution)
  | Ok other ->
      Alcotest.failf "expected RESULT, got %S"
        (Protocol.print_response other)
  | Error e -> Alcotest.failf "transport failure: %s" e

(* Run [f client fd] over one in-process connection to [server] ([fd]
   is the client's end, for raw bytes).  The connection is closed, its
   thread joined and the server shut down before [f]'s result or
   exception comes back, so a failing check cannot leave the connection
   thread blocked and the test binary hanging. *)
let with_connection server f =
  let server_fd, client_fd =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let worker = Thread.create (Server.handle_connection server) server_fd in
  let client = Client.of_fd client_fd in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      Thread.join worker;
      Server.shutdown server)
    (fun () -> f client client_fd)

let test_server_end_to_end () =
  with_connection
    (Server.create
       ~config:
         { Server.default_config with jobs = Some 1; cache_capacity = 8 }
       process)
  @@ fun client _ ->
  (match Client.request client Protocol.Ping with
  | Ok Protocol.Pong -> ()
  | Ok other ->
      Alcotest.failf "PING answered %S" (Protocol.print_response other)
  | Error e -> Alcotest.failf "PING failed: %s" e);
  let net = sample_net () in
  let budget = 1.3 *. Rip.tau_min process (Geometry.of_net net) in
  let solve = Protocol.solve ~budget net in
  let served1, solution1 = expect_result (Client.request client solve) in
  Alcotest.(check bool) "first solve is fresh" true (served1 = Protocol.Fresh);
  Alcotest.(check bool) "some repeaters inserted" true
    (List.length solution1.Protocol.repeaters > 0);
  let served2, solution2 = expect_result (Client.request client solve) in
  Alcotest.(check bool) "second solve is cached" true
    (served2 = Protocol.Cached);
  Alcotest.(check string) "cached replay is byte-identical"
    (Protocol.solution_body solution1)
    (Protocol.solution_body solution2);
  (* An infeasible budget comes back as a typed ERROR, uncached. *)
  (match
     Client.request client
       (Protocol.solve ~budget:1e-15 net)
   with
  | Ok (Protocol.Error_frame { kind = Protocol.Infeasible_budget; _ }) -> ()
  | Ok other ->
      Alcotest.failf "infeasible solve answered %S"
        (Protocol.print_response other)
  | Error e -> Alcotest.failf "infeasible solve failed: %s" e);
  (match Client.request client Protocol.Metrics with
  | Ok (Protocol.Metrics_frame body) ->
      let count = Helpers.count body in
      Alcotest.(check int) "requests" 3 (count "rip_requests_total");
      Alcotest.(check int) "solved" 2 (count "rip_solved_total");
      Alcotest.(check int) "errors" 1 (count "rip_errors_total");
      Alcotest.(check int) "cache hits" 1 (count "rip_cache_hits");
      Alcotest.(check int) "cache misses" 2 (count "rip_cache_misses");
      Alcotest.(check int) "cache size" 1 (count "rip_cache_size");
      Alcotest.(check bool) "solver cpu accounted" true
        (Helpers.metric body "rip_solve_cpu_seconds_sum" > 0.0);
      Alcotest.(check bool) "requests counter scraped" true
        (Helpers.contains body "rip_requests_total 3");
      Alcotest.(check bool) "histogram type line" true
        (Helpers.contains body "# TYPE rip_solve_cpu_seconds histogram");
      (* The infeasible solve never reaches a width solve, so the counter
         holds the fresh solve's REFINE evaluations. *)
      let evaluations =
        match Rip.solve (Rip.problem process net ~budget) with
        | Ok { Rip.trace = { Rip.refined = Some o; _ }; _ } ->
            o.Rip_refine.Refine.evaluations
        | Ok _ | Error _ -> Alcotest.fail "in-process solve ran REFINE"
      in
      Alcotest.(check bool) "REFINE's width evaluations counted" true
        (evaluations > 0
        && Helpers.contains body
             (Printf.sprintf "rip_refine_width_evaluations_total %d\n"
                evaluations));
      let histograms = Rip_obs.Metrics.parse_histograms body in
      let solve =
        List.assoc Rip_service.Metrics.solve_cpu_metric histograms
      in
      let queue =
        List.assoc Rip_service.Metrics.queue_wait_metric histograms
      in
      (* Both dispatched solves (the fresh one and the infeasible one)
         ran on the pool and account their times; the cache hit did
         not. *)
      Alcotest.(check int) "dispatched solves in the histogram" 2
        solve.Rip_obs.Metrics.Histogram.count;
      Alcotest.(check int) "queue waits recorded with them" 2
        queue.Rip_obs.Metrics.Histogram.count;
      Alcotest.(check bool) "solve cpu sum positive" true
        (solve.Rip_obs.Metrics.Histogram.sum > 0.0)
  | Ok other ->
      Alcotest.failf "METRICS answered %S" (Protocol.print_response other)
  | Error e -> Alcotest.failf "METRICS failed: %s" e);
  match Client.request client Protocol.Shutdown with
  | Ok Protocol.Bye -> ()
  | Ok other ->
      Alcotest.failf "SHUTDOWN answered %S" (Protocol.print_response other)
  | Error e -> Alcotest.failf "SHUTDOWN failed: %s" e

(* The DP work counters are fed by the solver's [Column] probe: after
   one fresh solve, the column count and the [kept] sum equal those of
   the same solve probed in-process. *)
let test_server_dp_counters_reconcile () =
  let server =
    Server.create ~config:{ Server.default_config with jobs = Some 1 } process
  in
  let server_fd, client_fd =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let worker = Thread.create (Server.handle_connection server) server_fd in
  let client = Client.of_fd client_fd in
  let net = sample_net () in
  let budget = 1.3 *. Rip.tau_min process (Geometry.of_net net) in
  let _ =
    expect_result
      (Client.request client
         (Protocol.solve ~budget net))
  in
  let columns = ref 0 and kept = ref 0 in
  let probe = function
    | Rip.Dp (Rip_dp.Power_dp.Column { kept = k; _ }) ->
        incr columns;
        kept := !kept + k
    | Rip.Refine _ -> ()
  in
  (match
     Rip.solve
       ~hooks:(Rip_core.Hooks.make ~probe ())
       (Rip.problem process net ~budget)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Rip.error_to_string e));
  let metrics = Client.request client Protocol.Metrics in
  let bye = Client.request client Protocol.Shutdown in
  Thread.join worker;
  Client.close client;
  Server.shutdown server;
  (match bye with
  | Ok Protocol.Bye -> ()
  | Ok other ->
      Alcotest.failf "SHUTDOWN answered %S" (Protocol.print_response other)
  | Error e -> Alcotest.failf "SHUTDOWN failed: %s" e);
  match metrics with
  | Ok (Protocol.Metrics_frame body) ->
      Alcotest.(check bool) "the solve kept labels" true (!kept > 0);
      Alcotest.(check int) "columns" !columns
        (Helpers.count body "rip_dp_columns_total");
      Alcotest.(check int) "labels kept" !kept
        (Helpers.count body "rip_dp_labels_kept_total")
  | Ok other ->
      Alcotest.failf "METRICS answered %S" (Protocol.print_response other)
  | Error e -> Alcotest.failf "METRICS failed: %s" e

(* A traced solve must leave the full span tree: admission and cache
   lookup on the connection thread, the queue wait, the solve, and the
   per-phase solver spans — with span ids derived from the request's
   cache key, so the same request traced twice yields the same ids. *)
let test_server_traced_spans () =
  let tracer = Rip_obs.Trace.create () in
  let server =
    Server.create
      ~config:
        {
          Server.default_config with
          jobs = Some 1;
          cache_capacity = 8;
          tracer = Some tracer;
        }
      process
  in
  let net = sample_net () in
  let budget = 1.3 *. Rip.tau_min process (Geometry.of_net net) in
  with_connection server (fun client _ ->
      ignore (expect_result (Client.request client (Protocol.solve ~budget net))));
  let spans = Rip_obs.Trace.spans tracer in
  let names = List.map (fun (s : Rip_obs.Trace.span) -> s.name) spans in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "span %S recorded" expected)
        true (List.mem expected names))
    [ "admission"; "cache_lookup"; "queue"; "solve"; "solve:coarse_dp" ];
  let key = Server.cache_key server ~net ~budget in
  let solve_span =
    List.find (fun (s : Rip_obs.Trace.span) -> s.name = "solve") spans
  in
  Alcotest.(check (option string))
    "span id derives from the cache key"
    (Some (Rip_obs.Trace.span_id ~digest:key "solve"))
    (List.assoc_opt "span_id" solve_span.args);
  (* The chrome dump is valid enough for a tooling smoke test. *)
  Alcotest.(check bool) "chrome json has the solve span" true
    (Helpers.contains
       (Rip_obs.Trace.to_chrome_json tracer)
       "\"name\":\"solve\"")

(* The cross-process parentage contract: a SOLVE carrying a TRACE
   context (as the router's forward path sends it) must stamp every
   server-side span with that trace id, parented under the upstream
   span — and a scoped tracer must key its span ids on the scope, so
   two shards solving the same digest cannot collide in a merged
   timeline. *)
let test_server_trace_parentage () =
  let tracer = Rip_obs.Trace.create ~scope:"s7" ~pid:1234 () in
  let server =
    Server.create
      ~config:
        {
          Server.default_config with
          jobs = Some 1;
          cache_capacity = 8;
          tracer = Some tracer;
        }
      process
  in
  let net = sample_net () in
  let budget = 1.3 *. Rip.tau_min process (Geometry.of_net net) in
  (* the upstream parent: what a router's forward span would mint *)
  let root = Trace.make_context ~scope:"router" ~digest:"up" ~seq:0 () in
  let ctx = Trace.child root ~span_id:"feedfacefeedface" in
  with_connection server (fun client _ ->
      ignore
        (expect_result
           (Client.request client (Protocol.solve ~trace:ctx ~budget net))));
  let spans = Rip_obs.Trace.spans tracer in
  let solve_span =
    List.find (fun (s : Rip_obs.Trace.span) -> s.name = "solve") spans
  in
  Alcotest.(check (option string))
    "solve span carries the trace id"
    (Some ctx.Trace.trace_id)
    (List.assoc_opt "trace_id" solve_span.args);
  Alcotest.(check (option string))
    "solve span parents under the upstream span" (Some "feedfacefeedface")
    (List.assoc_opt "parent_span_id" solve_span.args);
  let key = Server.cache_key server ~net ~budget in
  Alcotest.(check (option string))
    "span ids are scoped to the shard"
    (Some (Rip_obs.Trace.span_id ~scope:"s7" ~digest:key "solve"))
    (List.assoc_opt "span_id" solve_span.args);
  (* every span of the request carries the same trace id *)
  List.iter
    (fun (s : Rip_obs.Trace.span) ->
      if List.mem s.name [ "admission"; "cache_lookup"; "queue"; "solve" ]
      then
        Alcotest.(check (option string))
          (Printf.sprintf "span %S in the trace" s.name)
          (Some ctx.Trace.trace_id)
          (List.assoc_opt "trace_id" s.args))
    spans

(* A garbage TRACE header on the live wire must not kill the
   connection: the server answers the solve untraced. *)
let test_server_garbage_trace_header () =
  with_connection
    (Server.create
       ~config:{ Server.default_config with jobs = Some 1 }
       process)
  @@ fun _ client_fd ->
  let net = sample_net () in
  let budget = 1.3 *. Rip.tau_min process (Geometry.of_net net) in
  let base = Protocol.print_request (Protocol.solve ~budget net) in
  let nl = String.index base '\n' in
  let frame =
    String.sub base 0 nl ^ " TRACE zz yy 999"
    ^ String.sub base nl (String.length base - nl)
  in
  Wire.send client_fd frame;
  (* One whole frame, whatever its kind: a one-line answer must not
     leave the read waiting for an END that never comes. *)
  match Protocol.input_response (Wire.reader (Wire.create client_fd)) with
  | Ok (Some (Protocol.Result _)) -> ()
  | Ok (Some other) ->
      Alcotest.failf "garbage TRACE answered %S" (Protocol.print_response other)
  | Ok None -> Alcotest.fail "garbage TRACE: the server hung up"
  | Error e -> Alcotest.failf "garbage TRACE: %s" e

let test_server_rejects_garbage () =
  with_connection
    (Server.create
       ~config:{ Server.default_config with jobs = Some 1 }
       process)
  @@ fun _ client_fd ->
  let _ = Unix.write_substring client_fd "FROBNICATE\n" 0 11 in
  let buffer = Bytes.create 256 in
  let n = Unix.read client_fd buffer 0 256 in
  let answer = Bytes.sub_string buffer 0 n in
  Alcotest.(check bool) "typed protocol error" true
    (Helpers.contains answer "ERROR protocol");
  (* The server hangs up after a protocol error. *)
  Alcotest.(check int) "then end of stream" 0
    (Unix.read client_fd buffer 0 256)

(* --- Load generator answer verification --------------------------------- *)

(* A peer that answers the same SOLVE twice with two different
   solutions: the second RESULT contradicts the bytes the first pinned. *)
let test_loadgen_verify_mismatch () =
  let peer_fd, client_fd =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let answer reader solution =
    Wire.new_frame reader;
    match Protocol.input_request (Wire.reader reader) with
    | Ok (Some (Protocol.Solve _)) ->
        Wire.send peer_fd
          (Protocol.print_response
             (Protocol.Result
                { served = Protocol.Fresh; answer = Protocol.answer solution }))
    | Ok _ | Error _ -> ()
  in
  let peer =
    Thread.create
      (fun () ->
        let reader = Wire.create peer_fd in
        answer reader sample_solution;
        answer reader { sample_solution with Protocol.delay = 3.5e-10 };
        Unix.close peer_fd)
      ()
  in
  let solve =
    Protocol.solve ~budget:1e-9 (sample_net ())
  in
  let r =
    Loadgen.run
      ~connect:(fun () -> Client.of_fd client_fd)
      ~connections:1 ~verify:true [| solve; solve |]
  in
  Thread.join peer;
  Alcotest.(check int) "both answered" 2 r.Loadgen.solved_fresh;
  Alcotest.(check int) "one contradicting answer" 1 r.Loadgen.verify_mismatches

(* A real server replaying a repeated workload answers every repeat
   byte-identically, cached or fresh. *)
let test_loadgen_verify_server () =
  let server =
    Server.create
      ~config:{ Server.default_config with jobs = Some 1 }
      process
  in
  let server_fd, client_fd =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let worker = Thread.create (Server.handle_connection server) server_fd in
  let workload = Loadgen.workload ~distinct_nets:2 ~requests:6 process in
  let r =
    Loadgen.run
      ~connect:(fun () -> Client.of_fd client_fd)
      ~connections:1 ~verify:true workload
  in
  Thread.join worker;
  Server.shutdown server;
  Alcotest.(check int) "fresh solves" 2 r.Loadgen.solved_fresh;
  Alcotest.(check int) "cached repeats" 4 r.Loadgen.solved_cached;
  Alcotest.(check int) "no contradicting answer" 0 r.Loadgen.verify_mismatches

(* Server.create is the only check of a config ([rip_serviced] relies on
   it): every bad value is refused with Invalid_argument before a worker
   is spawned or a journal opened. *)
let test_server_rejects_bad_config () =
  let file = Filename.temp_file "rip_service_config" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let d = Server.default_config in
      List.iter
        (fun (what, config) ->
          match Server.create ~config process with
          | server ->
              Server.shutdown server;
              Alcotest.failf "%s: accepted" what
          | exception Invalid_argument _ -> ())
        [
          ("queue_depth 0", { d with queue_depth = 0; high_water = 1 });
          ("high_water 0", { d with high_water = 0 });
          ( "high_water over queue_depth",
            { d with queue_depth = 4; high_water = 5 } );
          ("empty shard_id", { d with shard_id = "" });
          ("shard_id with a space", { d with shard_id = "s 1" });
          ("max_frame_bytes 0", { d with max_frame_bytes = 0 });
          ("negative cache_capacity", { d with cache_capacity = -1 });
          ( "journal_dir through a file",
            { d with journal_dir = Some (Filename.concat file "sub") } );
        ])

let suite =
  [
    ( "service.protocol",
      [
        Alcotest.test_case "request round trips" `Quick
          test_protocol_request_round_trips;
        Alcotest.test_case "response round trips" `Quick
          test_protocol_response_round_trips;
        Alcotest.test_case "parse errors" `Quick test_protocol_errors;
        Alcotest.test_case "TRACE header: best-effort parsing" `Quick
          test_trace_header_parsing;
        QCheck_alcotest.to_alcotest fuzz_trace_header;
        Alcotest.test_case "cached body identical" `Quick
          test_protocol_cached_body_identical;
        Alcotest.test_case "frames keep their bytes" `Quick
          test_protocol_keeps_bytes;
      ] );
    ( "service.cache",
      [
        Alcotest.test_case "hit after insert" `Quick
          test_cache_hit_after_insert;
        Alcotest.test_case "capacity 1 evicts" `Quick
          test_cache_capacity_one_evicts;
        Alcotest.test_case "lru order" `Quick test_cache_lru_order;
        Alcotest.test_case "overwrite refreshes" `Quick
          test_cache_overwrite_refreshes;
        Alcotest.test_case "capacity 0 disables" `Quick
          test_cache_capacity_zero_disables;
        Alcotest.test_case "key canonicalization" `Quick
          test_cache_key_canonicalization;
      ] );
    ( "service.server",
      [
        Alcotest.test_case "end to end" `Quick test_server_end_to_end;
        Alcotest.test_case "DP counters reconcile with the probe" `Quick
          test_server_dp_counters_reconcile;
        Alcotest.test_case "traced solve leaves the span tree" `Quick
          test_server_traced_spans;
        Alcotest.test_case "TRACE context parents the server spans" `Quick
          test_server_trace_parentage;
        Alcotest.test_case "garbage TRACE header degrades to untraced"
          `Quick test_server_garbage_trace_header;
        Alcotest.test_case "rejects garbage" `Quick
          test_server_rejects_garbage;
        Alcotest.test_case "create rejects a bad config" `Quick
          test_server_rejects_bad_config;
      ] );
    ( "service.loadgen",
      [
        Alcotest.test_case "verify counts a contradicting RESULT" `Quick
          test_loadgen_verify_mismatch;
        Alcotest.test_case "verify passes a server's repeats" `Quick
          test_loadgen_verify_server;
      ] );
  ]
