(* The router subsystem: consistent-hash ring placement (balance,
   restart determinism, minimal remap on membership edits), config
   validation, and — against in-process shards — trace parentage, the
   shard's answer bytes relayed unchanged, failover off a dead owner or
   an answer cut short, wide-event and trace reconciliation under
   failover, per-shard cache affinity, two-choice spilling, a shard's
   own overload answer relayed through the router, counters that
   reconcile exactly through it, and the poller taking a wedged shard
   out of the ring and a recovered one back in.  Real daemons (spawned
   shards, one killed mid-run and restarted on its journal) are
   exercised by the CI cluster smoke job. *)

module Ring = Rip_router.Ring
module Router = Rip_router.Router
module Frontend = Rip_service.Frontend

let qcheck = QCheck_alcotest.to_alcotest

(* --- Ring: fixed-example behaviour -------------------------------------- *)

let members n = List.init n (fun i -> (Printf.sprintf "s%d" i, 1))

let test_ring_basics () =
  let ring = Ring.create (members 3) in
  Alcotest.(check int) "members" 3 (Ring.size ring);
  Alcotest.(check int) "vnodes"
    (3 * Ring.default_vnodes_per_weight)
    (Ring.vnode_count ring);
  (match Ring.lookup ring "some key" with
  | Some id -> Alcotest.(check bool) "member owns key"
      true
      (List.mem_assoc id (Ring.members ring))
  | None -> Alcotest.fail "non-empty ring must own every key");
  (* The share accounting covers the whole keyspace. *)
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (Ring.shares ring) in
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 total

let test_ring_single_shard () =
  let ring = Ring.create (members 1) in
  (match Ring.lookup_pair ring "k" with
  | Some ("s0", None) -> ()
  | Some (id, second) ->
      Alcotest.failf "expected (s0, None), got (%s, %s)" id
        (Option.value second ~default:"<none>")
  | None -> Alcotest.fail "single-shard ring owns everything");
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Ring.create: duplicate shard s0") (fun () ->
      ignore (Ring.create [ ("s0", 1); ("s0", 2) ]))

let test_ring_pair_distinct () =
  let ring = Ring.create (members 4) in
  List.iter
    (fun i ->
      let key = Printf.sprintf "net-%d" i in
      match Ring.lookup_pair ring key with
      | Some (primary, Some second) ->
          if String.equal primary second then
            Alcotest.failf "spill target equals primary for %s" key
      | Some (_, None) ->
          Alcotest.fail "4-shard ring must offer a second choice"
      | None -> Alcotest.fail "non-empty ring owns every key")
    (List.init 64 Fun.id)

(* --- Ring: properties ---------------------------------------------------- *)

let shard_count_gen = QCheck.Gen.int_range 2 8

(* Balance: at the default vnode count, equally-weighted shards own
   keyspace shares within a 3x max/min spread.  (MD5 positions are not
   uniform enough for a tighter bound at 128 vnodes; the router cares
   that no shard is starved or doubled up on, not about perfection.) *)
let prop_ring_balance =
  QCheck.Test.make ~name:"ring balance: max/min share within 3x" ~count:20
    (QCheck.make shard_count_gen) (fun n ->
      let ring = Ring.create (members n) in
      let shares = List.map snd (Ring.shares ring) in
      let mx = List.fold_left Float.max 0.0 shares in
      let mn = List.fold_left Float.min 1.0 shares in
      mn > 0.0 && mx /. mn <= 3.0)

(* Determinism: placement is a pure function of the membership, so a
   ring rebuilt from scratch (a process restart) routes every key
   identically. *)
let prop_ring_restart_deterministic =
  QCheck.Test.make ~name:"ring determinism across rebuilds" ~count:20
    QCheck.(pair (make shard_count_gen) small_int)
    (fun (n, salt) ->
      let a = Ring.create (members n) in
      let b = Ring.create (members n) in
      List.for_all
        (fun i ->
          let key = Printf.sprintf "key-%d-%d" salt i in
          match (Ring.lookup a key, Ring.lookup b key) with
          | Some x, Some y -> String.equal x y
          | _ -> false)
        (List.init 100 Fun.id))

(* Minimal remap: removing one of [n] equally-weighted shards moves
   only the removed shard's keys (survivors keep every key they had),
   and the moved fraction is ~1/n. *)
let prop_ring_minimal_remap =
  QCheck.Test.make ~name:"ring remap on removal is ~1/n and one-way"
    ~count:10
    (QCheck.make (QCheck.Gen.int_range 3 8))
    (fun n ->
      let before = Ring.create (members n) in
      let after = Ring.remove before "s0" in
      let keys = List.init 2000 (Printf.sprintf "net-%d") in
      let moved =
        List.fold_left
          (fun acc key ->
            match (Ring.lookup before key, Ring.lookup after key) with
            | Some b, Some a ->
                if String.equal b "s0" then
                  (* must move, anywhere *)
                  if String.equal a "s0" then QCheck.Test.fail_report
                      "removed shard still owns a key"
                  else acc + 1
                else if not (String.equal b a) then
                  QCheck.Test.fail_report
                    "a key moved between surviving shards"
                else acc
            | _ -> QCheck.Test.fail_report "lookup failed")
          0 keys
      in
      let expected = float_of_int (List.length keys) /. float_of_int n in
      (* The removed shard's true share is its arc share, not exactly
         1/n; allow a generous band around the ideal. *)
      let f = float_of_int moved in
      f > 0.2 *. expected && f < 3.0 *. expected)

(* add is remove's inverse: re-adding the shard restores the original
   placement exactly. *)
let prop_ring_add_restores =
  QCheck.Test.make ~name:"ring re-add restores placement" ~count:10
    (QCheck.make (QCheck.Gen.int_range 2 6))
    (fun n ->
      let original = Ring.create (members n) in
      let restored = Ring.add (Ring.remove original "s1") "s1" ~weight:1 in
      List.for_all
        (fun i ->
          let key = Printf.sprintf "k%d" i in
          match (Ring.lookup original key, Ring.lookup restored key) with
          | Some a, Some b -> String.equal a b
          | _ -> false)
        (List.init 500 Fun.id))

(* --- Router config ------------------------------------------------------- *)

(* Router.create rejects a nonsense pool or poller configuration
   before touching any socket, so the bad specs below never reach the
   connection pools. *)
let test_router_config_validation () =
  let shards =
    [ { Router.id = "s0"; socket = "/nonexistent/validation.sock"; weight = 1 } ]
  in
  let process = Rip_tech.Process.default_180nm in
  let bad config =
    match Router.create ~config ~shards process with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad { Router.default_config with pool_size = 0 };
  bad { Router.default_config with poll_interval = 0.0 };
  bad { Router.default_config with down_after = 0 }

(* --- End to end: router -> shard span parentage -------------------------- *)

(* One in-process shard server and router, each with a scoped tracer,
   a traced SOLVE through the router's front socket — then merge both
   Chrome dumps and assert the cross-process parent chain the TRACE
   header is supposed to build: client root -> router ingress -> router
   forward:<shard> -> shard spans. *)
let test_router_trace_parentage () =
  let process = Helpers.process in
  let module Server = Rip_service.Server in
  let module Client = Rip_service.Client in
  let module Protocol = Rip_service.Protocol in
  let module Trace = Rip_obs.Trace in
  let module Trace_merge = Rip_obs.Trace_merge in
  let dir = Filename.get_temp_dir_name () in
  let tag = Unix.getpid () in
  let shard_sock =
    Filename.concat dir (Printf.sprintf "rip-test-%d-shard.sock" tag)
  in
  let router_sock =
    Filename.concat dir (Printf.sprintf "rip-test-%d-router.sock" tag)
  in
  let shard_tracer = Trace.create ~scope:"s0" ~pid:1 () in
  let server =
    Server.create
      ~config:
        {
          Server.default_config with
          jobs = Some 1;
          shard_id = "s0";
          tracer = Some shard_tracer;
        }
      process
  in
  let server_listener = Frontend.listen_unix shard_sock in
  let server_thread =
    Thread.create (fun () -> Server.run server server_listener) ()
  in
  let router_tracer = Trace.create ~scope:"router" ~pid:2 () in
  let router =
    Router.create
      ~config:{ Router.default_config with tracer = Some router_tracer }
      ~shards:[ { Router.id = "s0"; socket = shard_sock; weight = 1 } ]
      process
  in
  let router_listener = Frontend.listen_unix router_sock in
  let router_thread =
    Thread.create (fun () -> Router.run router router_listener) ()
  in
  let net =
    Helpers.Net.uniform ~name:"traced" Rip_tech.Layer.metal4 ~length:5000.0
      ~segment_count:3 ~driver_width:30.0 ~receiver_width:60.0
  in
  let budget =
    1.3
    *. Rip_core.Rip.tau_min process (Rip_net.Geometry.of_net net)
  in
  let ctx =
    Trace.make_context ~scope:"test" ~digest:"client" ~seq:0 ()
  in
  let client = Client.connect_unix router_sock in
  (match
     Client.request client
       (Protocol.solve ~trace:ctx ~budget net)
   with
  | Ok (Protocol.Result _) -> ()
  | Ok other ->
      Alcotest.failf "traced solve answered %S"
        (Protocol.print_response other)
  | Error e -> Alcotest.failf "traced solve failed: %s" e);
  (match Client.request client Protocol.Shutdown with
  | Ok Protocol.Bye -> ()
  | Ok _ | Error _ -> Router.request_shutdown router);
  Client.close client;
  Thread.join router_thread;
  Server.request_shutdown server;
  (* nudge the accept loop awake so it notices the shutdown *)
  (try Client.close (Client.connect_unix shard_sock)
   with Unix.Unix_error _ -> ());
  Thread.join server_thread;
  Server.shutdown server;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ shard_sock; router_sock ];
  let parse t =
    match Trace_merge.parse (Trace.to_chrome_json t) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let dumps = [ parse router_tracer; parse shard_tracer ] in
  match Trace_merge.traces dumps with
  | [ (tid, spans) ] ->
      Alcotest.(check string)
        "one trace, the client's" ctx.Trace.trace_id tid;
      let find name =
        match
          List.find_opt
            (fun (s : Trace_merge.trace_span) -> s.span_name = name)
            spans
        with
        | Some s -> s
        | None -> Alcotest.failf "span %S missing from the merged trace" name
      in
      let span_arg name (s : Trace_merge.trace_span) =
        Option.value ~default:"" (List.assoc_opt name s.span_args)
      in
      let ingress = find "ingress" in
      let forward = find "forward:s0" in
      let solve = find "solve" in
      Alcotest.(check string)
        "ingress recorded by the router" "router" ingress.span_process;
      Alcotest.(check string)
        "solve recorded by the shard" "s0" solve.span_process;
      Alcotest.(check string)
        "ingress parents under the client's context"
        ctx.Trace.parent_span_id
        (span_arg "parent_span_id" ingress);
      Alcotest.(check string)
        "forward parents under ingress"
        (span_arg "span_id" ingress)
        (span_arg "parent_span_id" forward);
      Alcotest.(check string)
        "shard solve parents under the router's forward span"
        (span_arg "span_id" forward)
        (span_arg "parent_span_id" solve);
      Alcotest.(check (pair int bool))
        "linked across processes, one forward target" (1, true)
        (Trace_merge.analyse spans)
  | traces ->
      Alcotest.failf "expected exactly 1 merged trace, got %d"
        (List.length traces)

(* --- End to end: failover ------------------------------------------------

   Two in-process shards, "a" and "b", behind an in-process router.  A
   shard's fault plan makes it slow, and a dead socket makes it the
   failed primary for the nets under test; the ring decides which
   shard is a net's primary, so the tests pick nets by their primary. *)

module Server = Rip_service.Server
module Client = Rip_service.Client
module Protocol = Rip_service.Protocol
module Obs = Rip_obs.Metrics
module Cpu_clock = Rip_numerics.Cpu_clock

let tail_ids = [ "a"; "b" ]

let tail_net i =
  Rip_net.Net.uniform ~name:(Printf.sprintf "tail%d" i) Rip_tech.Layer.metal4
    ~length:(4000.0 +. (250.0 *. float_of_int i))
    ~segment_count:3 ~driver_width:30.0 ~receiver_width:60.0

let primary_of net =
  match
    Ring.lookup
      (Ring.create (List.map (fun id -> (id, 1)) tail_ids))
      (Rip_net.Net.canonical_digest net)
  with
  | Some id -> id
  | None -> Alcotest.fail "a two-shard ring owns every key"

(* The first [n] test nets whose primary is [id]. *)
let nets_with_primary id n =
  List.filteri (fun i _ -> i < n)
    (List.filter
       (fun net -> String.equal (primary_of net) id)
       (List.init 64 tail_net))

let tail_budget net =
  1.3 *. Rip_core.Rip.tau_min Helpers.process (Rip_net.Geometry.of_net net)

(* The RESULT body a direct, in-process solve renders. *)
let direct_body net ~budget =
  match
    Rip_core.Rip.solve
      { Rip_core.Rip.process = Helpers.process; net; geometry = None; budget }
  with
  | Ok report ->
      Protocol.solution_body
        {
          Protocol.repeaters =
            List.map
              (fun (r : Rip_elmore.Solution.repeater) -> (r.position, r.width))
              (Rip_elmore.Solution.repeaters report.solution);
          total_width = report.total_width;
          delay = report.delay;
          power_watts = report.power_watts;
        }
  | Error e -> Alcotest.fail (Rip_core.Rip.error_to_string e)

let fault_plan spec =
  match Rip_service.Faults.parse_spec spec with
  | Ok f -> f
  | Error e -> Alcotest.fail e

let cluster_seq = Atomic.make 0

(* An in-process shard [id] serving on the socket at [path]: its server
   and the thread running it. *)
let start_shard ?(config = Server.default_config) ?faults ?tracer id path =
  let server =
    Server.create
      ~config:{ config with jobs = Some 1; shard_id = id; faults; tracer }
      Helpers.process
  in
  let listener = Frontend.listen_unix path in
  (server, Thread.create (Server.run server) listener)

let stop_shard path (server, thread) =
  Server.request_shutdown server;
  (try Client.close (Client.connect_unix path) with Unix.Unix_error _ -> ());
  Thread.join thread;
  Server.shutdown server

(* Run [f ~connect ~sock router client servers] against shards "a" and
   "b" ([servers] maps each live shard's id to its server, built from
   [shard_config]; a shard listed in [dead] gets no server: its socket
   path refuses every dial; [connect] opens a further connection to the
   router; [sock id] is the socket path of shard [id], or of the router
   for ["router"]).  The poller's failure detector is pushed out of the
   way, so routing sees only the request path's own failover. *)
let with_tail_router ?(shard_config = Server.default_config)
    ?(faults = fun _ -> None) ?(tracers = fun _ -> None) ?(dead = []) ~config
    f =
  let dir = Filename.get_temp_dir_name () in
  let tag =
    Printf.sprintf "rip-tail-%d-%d" (Unix.getpid ())
      (Atomic.fetch_and_add cluster_seq 1)
  in
  let sock id = Filename.concat dir (Printf.sprintf "%s-%s.sock" tag id) in
  let servers =
    List.filter_map
      (fun id ->
        if List.mem id dead then None
        else
          let server, thread =
            start_shard ~config:shard_config ?faults:(faults id)
              ?tracer:(tracers id) id (sock id)
          in
          Some (id, server, thread))
      tail_ids
  in
  let router =
    Router.create
      ~config:{ config with Router.down_after = 1000 }
      ~shards:
        (List.map
           (fun id -> { Router.id; socket = sock id; weight = 1 })
           tail_ids)
      Helpers.process
  in
  let router_thread =
    Thread.create (Router.run router) (Frontend.listen_unix (sock "router"))
  in
  let connect () = Client.connect_unix (sock "router") in
  let client = connect () in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      Router.request_shutdown router;
      Thread.join router_thread;
      List.iter
        (fun (id, server, thread) -> stop_shard (sock id) (server, thread))
        servers;
      List.iter
        (fun id -> try Sys.remove (sock id) with Sys_error _ -> ())
        ("router" :: tail_ids))
    (fun () ->
      f ~connect ~sock router client
        (List.map (fun (id, server, _) -> (id, server)) servers))

let with_tail_cluster ?faults ?tracers ?dead ~config f =
  with_tail_router ?faults ?tracers ?dead ~config (fun ~connect:_ ~sock:_ ->
      f)

(* One SOLVE through the router, which must answer a RESULT. *)
let request_solution client net =
  match
    Client.request client
      (Protocol.solve ~budget:(tail_budget net) net)
  with
  | Ok (Protocol.Result { answer; _ }) -> answer.Protocol.solution
  | Ok other ->
      Alcotest.failf "SOLVE answered %S" (Protocol.print_response other)
  | Error e -> Alcotest.failf "SOLVE failed: %s" e

let check_direct net solution =
  Alcotest.(check string)
    "answer matches a direct Rip.solve"
    (direct_body net ~budget:(tail_budget net))
    (Protocol.solution_body solution)

(* One SOLVE through the router: the answer must be a RESULT whose body
   is byte-identical to a direct solve. *)
let solve_through client net = check_direct net (request_solution client net)

let shard_inst router id =
  Rip_router.Router_metrics.shard (Router.metrics router) id

(* Write [frame] raw to [fd]; the answer's raw bytes through its END
   line. *)
let raw_answer fd frame =
  Rip_service.Wire.send fd frame;
  let buffer = Bytes.create 4096 in
  let rec read acc =
    if String.ends_with ~suffix:"END\n" acc then acc
    else
      match Unix.read fd buffer 0 (Bytes.length buffer) with
      | 0 -> acc
      | n -> read (acc ^ Bytes.sub_string buffer 0 n)
  in
  read ""

(* One raw exchange on a fresh connection to the socket at [path]; a
   stalled peer fails the test after 30 s instead of hanging it. *)
let raw_at path frame =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      Unix.connect fd (Unix.ADDR_UNIX path);
      raw_answer fd frame)

(* What a shard with a cold cache answers [frame], as raw bytes. *)
let fresh_shard_answer frame =
  let server =
    Server.create
      ~config:{ Server.default_config with jobs = Some 1 }
      Helpers.process
  in
  let server_fd, fd =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let worker = Thread.create (Server.handle_connection server) server_fd in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Thread.join worker;
      Server.shutdown server)
    (fun () -> raw_answer fd frame)

(* The same frame with a comment line, blank lines, trailing comments
   and CRLF line ends: the same request to every parser. *)
let messy_frame frame =
  match String.split_on_char '\n' frame with
  | header :: rest ->
      let body = List.filter (fun l -> l <> "" && l <> "END") rest in
      String.concat "\r\n"
        ((header :: "# a comment line" :: "" :: List.map (fun l -> l ^ "  # note") body)
        @ [ "\t "; "END"; "" ])
  | [] -> Alcotest.fail "an empty frame"

let check_prefix what prefix s =
  if not (String.starts_with ~prefix s) then
    Alcotest.failf "%s: expected %S..., got %S" what prefix s

(* The router relays the shard's answer bytes: a fresh answer equals
   what a cold shard answers, a cached one what the owning shard
   answers directly, and a DEGRADED one (a delayed solve past its
   deadline) too.  A frame spelled with comments, blank lines and CRLF
   hits the same cache line and gets the same bytes. *)
let test_tail_relays_shard_bytes () =
  let net, degraded_net =
    match nets_with_primary "a" 2 with
    | [ net; other ] -> (net, other)
    | _ -> Alcotest.fail "two nets owned by shard a"
  in
  let frame = Protocol.print_request (Protocol.solve ~budget:(tail_budget net) net) in
  let late =
    Protocol.print_request
      (Protocol.solve ~deadline_ms:50.0 ~budget:(tail_budget degraded_net)
         degraded_net)
  in
  with_tail_router
    ~faults:(fun _ -> Some (fault_plan "seed=5,delay:p=1:ms=300"))
    ~config:Router.default_config
    (fun ~connect:_ ~sock router _ _ ->
      let fresh = raw_at (sock "router") frame in
      check_prefix "first answer" "RESULT fresh\n" fresh;
      Alcotest.(check string) "fresh: the router's bytes are a shard's"
        (fresh_shard_answer frame) fresh;
      let cached = raw_at (sock "router") frame in
      check_prefix "second answer" "RESULT cached\n" cached;
      Alcotest.(check string) "cached: the router's bytes are the owner's"
        (raw_at (sock "a") frame) cached;
      Alcotest.(check string) "a messy spelling is the same request" cached
        (raw_at (sock "router") (messy_frame frame));
      let degraded = raw_at (sock "router") late in
      check_prefix "late answer" "DEGRADED deadline\n" degraded;
      Alcotest.(check string) "degraded: the router's bytes are the owner's"
        (raw_at (sock "a") late) degraded;
      Alcotest.(check int) "no failover" 0
        (Obs.Counter.value (shard_inst router "a").failovers))

(* An owner that cuts its answer short is a lost transport: the router
   fails over to the other shard and still answers in full. *)
let test_tail_cut_answer_fails_over () =
  let net = List.hd (nets_with_primary "a" 1) in
  with_tail_cluster
    ~faults:(fun id ->
      if String.equal id "a" then Some (fault_plan "seed=6,drop:p=1:bytes=20")
      else None)
    ~config:Router.default_config
    (fun router client _ ->
      solve_through client net;
      Alcotest.(check int) "the cut answer counted as a failover" 1
        (Obs.Counter.value (shard_inst router "a").failovers);
      Alcotest.(check int) "the router answered nothing itself" 0
        (Obs.Counter.value (Router.metrics router).local_degraded))

let test_tail_dead_primary_fails_over () =
  let net = tail_net 0 in
  let dead = primary_of net in
  with_tail_cluster ~dead:[ dead ] ~config:Router.default_config
    (fun router client _ ->
      solve_through client net;
      Alcotest.(check int) "dead primary counted as a failover" 1
        (Obs.Counter.value (shard_inst router dead).failovers))

(* A dead owner, observed by a router tracer and a keep-all spool.  The
   spool holds exactly one event per request, and marks as a failover
   exactly the requests the router counted as the owner's failovers;
   the merged traces link a shard's spans under a router forward span,
   in a trace that forwarded to both shards. *)
let test_tail_spool_reconciles () =
  let module Trace = Rip_obs.Trace in
  let module Trace_merge = Rip_obs.Trace_merge in
  let module Wide_event = Rip_obs.Wide_event in
  let owner = "a" in
  (* The poller never marks the dead owner down here (see
     [with_tail_router]), so every net still tries it first. *)
  let nets = nets_with_primary owner 3 in
  Alcotest.(check int) "three nets owned by shard a" 3 (List.length nets);
  let router_tracer = Trace.create ~scope:"router" ~pid:1 () in
  let shard_tracers =
    List.mapi
      (fun i id -> (id, Trace.create ~scope:id ~pid:(i + 2) ()))
      tail_ids
  in
  let spool_path = Filename.temp_file "rip-test-spool" ".jsonl" in
  let spool = Wide_event.create ~sampler:Wide_event.keep_all spool_path in
  let failovers_total =
    with_tail_cluster ~dead:[ owner ]
      ~tracers:(fun id -> List.assoc_opt id shard_tracers)
      ~config:
        {
          Router.default_config with
          tracer = Some router_tracer;
          spool = Some spool;
        }
      (fun router client _ ->
        List.iter (solve_through client) nets;
        Obs.Counter.value (shard_inst router owner).failovers)
  in
  Wide_event.close spool;
  let events = Wide_event.load_file spool_path in
  Sys.remove spool_path;
  Alcotest.(check int) "every request failed over" (List.length nets)
    failovers_total;
  Alcotest.(check int) "spool failover events = the owner's failovers_total"
    failovers_total
    (List.length (List.filter (fun (e : Wide_event.t) -> e.failover) events));
  Alcotest.(check int) "spool events = requests sent" (List.length nets)
    (List.length events);
  let dump tracer =
    match Trace_merge.parse (Trace.to_chrome_json tracer) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let dumps =
    List.map dump
      (router_tracer
      :: List.filter_map
           (fun (id, tracer) -> if id = owner then None else Some tracer)
           shard_tracers)
  in
  Alcotest.(check bool) "a linked trace forwards to both shards" true
    (List.exists
       (fun (_, spans) ->
         let targets, linked = Trace_merge.analyse spans in
         linked && targets >= 2)
       (Trace_merge.traces dumps))

(* Cache affinity: the ring sends every repeat of a net to the shard that solved it first, so each shard misses once per net
   it owns and hits on every repeat the router sent it. *)
let test_cache_affinity () =
  let nets = List.init 8 tail_net in
  let owned id =
    List.length (List.filter (fun net -> String.equal (primary_of net) id) nets)
  in
  List.iter
    (fun id ->
      if owned id = 0 then Alcotest.failf "shard %s owns none of the nets" id)
    tail_ids;
  with_tail_cluster ~config:Router.default_config
    (fun router client servers ->
      let pass () =
        List.iter (solve_through client) nets
      in
      let forwarded id =
        Obs.Counter.value (shard_inst router id).forwarded
      in
      pass ();
      let first = List.map (fun id -> (id, forwarded id)) tail_ids in
      pass ();
      List.iter
        (fun (id, server) ->
          let metrics = Server.metrics_body server in
          Alcotest.(check int)
            (id ^ ": misses = distinct nets it owns")
            (owned id)
            (Helpers.count metrics "rip_cache_misses");
          Alcotest.(check int)
            (id ^ ": hits = repeats the router sent it")
            (forwarded id - List.assoc id first)
            (Helpers.count metrics "rip_cache_hits"))
        servers)

(* --- Load-aware routing ---------------------------------------------------- *)

let outstanding router id = Obs.Gauge.value (shard_inst router id).outstanding

(* Every forward the router sent has been answered or has failed.  A
   leaked count would move the shard's keys to their second choice for
   good. *)
let check_settled what router =
  List.iter
    (fun id ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: shard %s has no forward outstanding" what id)
        0.0 (outstanding router id))
    tail_ids

(* Each way a sent forward can end settles its shard's count: a plain
   answer, and a failover off a dead primary. *)
let test_tail_forwards_settle () =
  let net = tail_net 0 in
  let owner = primary_of net in
  with_tail_cluster ~config:Router.default_config (fun router client _ ->
      solve_through client net;
      check_settled "plain forward" router);
  with_tail_cluster ~dead:[ owner ] ~config:Router.default_config
    (fun router client _ ->
      solve_through client net;
      Alcotest.(check int) "the dead primary failed over" 1
        (Obs.Counter.value (shard_inst router owner).failovers);
      check_settled "failover" router)

let wait_until what ready =
  let give_up = Cpu_clock.monotonic_seconds () +. 10.0 in
  let rec loop () =
    if not (ready ()) then
      if Cpu_clock.monotonic_seconds () > give_up then
        Alcotest.failf "timed out waiting until %s" what
      else begin
        Thread.delay 0.001;
        loop ()
      end
  in
  loop ()

(* The less busy of two choices: while the owner "a" sits on one slow
   solve, a second net it owns goes to the idle "b" — counted as b's
   spill, solved fresh there and answered exactly as a direct solve.
   Once both shards are idle the tie keeps the owner. *)
let test_busy_owner_spills () =
  let held, net =
    match nets_with_primary "a" 2 with
    | [ held; net ] -> (held, net)
    | _ -> Alcotest.fail "two nets owned by shard a"
  in
  with_tail_router
    ~faults:(fun id ->
      if String.equal id "a" then Some (fault_plan "seed=3,delay:p=1:ms=300")
      else None)
    ~config:Router.default_config
    (fun ~connect ~sock:_ router client servers ->
      let spills id = Obs.Counter.value (shard_inst router id).spills in
      let forwarded id = Obs.Counter.value (shard_inst router id).forwarded in
      let misses id =
        Helpers.count
          (Server.metrics_body (List.assoc id servers))
          "rip_cache_misses"
      in
      let held_result = ref None in
      let holder =
        Thread.create
          (fun () ->
            held_result :=
              Some
                (try Ok (solve_through client held)
                 with e -> Error (Printexc.to_string e)))
          ()
      in
      wait_until "a has one forward outstanding" (fun () ->
          outstanding router "a" = 1.0);
      let b_misses = misses "b" in
      let second = connect () in
      let solution =
        Fun.protect
          ~finally:(fun () -> Client.close second)
          (fun () -> request_solution second net)
      in
      Alcotest.(check int) "b took the request as a spill" 1 (spills "b");
      Alcotest.(check int) "b solved it fresh" (b_misses + 1) (misses "b");
      Alcotest.(check int) "a spilled nothing" 0 (spills "a");
      check_direct net solution;
      let budget = tail_budget net in
      let delay =
        Helpers.ladder_delay net
          (Rip_net.Geometry.of_net net)
          solution.Protocol.repeaters
      in
      if delay > budget *. (1.0 +. 1e-4) then
        Alcotest.failf "RC-ladder delay %.4g s exceeds the budget %.4g s" delay
          budget;
      Thread.join holder;
      (match !held_result with
      | Some (Ok _) -> ()
      | Some (Error e) -> Alcotest.failf "the held request failed: %s" e
      | None -> Alcotest.fail "the held request never finished");
      check_settled "both idle" router;
      let a_forwarded = forwarded "a" and b_forwarded = forwarded "b" in
      solve_through client net;
      Alcotest.(check int) "the idle owner served the repeat"
        (a_forwarded + 1) (forwarded "a");
      Alcotest.(check int) "b served nothing more" b_forwarded (forwarded "b");
      Alcotest.(check int) "a tie is not a spill" 1 (spills "b"))

(* Run [solve_through] on [net] over a fresh router connection in a
   thread; the returned function joins it and fails unless the answer
   was the direct solve's RESULT. *)
let hold ~connect net =
  let outcome = ref (Error "never finished") in
  let thread =
    Thread.create
      (fun () ->
        let client = connect () in
        outcome :=
          (try Ok (solve_through client net)
           with e -> Error (Printexc.to_string e));
        Client.close client)
      ()
  in
  fun () ->
    Thread.join thread;
    match !outcome with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "the held request failed: %s" e

(* Overload admission is the shards' own: with both shards holding a
   solve at their high-water mark of 1, a third request is answered
   DEGRADED (overload) by the shard it reaches, and the router relays
   that answer as it came instead of answering for the shard. *)
let test_overload_through_router () =
  let held_a, held_b, net =
    match (nets_with_primary "a" 2, nets_with_primary "b" 1) with
    | [ held_a; net ], [ held_b ] -> (held_a, held_b, net)
    | _ -> Alcotest.fail "two nets owned by a and one owned by b"
  in
  with_tail_router
    ~shard_config:{ Server.default_config with queue_depth = 2; high_water = 1 }
    ~faults:(fun _ -> Some (fault_plan "seed=4,delay:p=1:ms=300"))
    ~config:Router.default_config
    (fun ~connect ~sock:_ router client _ ->
      let join_a = hold ~connect held_a in
      wait_until "a has one forward outstanding" (fun () ->
          outstanding router "a" = 1.0);
      let join_b = hold ~connect held_b in
      wait_until "b has one forward outstanding" (fun () ->
          outstanding router "b" = 1.0);
      let budget = tail_budget net in
      (match
         Client.request client
           (Protocol.solve ~budget net)
       with
      | Ok (Protocol.Degraded
             { reason = Protocol.Overload; answer = { solution; _ } }) ->
          let violations =
            Rip_core.Validate.check Helpers.process net ~budget
              (Rip_elmore.Solution.create solution.Protocol.repeaters)
          in
          List.iter
            (fun v ->
              Alcotest.failf "the overload answer is illegal: %a"
                Rip_core.Validate.pp_violation v)
            violations;
          let delay =
            Helpers.ladder_delay net
              (Rip_net.Geometry.of_net net)
              solution.Protocol.repeaters
          in
          if delay > budget *. (1.0 +. 1e-4) then
            Alcotest.failf "RC-ladder delay %.4g s exceeds the budget %.4g s"
              delay budget
      | Ok other ->
          Alcotest.failf "the third request answered %S"
            (Protocol.print_response other)
      | Error e -> Alcotest.failf "the third request failed: %s" e);
      join_a ();
      join_b ();
      Alcotest.(check int) "the router answered nothing itself" 0
        (Obs.Counter.value (Router.metrics router).local_degraded);
      Alcotest.(check int) "one degraded answer in the cluster" 1
        (Helpers.count (Router.metrics_body router) "rip_degraded_total"))

(* The router's METRICS ends in the cluster block.  After fresh and
   cached solves, every series there is the sum of the two shards' own
   (uptime excepted).  A DEGRADED answer the router gives itself — both
   shards dead, so every forward loses its transport — counts in
   requests and degraded.  Either way the sums keep
   requests = solved + errors + busy + timeouts + degraded. *)
let test_cluster_block () =
  (* A series the block lacks reads 0: with no shard to scrape, only
     the router's own answers are summed. *)
  let series body name =
    Option.value ~default:0.0 (Obs.scalar body name)
  in
  let check_identity what body =
    let n = series body in
    Alcotest.(check (float 0.0))
      (what ^ ": requests = solved + errors + busy + timeouts + degraded")
      (n "rip_requests_total")
      (n "rip_solved_total" +. n "rip_errors_total"
      +. n "rip_rejected_busy_total" +. n "rip_timeouts_total"
      +. n "rip_degraded_total")
  in
  let nets = List.init 4 tail_net in
  with_tail_cluster ~config:Router.default_config
    (fun router client servers ->
      let pass () =
        List.iter (solve_through client) nets
      in
      pass ();
      pass ();
      let cluster = Router.metrics_body router in
      let own =
        List.map (fun (_, server) -> Server.metrics_body server) servers
      in
      let names =
        List.filter
          (fun name -> not (String.equal name "rip_uptime_seconds"))
          (List.map fst (Obs.parse_scalars (List.hd own)))
      in
      List.iter
        (fun name ->
          Alcotest.(check (float 0.0))
            (name ^ " sums the shards")
            (List.fold_left (fun acc body -> acc +. series body name) 0.0 own)
            (Helpers.metric cluster name))
        names;
      Alcotest.(check int) "every fresh solve missed once" (List.length nets)
        (Helpers.count cluster "rip_cache_misses");
      Alcotest.(check int) "every repeat hit" (List.length nets)
        (Helpers.count cluster "rip_cache_hits");
      Alcotest.(check bool) "no uptime sum" true
        (Option.is_none (Obs.scalar cluster "rip_uptime_seconds"));
      check_identity "live shards" cluster);
  let net = tail_net 0 in
  let budget = tail_budget net in
  with_tail_cluster ~dead:tail_ids ~config:Router.default_config
    (fun router client _ ->
      (match
         Client.request client
           (Protocol.solve ~budget net)
       with
      | Ok (Protocol.Degraded { reason = Protocol.Worker_lost; _ }) -> ()
      | Ok other ->
          Alcotest.failf "with both shards dead the router answered %S"
            (Protocol.print_response other)
      | Error e -> Alcotest.failf "SOLVE failed: %s" e);
      let cluster = Router.metrics_body router in
      Alcotest.(check int) "the local answer is a request" 1
        (Helpers.count cluster "rip_requests_total");
      Alcotest.(check int) "the local answer is degraded" 1
        (Helpers.count cluster "rip_degraded_total");
      Alcotest.(check int) "no TOOBIG" 0
        (Helpers.count cluster "rip_toobig_total");
      check_identity "dead shards" cluster)

(* One forward per request: the deltas of the router's cluster block
   equal the client's own counts exactly — requests = sent, solved =
   answers, hits = repeats, degraded = DEGRADED answers and misses =
   requests - hits.  Once over a cold pass of distinct nets plus
   repeats through live shards, once over requests the router answers
   DEGRADED itself because every shard is dead. *)
let test_routed_reconciliation () =
  let series body name =
    int_of_float (Option.value ~default:0.0 (Obs.scalar body name))
  in
  let reconcile what ~dead requests =
    with_tail_cluster ~dead ~config:Router.default_config
      (fun router client _ ->
        let before = Router.metrics_body router in
        let answers = ref 0 and cached = ref 0 and degraded = ref 0 in
        List.iter
          (fun net ->
            match
              Client.request client
                (Protocol.solve ~budget:(tail_budget net) net)
            with
            | Ok (Protocol.Result { served; _ }) ->
                incr answers;
                if served = Protocol.Cached then incr cached
            | Ok (Protocol.Degraded _) -> incr degraded
            | Ok other ->
                Alcotest.failf "%s: SOLVE answered %S" what
                  (Protocol.print_response other)
            | Error e -> Alcotest.failf "%s: SOLVE failed: %s" what e)
          requests;
        let after = Router.metrics_body router in
        let delta name = series after name - series before name in
        let check name expected =
          Alcotest.(check int) (what ^ ": " ^ name ^ " delta") expected
            (delta name)
        in
        check "rip_requests_total" (List.length requests);
        check "rip_solved_total" !answers;
        check "rip_cache_hits" !cached;
        check "rip_degraded_total" !degraded;
        check "rip_cache_misses"
          (delta "rip_requests_total" - delta "rip_cache_hits");
        (!cached, !degraded))
  in
  let nets = List.init 6 tail_net in
  let repeats = List.filteri (fun i _ -> i mod 2 = 0) nets in
  let hits, degraded = reconcile "live shards" ~dead:[] (nets @ repeats) in
  Alcotest.(check int) "every repeat hit" (List.length repeats) hits;
  Alcotest.(check int) "no degraded answer" 0 degraded;
  let lost = List.init 3 tail_net in
  let hits, degraded = reconcile "dead shards" ~dead:tail_ids lost in
  Alcotest.(check int) "no hit" 0 hits;
  Alcotest.(check int) "every answer degraded" (List.length lost) degraded

(* --- Liveness: the poller is the one failure detector --------------------

   Shard "a" starts wedged: its socket is bound and listening but never
   accepts, so no request is ever answered.  Its backlog is 0, so the
   first dial is queued and every later one finds the queue full, as
   every dial to a wedged shard eventually does.  Shard "b" is live.
   The router polls every 0.1 s and gives a poll up after four ticks,
   so "a" should leave the ring after [down_after] rounds of 0.5 s,
   long before the 30 s [request_timeout] a forward waits. *)

let live_poll_interval = 0.1
let live_down_after = 2

let router_sample router name =
  Option.value ~default:Float.nan
    (Obs.scalar (Rip_router.Router_metrics.render (Router.metrics router)) name)

let wait_until ~timeout cond =
  let deadline = Cpu_clock.monotonic_seconds () +. timeout in
  let rec loop () =
    cond ()
    || Cpu_clock.monotonic_seconds () < deadline
       && (Thread.delay 0.02;
           loop ())
  in
  loop ()

let shard_a_up router = router_sample router "rip_router_shard_a_up"
let rebalances router = router_sample router "rip_router_rebalances_total"

(* Run [f ~marked_down_after ~recover router client] once the router has
   taken the wedged shard "a" out of the ring, [marked_down_after]
   seconds after it started; [recover ()] closes the wedged socket and
   starts a real shard "a" on its path. *)
let with_wedged_shard f =
  let dir = Filename.get_temp_dir_name () in
  let tag =
    Printf.sprintf "rip-live-%d-%d" (Unix.getpid ())
      (Atomic.fetch_and_add cluster_seq 1)
  in
  let sock id = Filename.concat dir (Printf.sprintf "%s-%s.sock" tag id) in
  let wedged =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX (sock "a"));
    Unix.listen fd 0;
    ref (Some fd)
  in
  let close_wedged () =
    Option.iter Unix.close !wedged;
    wedged := None
  in
  let shards = ref [ ("b", start_shard "b" (sock "b")) ] in
  let router =
    Router.create
      ~config:
        {
          Router.default_config with
          poll_interval = live_poll_interval;
          down_after = live_down_after;
          request_timeout = 30.0;
        }
      ~shards:
        (List.map
           (fun id -> { Router.id; socket = sock id; weight = 1 })
           tail_ids)
      Helpers.process
  in
  let listener = Frontend.listen_unix (sock "router") in
  let started = Cpu_clock.monotonic_seconds () in
  let router_thread = Thread.create (Router.run router) listener in
  let client = Client.connect_unix (sock "router") in
  Fun.protect
    ~finally:(fun () ->
      (* The wedged socket closes first, so a poller stuck dialing it
         fails the test instead of hanging it. *)
      close_wedged ();
      Client.close client;
      Router.request_shutdown router;
      Thread.join router_thread;
      List.iter (fun (id, shard) -> stop_shard (sock id) shard) !shards;
      List.iter
        (fun id -> try Sys.remove (sock id) with Sys_error _ -> ())
        ("router" :: tail_ids))
    (fun () ->
      if
        not
          (wait_until ~timeout:10.0 (fun () ->
               shard_a_up router = 0.0 && rebalances router >= 1.0))
      then Alcotest.fail "the wedged shard never left the ring";
      let marked_down_after = Cpu_clock.monotonic_seconds () -. started in
      let recover () =
        close_wedged ();
        shards := ("a", start_shard "a" (sock "a")) :: !shards
      in
      f ~marked_down_after ~recover router client)

let test_wedged_shard_leaves_ring () =
  with_wedged_shard (fun ~marked_down_after ~recover:_ router client ->
      let bound =
        float_of_int live_down_after
        *. (live_poll_interval +. (4.0 *. live_poll_interval))
      in
      if marked_down_after > 3.0 *. bound then
        Alcotest.failf "marked down after %.2f s, over 3x the %.2f s bound"
          marked_down_after bound;
      Alcotest.(check (float 0.0)) "leaving the ring is one rebalance" 1.0
        (rebalances router);
      let nets = nets_with_primary "a" 3 in
      List.iter
        (fun net ->
          let sent = Cpu_clock.monotonic_seconds () in
          solve_through client net;
          let took = Cpu_clock.monotonic_seconds () -. sent in
          if took >= 2.0 then
            Alcotest.failf "a key of the wedged shard took %.2f s" took)
        nets;
      Alcotest.(check int) "the survivor answered them" (List.length nets)
        (Obs.Counter.value (shard_inst router "b").forwarded);
      Alcotest.(check int) "no forward tried the wedged shard" 0
        (Obs.Counter.value (shard_inst router "a").failovers))

(* The survivor caches a key of "a" while "a" is out; once "a" answers
   a poll again it is back in the ring, and the key's next answer is a
   fresh solve on "a", then a hit there. *)
let test_recovered_shard_rejoins () =
  with_wedged_shard (fun ~marked_down_after:_ ~recover router client ->
      let net = List.hd (nets_with_primary "a" 1) in
      solve_through client net;
      recover ();
      if
        not
          (wait_until ~timeout:10.0 (fun () ->
               shard_a_up router = 1.0 && rebalances router >= 2.0))
      then Alcotest.fail "the recovered shard never rejoined the ring";
      Alcotest.(check (float 0.0)) "leaving and rejoining are two rebalances"
        2.0 (rebalances router);
      let served () =
        match
          Client.request client (Protocol.solve ~budget:(tail_budget net) net)
        with
        | Ok (Protocol.Result { served; answer }) ->
            check_direct net answer.Protocol.solution;
            served
        | Ok other ->
            Alcotest.failf "SOLVE answered %S" (Protocol.print_response other)
        | Error e -> Alcotest.failf "SOLVE failed: %s" e
      in
      Alcotest.(check bool) "fresh on the rejoined owner" true
        (served () = Protocol.Fresh);
      Alcotest.(check bool) "then cached there" true
        (served () = Protocol.Cached);
      Alcotest.(check int) "both forwarded to the owner" 2
        (Obs.Counter.value (shard_inst router "a").forwarded))

let suite =
  [
    ( "router.ring",
      [
        Alcotest.test_case "basics" `Quick test_ring_basics;
        Alcotest.test_case "single shard" `Quick test_ring_single_shard;
        Alcotest.test_case "spill target distinct" `Quick
          test_ring_pair_distinct;
        qcheck prop_ring_balance;
        qcheck prop_ring_restart_deterministic;
        qcheck prop_ring_minimal_remap;
        qcheck prop_ring_add_restores;
      ] );
    ( "router.config",
      [
        Alcotest.test_case "router config validation" `Quick
          test_router_config_validation;
      ] );
    ( "router.trace",
      [
        Alcotest.test_case
          "merged trace links client, router and shard spans" `Quick
          test_router_trace_parentage;
      ] );
    ( "router.tail",
      [
        Alcotest.test_case "the router relays the shard's bytes" `Quick
          test_tail_relays_shard_bytes;
        Alcotest.test_case "a cut answer fails over" `Quick
          test_tail_cut_answer_fails_over;
        Alcotest.test_case "dead primary fails over" `Quick
          test_tail_dead_primary_fails_over;
        Alcotest.test_case "spool and traces reconcile on failover" `Quick
          test_tail_spool_reconciles;
        Alcotest.test_case "repeats hit the owning shard's cache" `Quick
          test_cache_affinity;
        Alcotest.test_case "every sent forward is settled" `Quick
          test_tail_forwards_settle;
        Alcotest.test_case "a busy owner loses the request to an idle shard"
          `Quick test_busy_owner_spills;
        Alcotest.test_case "overload through the router is the shard's answer"
          `Quick test_overload_through_router;
        Alcotest.test_case "the cluster block sums the shards' METRICS"
          `Quick test_cluster_block;
        Alcotest.test_case "routed counters reconcile exactly" `Quick
          test_routed_reconciliation;
        Alcotest.test_case "a wedged shard leaves the ring within its polls"
          `Quick test_wedged_shard_leaves_ring;
        Alcotest.test_case "a recovered shard rejoins the ring" `Quick
          test_recovered_shard_rejoins;
      ] );
  ]
