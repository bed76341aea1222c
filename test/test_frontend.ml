(* Connection front-end conformance: one frame script run against an
   in-process server and against an in-process router over one shard.
   Both answer through [Rip_service.Frontend], so every answer but
   HEALTH and METRICS must be the same bytes from either, both must
   count a TOOBIG they answered in their METRICS [rip_toobig_total],
   and both must drain on SHUTDOWN only once every open connection has
   closed. *)

module Protocol = Rip_service.Protocol
module Server = Rip_service.Server
module Client = Rip_service.Client
module Frontend = Rip_service.Frontend
module Wire = Rip_service.Wire
module Router = Rip_router.Router

let process = Helpers.process
let max_frame_bytes = 256

(* An in-process front end listening on [socket]. *)
type target = {
  socket : string;
  shard_id : string;  (* what HEALTH reports *)
  returned : bool Atomic.t;  (* set once [run] has returned *)
  finish : unit -> unit;  (* join [run] and release everything *)
}

let socket_path name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "rip-test-%d-fe-%s.sock" (Unix.getpid ()) name)

let server_config shard_id =
  { Server.default_config with jobs = Some 1; shard_id; max_frame_bytes }

(* Start [run] on its own thread; [returned] flips when it comes back. *)
let spawn_run run listener =
  let returned = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        run listener;
        Atomic.set returned true)
      ()
  in
  (thread, returned)

let server_target () =
  let socket = socket_path "server" in
  let server = Server.create ~config:(server_config "fe0") process in
  let thread, returned =
    spawn_run (Server.run server) (Frontend.listen_unix socket)
  in
  {
    socket;
    shard_id = "fe0";
    returned;
    finish =
      (fun () ->
        Thread.join thread;
        Server.shutdown server;
        Sys.remove socket);
  }

let router_target () =
  let shard_socket = socket_path "shard" and socket = socket_path "router" in
  let shard = Server.create ~config:(server_config "s0") process in
  let shard_thread, _ =
    spawn_run (Server.run shard) (Frontend.listen_unix shard_socket)
  in
  let router =
    Router.create
      ~config:{ Router.default_config with max_frame_bytes }
      ~shards:[ { Router.id = "s0"; socket = shard_socket; weight = 1 } ]
      process
  in
  let thread, returned =
    spawn_run (Router.run router) (Frontend.listen_unix socket)
  in
  {
    socket;
    shard_id = "router";
    returned;
    finish =
      (fun () ->
        Thread.join thread;
        Server.request_shutdown shard;
        Thread.join shard_thread;
        Server.shutdown shard;
        List.iter Sys.remove [ socket; shard_socket ]);
  }

(* Everything the peer sends until it hangs up. *)
let read_all fd =
  let buffer = Bytes.create 4096 and out = Buffer.create 64 in
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

(* Send raw bytes on a fresh connection and collect the answer up to the
   front end's hang-up. *)
let one_shot socket bytes =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      (try Wire.send fd bytes with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
      read_all fd)

let expect_response label expected = function
  | Ok response ->
      Alcotest.(check string)
        label
        (Protocol.print_response expected)
        (Protocol.print_response response)
  | Error e -> Alcotest.failf "%s: transport failure: %s" label e

let wait_returned target =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get target.returned)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check bool) "run returned once every connection closed" true
    (Atomic.get target.returned)

let conformance make () =
  let target = make () in
  (* A connection that stays open across the whole script. *)
  let held = Client.connect_unix target.socket in
  expect_response "PING" Protocol.Pong (Client.request held Protocol.Ping);
  (match Client.request held Protocol.Health with
  | Ok (Protocol.Health_frame h) ->
      Alcotest.(check string) "HEALTH shard id" target.shard_id
        h.Protocol.health_shard_id
  | Ok other ->
      Alcotest.failf "HEALTH answered %S" (Protocol.print_response other)
  | Error e -> Alcotest.failf "HEALTH failed: %s" e);
  (* STATS is no verb: it is answered like any malformed request. *)
  List.iter
    (fun line ->
      let malformed_answer =
        match Protocol.input_request (Protocol.reader_of_lines [ line ]) with
        | Error message ->
            Protocol.print_response
              (Protocol.Error_frame { kind = Protocol.Protocol_error; message })
        | Ok _ -> Alcotest.failf "%s must not parse" line
      in
      Alcotest.(check string)
        (line ^ ": ERROR protocol, then EOF")
        malformed_answer
        (one_shot target.socket (line ^ "\n")))
    [ "GARBAGE"; "STATS" ];
  Alcotest.(check string)
    "oversized: TOOBIG, then EOF" "TOOBIG\n"
    (one_shot target.socket ("SOLVE " ^ String.make 600 'x' ^ "\nEND\n"));
  (match Client.request held Protocol.Metrics with
  | Ok (Protocol.Metrics_frame body) ->
      Alcotest.(check int) "TOOBIG counted" 1
        (Helpers.count body "rip_toobig_total")
  | Ok other ->
      Alcotest.failf "METRICS answered %S" (Protocol.print_response other)
  | Error e -> Alcotest.failf "METRICS failed: %s" e);
  Alcotest.(check string)
    "SHUTDOWN: BYE, then EOF" "BYE\n"
    (one_shot target.socket (Protocol.print_request Protocol.Shutdown));
  (* Drain: the held connection is still served, and [run] waits for it. *)
  Thread.delay 0.2;
  Alcotest.(check bool) "run still draining" false
    (Atomic.get target.returned);
  expect_response "PING while draining" Protocol.Pong
    (Client.request held Protocol.Ping);
  Client.close held;
  wait_returned target;
  target.finish ()

let suite =
  [
    ( "service.frontend",
      [
        Alcotest.test_case "conformance: server" `Quick
          (conformance server_target);
        Alcotest.test_case "conformance: router over one shard" `Quick
          (conformance router_target);
      ] );
  ]
