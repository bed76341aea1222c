(* Shard process supervision: spawn rip_serviced children, notice when
   they die, and restart them with a configurable backoff.

   The supervisor is deliberately dumb — it owns pids and sockets,
   nothing else.  Liveness of the *service* (is the shard answering
   HEALTH?) is the router's poller's business; [alive] only answers "has
   the OS process exited", via a non-blocking [waitpid] that also reaps
   the zombie.  Keeping the two notions separate matters for the
   degrade path: a wedged-but-running shard must be routed around even
   though its pid is alive, and a freshly-restarted one must stay out
   of the ring until it answers PING. *)

type child = {
  id : string;
  socket : string;
  exe : string;
  argv : string array;  (* full argv, argv.(0) = exe *)
  restart_backoff : float;  (* seconds to wait before a respawn *)
  mutable pid : int option;
  mutable restarts : int;
  mutable last_exit : float;  (* monotonic time of last observed death *)
}

let monotonic = Rip_numerics.Cpu_clock.monotonic_seconds

let spawn_process child =
  (* A stale socket from a crashed incarnation would make the child's
     bind fail; rip_serviced unlinks it itself, but be safe when the
     previous owner was killed mid-listen. *)
  (if Sys.file_exists child.socket then
     try Unix.unlink child.socket with Unix.Unix_error _ -> ());
  let pid =
    Unix.create_process child.exe child.argv Unix.stdin Unix.stdout
      Unix.stderr
  in
  child.pid <- Some pid;
  pid

let spawn ?(restart_backoff = 1.0) ~exe ~extra_args ~id ~socket () =
  let argv =
    Array.of_list
      ((exe :: [ "--socket"; socket; "--shard-id"; id ]) @ extra_args)
  in
  let child =
    {
      id;
      socket;
      exe;
      argv;
      restart_backoff;
      pid = None;
      restarts = 0;
      last_exit = 0.0;
    }
  in
  ignore (spawn_process child);
  child

let id child = child.id
let socket child = child.socket
let pid child = child.pid
let restarts child = child.restarts

let alive child =
  match child.pid with
  | None -> false
  | Some pid -> (
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> true
      | _, _ ->
          child.pid <- None;
          child.last_exit <- monotonic ();
          false
      | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
          (* Reaped elsewhere (or not our child): treat as dead. *)
          child.pid <- None;
          child.last_exit <- monotonic ();
          false)

(* Respawn a dead child once its backoff has elapsed.  Returns [true]
   when a new process was started this call.  The backoff is what lets
   the CI kill test observe the degraded window: with a long backoff
   the killed shard *stays* dead while the router proves it can serve
   around the hole. *)
let restart_if_due child =
  if alive child then false
  else if monotonic () -. child.last_exit < child.restart_backoff then false
  else begin
    ignore (spawn_process child);
    child.restarts <- child.restarts + 1;
    true
  end

(* Connect-and-PING until the child answers; a freshly-spawned shard
   needs a moment to bind its socket and start its acceptor. *)
let wait_ready ?(attempts = 100) ?(delay = 0.05) child =
  let rec go remaining =
    if remaining = 0 then
      Error
        (Printf.sprintf "shard %s did not become ready on %s" child.id
           child.socket)
    else
      match Rip_service.Client.connect_unix ~timeout:1.0 child.socket with
      | conn ->
          let answer = Rip_service.Client.request conn Rip_service.Protocol.Ping in
          Rip_service.Client.close conn;
          (match answer with
          | Ok Rip_service.Protocol.Pong -> Ok ()
          | Ok _ | Error _ ->
              Thread.delay delay;
              go (remaining - 1))
      | exception Unix.Unix_error _ ->
          Thread.delay delay;
          go (remaining - 1)
  in
  go attempts

(* The grace window exists for durability: a journaled shard flushes
   its unsynced journal bytes on SIGTERM, so killing it early would
   needlessly shrink the warm set it restarts with.  [log] reports
   which path was taken — CI greps for the escalation line. *)
let terminate ?(timeout = 5.0) ?(log = fun _ -> ()) child =
  match child.pid with
  | None -> ()
  | Some pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      let deadline = monotonic () +. timeout in
      let rec reap () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if monotonic () >= deadline then begin
              log
                (Printf.sprintf
                   "shard %s: no exit within %.1f s of SIGTERM; escalating \
                    to SIGKILL"
                   child.id timeout);
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
            end
            else begin
              Thread.delay 0.02;
              reap ()
            end
        | _, _ ->
            log
              (Printf.sprintf "shard %s: exited within the %.1f s grace window"
                 child.id timeout)
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      in
      reap ();
      child.pid <- None;
      if Sys.file_exists child.socket then
        try Unix.unlink child.socket with Unix.Unix_error _ -> ()
