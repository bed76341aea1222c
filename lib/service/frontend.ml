type handlers = {
  solve : Protocol.solve -> Protocol.response;
  metrics : unit -> string;
  health : unit -> Protocol.health;
  on_toobig : unit -> unit;
}

(* [stopping] and [listener] are atomics, not mutex-guarded: a signal
   handler runs [request_shutdown] on whichever thread it interrupts,
   possibly one already holding [mutex]. *)
type t = {
  max_frame_bytes : int;
  faults : Faults.t option;
  stopping : bool Atomic.t;
  listener : Unix.file_descr option Atomic.t;
  mutex : Mutex.t;  (* guards live *)
  drained : Condition.t;  (* signalled when live drops to 0 *)
  mutable live : int;  (* connections accepted by [run], not yet finished *)
}

let create ?faults ~max_frame_bytes () =
  {
    max_frame_bytes;
    faults;
    stopping = Atomic.make false;
    listener = Atomic.make None;
    mutex = Mutex.create ();
    drained = Condition.create ();
    live = 0;
  }

let stopping t = Atomic.get t.stopping

let request_shutdown t =
  Atomic.set t.stopping true;
  (* [shutdown], not [close]: closing an fd another thread is blocked in
     [accept] on does not wake it (the in-kernel wait holds a reference),
     whereas shutting the socket down forces the accept to return.  The
     accept loop still owns the fd and closes it once it exits. *)
  match Atomic.exchange t.listener None with
  | Some fd -> (
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
  | None -> ()

(* --- Connection handling -------------------------------------------------- *)

exception Connection_dropped

let handle_connection t handlers fd =
  let wire = Wire.create ~max_frame_bytes:t.max_frame_bytes fd in
  let reader = Wire.reader wire in
  let send response =
    let s = Protocol.print_response response in
    match Option.bind t.faults Faults.drop_after with
    | Some n when n < String.length s ->
        (* Injected transport fault: cut the response short and hang up,
           leaving the client a partial frame to recover from. *)
        Wire.write_all fd s 0 n;
        raise Connection_dropped
    | _ -> Wire.send fd s
  in
  let rec serve () =
    Wire.new_frame wire;
    match Protocol.input_request reader with
    | Ok None -> ()
    | Error message ->
        (* Framing is lost after a malformed request; answer and hang up. *)
        send (Protocol.Error_frame { kind = Protocol.Protocol_error; message })
    | Ok (Some Protocol.Ping) ->
        send Protocol.Pong;
        serve ()
    | Ok (Some Protocol.Metrics) ->
        send (Protocol.Metrics_frame (handlers.metrics ()));
        serve ()
    | Ok (Some Protocol.Health) ->
        send (Protocol.Health_frame (handlers.health ()));
        serve ()
    | Ok (Some Protocol.Shutdown) ->
        send Protocol.Bye;
        request_shutdown t
    | Ok (Some (Protocol.Solve solve)) ->
        let response =
          try handlers.solve solve
          with exn ->
            Protocol.Error_frame
              {
                kind = Protocol.Internal_error;
                message = Protocol.one_line (Printexc.to_string exn);
              }
        in
        send response;
        serve ()
  in
  (* Peer-induced I/O failures (reset, early close) end the connection,
     never the process.  An oversized frame gets the typed TOOBIG answer
     before the hang-up — framing is unrecoverable after it. *)
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try serve () with
      | Unix.Unix_error _ | Sys_error _ | End_of_file | Connection_dropped ->
          ()
      | Wire.Frame_too_big -> (
          handlers.on_toobig ();
          try Wire.send fd (Protocol.print_response Protocol.Toobig)
          with Unix.Unix_error _ | Sys_error _ -> ()))

(* --- Accept loop ---------------------------------------------------------- *)

let connection_finished t =
  Mutex.lock t.mutex;
  t.live <- t.live - 1;
  if t.live = 0 then Condition.broadcast t.drained;
  Mutex.unlock t.mutex

let run t handlers listen_fd =
  Atomic.set t.listener (Some listen_fd);
  (* A shutdown requested before the listener was published found none
     to wake; a shut-down listener fails the first [accept]. *)
  if stopping t then request_shutdown t;
  let rec accept_loop () =
    match Unix.accept ~cloexec:true listen_fd with
    | client_fd, _ ->
        (* Counted before the spawn, so the drain below cannot miss a
           connection whose thread has not started yet. *)
        Mutex.lock t.mutex;
        t.live <- t.live + 1;
        Mutex.unlock t.mutex;
        (match
           Thread.create
             (fun () ->
               Fun.protect
                 ~finally:(fun () -> connection_finished t)
                 (fun () -> handle_connection t handlers client_fd))
             ()
         with
        | _ -> ()
        | exception e ->
            (* The spawn failed, so no thread owns the fd: close it here
               or it leaks. *)
            (try Unix.close client_fd with Unix.Unix_error _ -> ());
            connection_finished t;
            raise e);
        accept_loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error _ ->
        (* The listener was shut down under us: either [request_shutdown]
           (expected) or a fatal socket error — stop accepting both ways. *)
        ()
  in
  accept_loop ();
  request_shutdown t;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  Mutex.lock t.mutex;
  while t.live > 0 do
    Condition.wait t.drained t.mutex
  done;
  Mutex.unlock t.mutex

(* --- Listening sockets ---------------------------------------------------- *)

let listen_unix path =
  if Sys.file_exists path then Unix.unlink path;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with exn ->
     Unix.close fd;
     raise exn);
  Unix.listen fd 64;
  fd

let listen_tcp ~host ~port =
  let address =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          failwith (Printf.sprintf "cannot resolve host %S" host)
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found ->
          failwith (Printf.sprintf "cannot resolve host %S" host))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (address, port))
   with exn ->
     Unix.close fd;
     raise exn);
  Unix.listen fd 64;
  fd
