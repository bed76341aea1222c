(** The connection front end shared by {!Server} and the cluster router:
    listening sockets, the accept loop, one thread per connection
    speaking {!Protocol} over a bounded {!Wire} reader, and the drain on
    shutdown.  What a process answers comes from its {!handlers}.

    Each request frame is read under a fresh [max_frame_bytes] budget
    and answered with exactly one frame.  PING, METRICS, HEALTH and
    SOLVE keep the connection open (an exception escaping
    [handlers.solve] is answered [ERROR internal]); SHUTDOWN is answered
    [BYE], then {!request_shutdown}.  A malformed request is answered
    [ERROR protocol] and an oversized frame [TOOBIG] (after
    [handlers.on_toobig]), each followed by a hang-up.  A peer reset or
    EOF ends that connection only. *)

type handlers = {
  solve : Protocol.solve -> Protocol.response;
  metrics : unit -> string;  (** the METRICS body *)
  health : unit -> Protocol.health;
  on_toobig : unit -> unit;  (** called before each TOOBIG answer *)
}

type t

val create : ?faults:Faults.t -> max_frame_bytes:int -> unit -> t
(** [faults] (none by default) may cut responses short on the send path
    ({!Faults.drop_after}): the connection is then closed after the
    partial frame. *)

val handle_connection : t -> handlers -> Unix.file_descr -> unit
(** Serve one established connection until the peer disconnects, a
    protocol error or oversized frame ends it, or a SHUTDOWN request
    arrives.  Closes [fd] before returning.  Never raises on
    peer-induced failures (resets, early close). *)

val run : t -> handlers -> Unix.file_descr -> unit
(** Accept loop over a listening socket, one thread per connection.
    Returns once shutdown is requested (SHUTDOWN frame,
    {!request_shutdown}, or a listener error) and every connection it
    accepted has finished.  Closes the listening socket (at once if [t]
    is already stopping). *)

val stopping : t -> bool
(** Lock-free: whether shutdown has been requested. *)

val request_shutdown : t -> unit
(** Stop accepting connections; idempotent and callable from a signal
    handler.  The listener is shut down, not closed, so a thread blocked
    in [accept] wakes; {!run} closes it.  Open connections are served
    until their peers hang up. *)

(** {1 Listening sockets} *)

val listen_unix : string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket path, unlinking a stale
    socket file first. *)

val listen_tcp : host:string -> port:int -> Unix.file_descr
(** Bind and listen on [host:port] with [SO_REUSEADDR]. *)
