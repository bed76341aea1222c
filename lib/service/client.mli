(** A blocking [rip_serviced] client: one connection, one request in
    flight at a time.  Shared by [rip_loadgen], the service bench and the
    end-to-end tests.

    Two layers: a bare connection ({!t}, {!request}) that reports every
    failure as a final [Error], and a retrying {!session} that
    reconnects and retries outcomes safe to repeat — transport failures
    (a SOLVE is a pure computation, so re-sending is idempotent), BUSY
    and TIMEOUT — with deterministic full-jitter exponential backoff. *)

type t

val of_fd : ?timeout:float -> Unix.file_descr -> t
(** Wrap an established socket (e.g. one end of a socketpair).
    [timeout] arms the socket's receive/send timeouts (seconds): a
    stalled peer then surfaces as a transport [Error] instead of
    blocking forever. *)

val connect_unix : ?timeout:float -> string -> t
(** Connect to a Unix-domain socket path.  [timeout] also bounds the
    dial, which would otherwise block on a listener whose backlog is
    full (one that stopped accepting).
    @raise Unix.Unix_error when the daemon is not there or the dial
    timed out. *)

val connect_tcp : ?timeout:float -> host:string -> port:int -> unit -> t
(** Connect over TCP.  [timeout] bounds each read/write, not the
    connect itself. *)

val request : t -> Protocol.request -> (Protocol.response, string) result
(** Send one request and read its response.  Writes are EINTR-safe and
    complete ({!Wire.write_all}) — a frame is never half-sent because a
    signal landed.  [Error] carries a transport or framing diagnostic
    (connection reset, truncated frame, timeout, garbage); the
    connection should be abandoned after an [Error]. *)

val close : t -> unit
(** Idempotent. *)

(** {1 Connection pools}

    What a router keeps per shard: up to [size] idle connections, dialed
    on demand, shared by any number of threads.  A burst beyond [size]
    dials extra connections rather than queueing (they are closed on
    return instead of pooled), and a connection that reported a
    transport error is discarded, never re-pooled. *)

module Pool : sig
  type conn = t
  type t

  val create : ?timeout:float -> size:int -> (unit -> conn) -> t
  (** [create ~size connect] pools connections produced by [connect]
      (which may raise; dial failures surface as [Error] from
      {!request}).  [timeout] arms each pooled connection's socket
      timeouts.
      @raise Invalid_argument when [size < 1]. *)

  val request : t -> Protocol.request -> (Protocol.response, string) result
  (** Check a connection out (pooled or freshly dialed), run one
      round trip, check it back in on success.  [Error] carries the
      dial or transport diagnostic; the failed connection is closed,
      not re-pooled. *)

  val close_all : t -> unit
  (** Close every idle connection and refuse further checkouts.
      Connections currently checked out are closed by their users'
      failure path (a request on a closed pool returns [Error]). *)
end

(** {1 Retrying sessions} *)

type retry_policy = {
  attempts : int;  (** total attempts, including the first; >= 1 *)
  backoff_seconds : float;  (** base delay before the first retry *)
  backoff_cap_seconds : float;  (** ceiling on any single delay *)
  attempt_timeout : float option;
      (** per-attempt socket timeout (seconds) applied to every
          connection the session opens *)
}

val default_retry_policy : retry_policy
(** 3 attempts, 10 ms base, 250 ms cap, no attempt timeout. *)

type session

val session : ?policy:retry_policy -> seed:int64 -> (unit -> t) -> session
(** [session ~seed connect] retries through connections produced by
    [connect] (called lazily, re-called after a transport failure).
    Equal seeds give identical backoff schedules.
    @raise Invalid_argument when [policy.attempts < 1]. *)

val close_session : session -> unit
(** Close the session's current connection, if any.  The session remains
    usable (the next request reconnects). *)

type outcome = {
  response : (Protocol.response, string) result;  (** the final answer *)
  attempts : int;  (** attempts actually made, >= 1 *)
  retried_transport : int;  (** retries after a transport [Error] *)
  retried_busy : int;  (** retries after BUSY *)
  retried_timeout : int;  (** retries after TIMEOUT *)
}

val request_with_retry : session -> Protocol.request -> outcome
(** Send [frame], retrying per the session policy with full-jitter
    exponential backoff between attempts.  Non-retryable responses
    (RESULT, DEGRADED, ERROR, ...) return immediately; a retryable
    outcome on the last attempt is returned as-is. *)
