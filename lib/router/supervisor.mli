(** Shard process supervision: spawn [rip_serviced] children over Unix
    sockets, detect exits, and respawn after a backoff.

    Owns only pids and socket paths.  Service-level liveness (does the
    shard answer HEALTH?) is the router poller's concern — a wedged
    process is [alive] here yet still gets routed around, and a fresh
    respawn stays out of the ring until it answers PING
    ({!wait_ready}). *)

type child

val spawn :
  ?restart_backoff:float ->
  exe:string ->
  extra_args:string list ->
  id:string ->
  socket:string ->
  unit ->
  child
(** Start [exe --socket socket --shard-id id <extra_args>], inheriting
    stdio.  [restart_backoff] (default 1 s) is the minimum dead time
    before {!restart_if_due} respawns — a long backoff keeps a killed
    shard down long enough to observe the cluster degrading gracefully. *)

val id : child -> string
val socket : child -> string

val pid : child -> int option
(** [None] once the child has been observed dead (and reaped). *)

val restarts : child -> int

val alive : child -> bool
(** Non-blocking: [waitpid WNOHANG], reaping the zombie on exit. *)

val restart_if_due : child -> bool
(** Respawn a dead child whose backoff has elapsed; [true] when a new
    process was started by this call.  No-op on a live child. *)

val wait_ready : ?attempts:int -> ?delay:float -> child -> (unit, string) result
(** Connect-and-PING until the shard answers [PONG] (default: 100
    attempts, 50 ms apart — 5 s). *)

val terminate : ?timeout:float -> ?log:(string -> unit) -> child -> unit
(** SIGTERM, wait up to [timeout] (default 5 s), then SIGKILL; reaps
    and removes the socket file.  Idempotent.  The grace window lets a
    journaled shard flush its unsynced journal bytes; [log] receives
    one line saying whether the child exited within the window or was
    escalated to SIGKILL. *)
