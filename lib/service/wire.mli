(** Byte-level socket I/O for the service: exact-length writes and a
    bounded line reader.

    Both sides of the protocol write whole frames with {!send}, which
    loops over partial [write]s and retries [EINTR] — a frame either
    reaches the kernel completely or the write raises.  The server reads
    through a {!reader} that enforces a per-frame byte budget, the
    defence against a peer streaming an endless line or never sending
    [END]. *)

exception Frame_too_big
(** The current frame exceeded the reader's [max_frame_bytes] budget
    (including buffered bytes of an unterminated line).  The connection's
    framing is unrecoverable after this; answer [TOOBIG] and close. *)

val write_all : Unix.file_descr -> string -> int -> int -> unit
(** [write_all fd s off len]: write exactly [len] bytes, looping over
    short writes and [EINTR].  Raises the underlying [Unix_error] on any
    other failure (e.g. [EPIPE]). *)

val send : Unix.file_descr -> string -> unit
(** [write_all fd s 0 (String.length s)]. *)

type reader
(** A buffered line reader over a file descriptor with a per-frame byte
    budget.  Not thread-safe; one reader per connection thread. *)

val default_max_frame_bytes : int
(** 1 MiB — generous for any realistic net body (the Section-6 nets are
    a few hundred bytes). *)

val create : ?max_frame_bytes:int -> Unix.file_descr -> reader
(** @raise Invalid_argument when [max_frame_bytes < 1]. *)

val new_frame : reader -> unit
(** Reset the frame byte budget; call before reading each request. *)

val reader : reader -> Protocol.reader
(** The {!Protocol.reader} view: yields the next line ([\r] stripped,
    terminator excluded) or [None] at end of stream.
    @raise Frame_too_big when the frame budget is exceeded.
    @raise Unix.Unix_error on transport failures other than [EINTR]. *)
