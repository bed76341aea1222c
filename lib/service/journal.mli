(** Crash-durable write-ahead journal for the solve cache.

    An append-only log of [(key, value)] records — in the service, the
    cache key and the digest-prefixed response body — framed with a
    CRC32 per record and batched fsyncs (64 KiB or 50 ms).  The journal
    is the durability story behind [rip_serviced --journal-dir]: every
    verified cache insert is appended, and at boot the log is replayed
    to pre-warm the LRU so a restarted shard serves its old key range
    from microsecond byte-replays instead of cold solves.

    The journal keeps no copy of what is live: the caller's [live]
    source (in the service, the cache's digest-verified entries) is the
    one live set.  Records go to numbered segment files
    ([segment-%08d.rj]); each {!open_} starts a fresh one.  Once the log
    reaches [max 256 KiB (2 × the bytes the last compaction or the
    recovery left)], compaction rewrites [live ()], sorted by key, into
    a fresh segment and deletes the old ones, so the log stays
    proportional to the live set and each rewrite is paid for by at
    least as many appended bytes.

    Recovery invariants (see DESIGN §6e):
    - every frame's CRC is checked on every recovery;
    - a torn tail — the partial record a crash leaves behind — is
      truncated at the first bad frame and replay keeps everything
      before it (the 13-byte footer older builds wrote at close reads
      as such a tail, once);
    - a record whose CRC32 fails (bit rot, injected bit-flip) is
      skipped, never surfaced;
    - the journal itself never vouches for payload integrity beyond the
      CRC — the caller re-verifies each replayed record against its
      embedded digest before admitting it to the cache (the same
      self-healing verify path used for live reads).

    A [t] is thread-safe: appends, flushes and compactions are
    serialised by an internal mutex. *)

type recovery = {
  entries : (string * string) list;
      (** live records in replay (append) order, last write per key wins *)
  valid_records : int;  (** CRC-valid records scanned *)
  crc_rejected : int;  (** records dropped for a CRC mismatch *)
  torn_bytes : int;  (** tail bytes truncated at the first bad frame *)
  segments : int;  (** segment files scanned; 0 on a first boot *)
}

type stats = {
  bytes : int;  (** on-disk size across all segments *)
  segments : int;
  appends : int;
  fsyncs : int;
  compactions : int;
}

type t

val prepare_dir : string -> (unit, string) result
(** Create the journal directory (parents included, tolerant of a
    concurrent creator racing us — the [netgen_cli] mkdir idiom) and
    probe it for writability.  [Error] carries a one-line reason fit
    for a typed usage error; nothing is raised. *)

val open_ :
  ?faults:Faults.t ->
  live:(unit -> (string * string) list) ->
  string ->
  (t * recovery, string) result
(** [open_ ~live dir] recovers whatever [dir] holds (repairing a torn
    tail in place), then opens a fresh active segment for appends.
    [live] is what a compaction keeps; it is called under the journal's
    lock, so it must not call back into the journal.  [faults]
    arms the disk fault sites ({!Faults.torn_write},
    {!Faults.journal_bitflip}, {!Faults.fsync_delay}) on the append
    path — recovery and compaction always write faithfully. *)

val append : t -> key:string -> value:string -> unit
(** Append one record; when that brings the log to its threshold,
    compact it from [live ()].  A compaction keeps only what [live ()]
    returns, so a caller appends what its live source already holds.  A
    re-append of a key supersedes the old record (last-wins on replay).
    No-op after {!close} or after an injected torn write wedged the log
    — the torn tail is preserved for the next recovery to repair. *)

val flush : t -> unit
(** Force the unsynced tail to disk now — the SIGTERM grace path. *)

val close : t -> unit
(** Fsync and close.  Idempotent. *)

val stats : t -> stats

val crc32 : ?crc:int32 -> Bytes.t -> pos:int -> len:int -> int32
(** Running CRC-32 (IEEE 802.3, the zlib polynomial) over a byte range;
    feed the previous return back through [?crc] to span disjoint
    ranges.  Exposed for tests. *)
