(** Crash-durable write-ahead journal for the solve cache.

    An append-only log of [(key, value)] records — in the service, the
    cache key and the digest-prefixed response body — framed with a
    CRC32 per record and batched fsyncs.  The journal is the durability
    story behind [rip_serviced --journal-dir]: every verified cache
    insert is appended, and at boot the log is replayed to pre-warm the
    LRU so a restarted shard serves its old key range from microsecond
    byte-replays instead of cold solves.

    Records are written to numbered segment files ([segment-%08d.rj]),
    rotated at a size threshold.  The LRU's eviction feedback
    ({!note_evicted}) marks records dead; once the dead fraction of the
    log crosses a threshold, compaction rewrites the live set into a
    fresh segment and deletes the old ones.

    Recovery invariants (see DESIGN §6e):
    - a torn tail — the partial record a crash leaves behind — is
      truncated at the first bad frame and replay keeps everything
      before it;
    - a record whose CRC32 fails (bit rot, injected bit-flip) is
      skipped, never surfaced;
    - a clean-shutdown footer written by {!close} lets recovery skip
      the torn-tail repair pass entirely;
    - the journal itself never vouches for payload integrity beyond the
      CRC — the caller re-verifies each replayed record against its
      embedded digest before admitting it to the cache (the same
      self-healing verify path used for live reads).

    A [t] is thread-safe: appends, flushes and compactions are
    serialised by an internal mutex. *)

type config = {
  dir : string;  (** journal directory; see {!prepare_dir} *)
  segment_bytes : int;  (** rotate the active segment past this size *)
  fsync_bytes : int;  (** fsync once this many unsynced bytes accrue *)
  fsync_seconds : float;  (** ... or this long since the last fsync *)
  compact_min_bytes : int;  (** never compact a log smaller than this *)
  compact_dead_ratio : float;
      (** compact when [dead_bytes / bytes] reaches this fraction *)
}

val default_config : dir:string -> config
(** 1 MiB segments, 64 KiB / 50 ms fsync batching, compaction at half
    dead once the log exceeds 256 KiB. *)

type recovery = {
  entries : (string * string) list;
      (** live records in replay (append) order, last write per key wins *)
  valid_records : int;  (** CRC-valid records scanned *)
  crc_rejected : int;  (** records dropped for a CRC mismatch *)
  torn_bytes : int;  (** tail bytes truncated at the first bad frame *)
  clean : bool;
      (** a clean-shutdown footer terminated the log, or there was no
          segment yet (a first boot) *)
  segments : int;  (** segment files scanned *)
}

type stats = {
  bytes : int;  (** on-disk size across all segments *)
  segments : int;
  live_entries : int;
  dead_bytes : int;  (** bytes held by superseded or evicted records *)
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

val open_ : ?faults:Faults.t -> config -> (t * recovery, string) result
(** Recover whatever the directory holds (repairing a torn tail in
    place), then open a fresh active segment for appends.  [faults]
    arms the disk fault sites ({!Faults.torn_write},
    {!Faults.journal_bitflip}, {!Faults.fsync_delay}) on the append
    path — recovery and compaction always write faithfully. *)

val append : t -> key:string -> value:string -> unit
(** Append one record.  A re-append of a live key supersedes the old
    record (last-wins on replay; the old bytes count as dead).  No-op
    after {!close} or after an injected torn write wedged the log —
    the torn tail is preserved for the next recovery to repair. *)

val note_evicted : t -> key:string -> unit
(** The cache evicted (or self-healed away) [key]: its record is dead
    weight from now on.  May trigger compaction. *)

val flush : t -> unit
(** Force the unsynced tail to disk now — the SIGTERM grace path. *)

val close : t -> unit
(** Flush, write the clean-shutdown footer, fsync and close.
    Idempotent. *)

val stats : t -> stats

val crc32 : ?crc:int32 -> Bytes.t -> pos:int -> len:int -> int32
(** Running CRC-32 (IEEE 802.3, the zlib polynomial) over a byte range;
    feed the previous return back through [?crc] to span disjoint
    ranges.  Exposed for tests. *)
