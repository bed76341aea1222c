(** The canonical-form result cache in front of the solver.

    Keys are strings built by {!key} from the exact triple the solver
    reads: the process constants (rendered at [%.17g], once per
    process), the net's electrical content
    ({!Rip_net.Net.canonical_digest}: an MD5 over IEEE-754 bits, cosmetic
    names excluded) and the budget's IEEE-754 bits in hex.  Budgets are
    exact-matched:
    a router re-querying the same net under a nearby-but-different budget
    is a miss by design, because RIP's answer is not continuous in the
    budget and serving a neighbour's solution could violate timing.

    Eviction is LRU with a fixed capacity; {!find} and {!add} are
    O(1) and thread-safe (one internal mutex), so worker domains and
    connection threads share one cache.  Values are immutable snapshots —
    callers must not mutate what {!find} returns.

    For a journaled server the cache is the one live set: the journal
    keeps no copy of it, and its compaction rewrites what
    {!fold_verified} yields.  The cache never calls out — evictions and
    self-heals reach the journal only as absences from that fold — so
    the one lock order is journal, then cache. *)

type 'a t

val create : capacity:int -> 'a t
(** A cache holding at most [capacity] entries; [capacity = 0] disables
    caching (every lookup misses, every insert is dropped).
    @raise Invalid_argument on a negative capacity. *)

val capacity : 'a t -> int
val size : 'a t -> int

val key :
  process:Rip_tech.Process.t -> net:Rip_net.Net.t -> budget:float -> string
(** The canonical cache key of a solve request.  Process identity is the
    process name plus its repeater RC and power-model constants, so two
    processes differing in any solver-visible float never share keys.
    [key ~process] renders the process part once and returns the keyer a
    server applies per request; that renders no float.  Two requests
    share a key exactly when they did under the earlier all-[%.17g] key
    (that rendering round-trips every double but NaN and keeps [-0.]
    apart from [0.]; only NaNs with different payloads now part), but the
    strings differ, so a journal written by an older build replays and is
    never hit. *)

val find : 'a t -> string -> 'a option
(** Lookup; a hit refreshes the entry's recency.  Counts into
    {!stats}' hits/misses.  Digest verification is skipped. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (or overwrite, refreshing recency); evicts the least recently
    used entry when full.  The entry carries no digest, so verified
    reads accept it unconditionally. *)

(** {1 Digest-verified entries}

    The service stores each answer — the solution with its rendered body
    bytes ({!Protocol.answer}) — together with the MD5 of those bytes.
    Reads recompute the digest over the stored bytes and compare: a mismatch
    means the stored value was corrupted (bit rot, a fault-injection
    run, a bug), so the entry is evicted on the spot — the cache
    self-heals and the caller re-solves.  A corrupted entry is therefore
    served zero times. *)

val add_verified : 'a t -> string -> 'a -> digest:string -> unit
(** Like {!add}, attaching the integrity digest. *)

val add_replayed : 'a t -> string -> 'a -> digest:string -> unit
(** {!add_verified}, but counts into {!stats}' [replayed] — the journal
    replay path at boot.  The caller is expected to have verified the
    digest against the replayed bytes already; a mismatched record must
    be rejected before this call, never inserted. *)

val find_verified : 'a t -> string -> digest_of:('a -> string) -> 'a option
(** Like {!find}, but a hit first recomputes [digest_of value] and
    compares it with the stored digest; on mismatch the entry is removed
    and the lookup counts as a miss plus one [self_heals]. *)

val fold_verified :
  'a t ->
  digest_of:('a -> string) ->
  (string -> 'a -> digest:string -> 'b -> 'b) ->
  'b ->
  'b
(** Fold over the entries whose stored digest equals [digest_of value],
    most recently used first, under the cache lock; an entry without a
    digest or with a mismatched one (see {!corrupt}) is skipped, not
    healed, and nothing counts into {!stats} or moves in the LRU order.
    The journal's compaction source: what it persists is exactly what a
    verified read would serve.  [f] must not call back into the cache. *)

val corrupt : 'a t -> string -> bool
(** Fault/test hook: tamper with the stored digest of an entry so the
    next verified read detects corruption.  Returns [false] when the key
    is absent or the entry carries no digest. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  self_heals : int;  (** corrupted entries detected and evicted on read *)
  replayed : int;  (** entries admitted by journal replay at boot *)
  size : int;
  capacity : int;
}

val stats : 'a t -> stats
