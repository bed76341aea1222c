(** A weighted consistent-hash ring over shard ids.

    Routing keys are opaque strings — the router uses
    {!Rip_net.Net.canonical_digest} (an MD5 over the net's IEEE-754
    float bits, no rendering), so electrically identical nets land on
    the same shard and its solve cache stays hot for that key range.
    Placement is a pure function of the membership (MD5 positions), so
    it is identical across process restarts, and membership edits move
    only the edited shard's arcs: removing one of [n] equally-weighted
    shards remaps ~1/n of the keyspace and no key that stays moves
    between surviving shards. *)

type t

val default_vnodes_per_weight : int
(** 128 — enough vnodes that equal weights get near-equal key shares. *)

val create : ?vnodes_per_weight:int -> (string * int) list -> t
(** [create members] builds the ring over [(shard id, weight)] pairs; a
    shard owns [vnodes_per_weight * weight] virtual nodes.
    @raise Invalid_argument on a duplicate or invalid shard id
    ({!Rip_service.Protocol.valid_shard_id}), a weight < 1, or
    [vnodes_per_weight < 1]. *)

val add : t -> string -> weight:int -> t
(** A new ring with one more shard; existing shards' vnodes are
    unchanged (functional update — swap it in atomically). *)

val remove : t -> string -> t
(** A new ring without [id]; its arcs fall to their clockwise
    successors, everything else keeps its owner.
    @raise Invalid_argument when [id] is not a member. *)

val lookup : t -> string -> string option
(** The shard owning [key] — the first vnode clockwise from the key's
    position.  [None] on an empty ring. *)

val lookup_pair : t -> string -> (string * string option) option
(** [(primary, second_choice)]: the owner plus the next *distinct*
    shard clockwise — the spill target.  The second component is [None]
    when the ring has a single shard. *)

val members : t -> (string * int) list
val size : t -> int
(** Member shards (not vnodes). *)

val vnode_count : t -> int
val vnodes_per_weight : t -> int

val shares : t -> (string * float) list
(** Exact fraction of the keyspace each shard owns (arc lengths; sums
    to 1 on a non-empty ring) — what the balance property tests bound. *)

val key_position : string -> int64
(** The ring position of a routing key (first 8 bytes of its MD5,
    big-endian, compared unsigned) — exposed for tests. *)
