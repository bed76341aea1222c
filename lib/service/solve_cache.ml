(* A classic intrusive doubly-linked LRU list over a hashtable: [head] is
   the most recently used entry, [tail] the eviction candidate.  All
   operations run under [mutex]; list surgery is O(1). *)

type 'a node = {
  node_key : string;
  mutable value : 'a;
  mutable digest : string option;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  cache_capacity : int;
  table : (string, 'a node) Hashtbl.t;
  mutex : Mutex.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable self_heals : int;
  mutable replayed : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Solve_cache.create: negative capacity";
  {
    cache_capacity = capacity;
    table = Hashtbl.create (Stdlib.max 16 capacity);
    mutex = Mutex.create ();
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    self_heals = 0;
    replayed = 0;
  }

let capacity t = t.cache_capacity

let size t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.mutex;
  n

(* The process part is rendered when [key] is applied to [~process];
   per request the key costs the net digest and the budget's bits, and
   renders no float. *)
let key ~process =
  let repeater = process.Rip_tech.Process.repeater in
  let power = process.Rip_tech.Process.power in
  let prefix =
    Printf.sprintf "%s|%.17g,%.17g,%.17g|%.17g,%.17g,%.17g,%.17g|"
      process.Rip_tech.Process.name repeater.Rip_tech.Repeater_model.rs
      repeater.Rip_tech.Repeater_model.co repeater.Rip_tech.Repeater_model.cp
      power.Rip_tech.Power_model.vdd power.Rip_tech.Power_model.frequency
      power.Rip_tech.Power_model.activity
      power.Rip_tech.Power_model.leakage_per_unit_width
  in
  fun ~net ~budget ->
    String.concat ""
      [
        prefix;
        Rip_net.Net.canonical_digest net;
        "|";
        Printf.sprintf "%016Lx" (Int64.bits_of_float budget);
      ]

(* Callers hold the mutex for everything below. *)

let unlink t node =
  (match node.prev with
  | Some prev -> prev.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some next -> next.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  (match t.head with
  | Some head -> head.prev <- Some node
  | None -> t.tail <- Some node);
  t.head <- Some node

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some lru ->
      unlink t lru;
      Hashtbl.remove t.table lru.node_key;
      t.evictions <- t.evictions + 1

(* Verification happens on *read*: a hit whose stored digest disagrees
   with the digest recomputed from the stored value is treated as
   corruption, dropped from the cache (self-heal) and reported as a
   miss, so the caller re-solves and the bad bytes can never be served.
   [digest_of] runs under the mutex; it is a cheap MD5 of the rendered
   body, far below a solve. *)

let find_verified t k ~digest_of =
  Mutex.lock t.mutex;
  let result =
    match Hashtbl.find_opt t.table k with
    | Some node -> (
        let fresh = digest_of node.value in
        match node.digest with
        | Some stored when not (String.equal stored fresh) ->
            unlink t node;
            Hashtbl.remove t.table k;
            t.self_heals <- t.self_heals + 1;
            t.misses <- t.misses + 1;
            None
        | _ ->
            t.hits <- t.hits + 1;
            unlink t node;
            push_front t node;
            Some node.value)
    | None ->
        t.misses <- t.misses + 1;
        None
  in
  Mutex.unlock t.mutex;
  result

let find t k = find_verified t k ~digest_of:(fun _ -> "")

let add_digested ?(replay = false) t k value digest =
  if t.cache_capacity > 0 then begin
    Mutex.lock t.mutex;
    (match Hashtbl.find_opt t.table k with
    | Some node ->
        node.value <- value;
        node.digest <- digest;
        unlink t node;
        push_front t node
    | None ->
        if Hashtbl.length t.table >= t.cache_capacity then evict_lru t;
        let node = { node_key = k; value; digest; prev = None; next = None } in
        Hashtbl.replace t.table k node;
        push_front t node);
    if replay then t.replayed <- t.replayed + 1;
    Mutex.unlock t.mutex
  end

let add t k value = add_digested t k value None

let add_verified t k value ~digest = add_digested t k value (Some digest)

let add_replayed t k value ~digest =
  add_digested ~replay:true t k value (Some digest)

(* Most recent first; [digest_of] runs under the mutex, as in
   [find_verified]. *)
let fold_verified t ~digest_of f init =
  Mutex.lock t.mutex;
  let rec walk acc = function
    | None -> acc
    | Some node ->
        let acc =
          match node.digest with
          | Some stored when String.equal stored (digest_of node.value) ->
              f node.node_key node.value ~digest:stored acc
          | Some _ | None -> acc
        in
        walk acc node.next
  in
  let result = walk init t.head in
  Mutex.unlock t.mutex;
  result

(* Test/fault hook: flip the stored digest of [k] (when present and
   digest-carrying) so the next verified read detects corruption. *)
let corrupt t k =
  Mutex.lock t.mutex;
  let did =
    match Hashtbl.find_opt t.table k with
    | Some ({ digest = Some d; _ } as node) ->
        node.digest <- Some (d ^ "!corrupt");
        true
    | Some { digest = None; _ } | None -> false
  in
  Mutex.unlock t.mutex;
  did

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  self_heals : int;
  replayed : int;
  size : int;
  capacity : int;
}

let stats t =
  Mutex.lock t.mutex;
  let snapshot =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      self_heals = t.self_heals;
      replayed = t.replayed;
      size = Hashtbl.length t.table;
      capacity = t.cache_capacity;
    }
  in
  Mutex.unlock t.mutex;
  snapshot
