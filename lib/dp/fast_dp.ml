(* The O(bn^2)-style candidate-pruning backend of the power DP.

   Same state space and transition semantics as [Power_dp]'s reference
   backend (Lillis/Cheng/Lin labels bucketed by quantised total width),
   with these changes, which remove the pseudo-polynomial inner-loop cost:

   - A backward pass first computes, for every (site, width) state, the
     minimum stage-delay sum [minF] from that state to the receiver over
     the exact transition window the forward DP scans.  A label with
     [delay + minF > budget (+ fuzz)] can never be an ancestor of any
     receiver label, so the forward pass drops it before it is stored —
     the Li/Shi-style redundancy predicate, valid here because Eq. (1)
     stage delays are strictly positive and additive along the chain.
     Because source frontiers are sorted with strictly decreasing delay,
     the surviving labels of each source form a suffix: the scan walks
     in from the min-delay end and stops at the first rejection, so
     pruned labels are never even touched.

   - Given a width bound (any known answer's total width), the same
     backward pass also computes [minW], the least width a completion
     from each state must still add.  A label with [width + minW] over
     the bound cannot lead to an answer within it, so the forward pass
     drops it too.  Source frontiers are width-ascending and the walk
     starts at their widest label, so the over-bound labels are the
     first ones walked and are skipped before any bucket work.

   - Given a price too (a Lagrangian multiplier on delay), the backward
     pass also computes [hl], the least [width + price * delay] a
     completion must still add, and the forward pass skips every label
     whose cheapest priced completion cannot finish within both the
     bound and the budget.

   - Labels live in one preallocated struct-of-arrays arena (flat
     [float array]/[int array] columns) instead of per-label records and
     list cells; per-state bucket winners accumulate in a stamped
     open-addressing table (O(1) per admitted candidate, no clearing
     between columns), replacing the reference backend's per-state
     Hashtbl + sort.

   Exactness: the admission test [l.delay +. stage <= budget] and the
   bucket/Pareto tie rules are byte-for-byte those of the reference
   backend, and the [minF] predicate only removes labels whose whole
   descendant tree provably never reaches the receiver frontier — so the
   receiver frontier, and with it the returned placements, are
   bit-identical to the reference backend's.  A width bound at or above
   the optimum keeps every frontier a width-prefix of the unbounded one,
   so the answer is unchanged there too, and a price only drops labels
   that cannot finish within the bound, which never decide the answer
   (see DESIGN.md for the three arguments, and their one caveat about a
   binding [frontier_cap]). *)

module Arena = struct
  (* One growable struct-of-arrays label store plus the bucket table of
     a solve.  A single solve owns the arena for its whole duration
     (solves on the same arena never overlap); reuse across solves keeps
     steady-state allocation at zero once the high-water mark is hit. *)
  type t = {
    (* per-label columns, indexed by global label id *)
    mutable delay : float array;
    mutable wu : int array;  (* total width, quantised to milli-u *)
    mutable pred : int array;  (* predecessor label id; -1 for the root *)
    mutable owner : int array;  (* state id = site * stride + width index *)
    mutable used : int;
    (* stamped open-addressing bucket table, keyed by quantised width.
       A stamp per slot marks which column last wrote it, so starting a
       fresh column is one integer increment — no clearing.  Capacity is
       a power of two and the load factor stays below 1/2. *)
    mutable h_key : int array;
    mutable h_delay : float array;
    mutable h_pred : int array;
    mutable h_stamp : int array;
    mutable h_live : int;  (* distinct keys this column *)
    mutable stamp : int;
    mutable keys : int array;  (* insertion log of this column's keys *)
    (* per-state tables *)
    mutable start : int array;
    mutable len : int array;
    mutable minf : float array;
    (* least quantised width any receiver-reaching completion from the
       state must still add; [max_int] when none can *)
    mutable minw : int array;
    (* least [width still added + price * delay still added] over the
       same completions as [minw]; infinity when none can (or unpriced) *)
    mutable hl : float array;
    (* least frontier delay per site (over all width states); infinity
       while the site has no labels.  A one-compare skip for sources
       that cannot contribute to the current column. *)
    mutable dsite : float array;
  }

  let create () =
    {
      delay = [||]; wu = [||]; pred = [||]; owner = [||]; used = 0;
      h_key = [||]; h_delay = [||]; h_pred = [||]; h_stamp = [||];
      h_live = 0; stamp = 0; keys = [||];
      start = [||]; len = [||]; minf = [||]; minw = [||]; hl = [||];
      dsite = [||];
    }

  let capacity t = Array.length t.delay

  let grow_float src n =
    let dst = Array.make n 0.0 in
    Array.blit src 0 dst 0 (Array.length src);
    dst

  let grow_int src n =
    let dst = Array.make n 0 in
    Array.blit src 0 dst 0 (Array.length src);
    dst

  (* Room for [n] more labels.  Amortised doubling: the arena never
     shrinks, so a reused arena stops allocating once warm. *)
  let ensure_labels t n =
    let need = t.used + n in
    if need > Array.length t.delay then begin
      let cap = Stdlib.max 1024 (Stdlib.max need (2 * Array.length t.delay)) in
      t.delay <- grow_float t.delay cap;
      t.wu <- grow_int t.wu cap;
      t.pred <- grow_int t.pred cap;
      t.owner <- grow_int t.owner cap
    end

  let reset t ~states ~sites =
    t.used <- 0;
    if states > Array.length t.start then begin
      t.start <- Array.make states 0;
      t.len <- Array.make states 0;
      t.minf <- Array.make states infinity;
      t.minw <- Array.make states max_int;
      t.hl <- Array.make states infinity
    end
    else begin
      Array.fill t.len 0 states 0;
      Array.fill t.minf 0 states infinity;
      Array.fill t.minw 0 states max_int;
      Array.fill t.hl 0 states infinity
    end;
    if sites > Array.length t.dsite then t.dsite <- Array.make sites infinity
    else Array.fill t.dsite 0 sites infinity

  (* Knuth multiplicative hash; keys are small non-negative widths, the
     constant spreads them over the high bits before masking.  Fully
     deterministic — no seeding — as the determinism lint demands. *)
  let hash_wu wu = wu * 2654435761

  let begin_column t =
    t.stamp <- t.stamp + 1;
    t.h_live <- 0;
    if Array.length t.h_key = 0 then begin
      t.h_key <- Array.make 1024 0;
      t.h_delay <- Array.make 1024 0.0;
      t.h_pred <- Array.make 1024 0;
      t.h_stamp <- Array.make 1024 0;
      t.keys <- Array.make 512 0
    end

  let grow_table t =
    let old_cap = Array.length t.h_key in
    let cap = 2 * old_cap in
    let key = Array.make cap 0 in
    let delay = Array.make cap 0.0 in
    let pred = Array.make cap 0 in
    let stamp = Array.make cap 0 in
    let mask = cap - 1 in
    for i = 0 to old_cap - 1 do
      (* only the current column's entries survive the rehash; stale
         stamps are dead by construction *)
      if t.h_stamp.(i) = t.stamp then begin
        let j = ref (hash_wu t.h_key.(i) land mask) in
        while stamp.(!j) = t.stamp do j := (!j + 1) land mask done;
        stamp.(!j) <- t.stamp;
        key.(!j) <- t.h_key.(i);
        delay.(!j) <- t.h_delay.(i);
        pred.(!j) <- t.h_pred.(i)
      end
    done;
    t.h_key <- key;
    t.h_delay <- delay;
    t.h_pred <- pred;
    t.h_stamp <- stamp;
    if Array.length t.keys < cap / 2 then t.keys <- grow_int t.keys (cap / 2)

  (* Slot of a key known to be present in the current column. *)
  let find t ~wu =
    let mask = Array.length t.h_key - 1 in
    let i = ref (hash_wu wu land mask) in
    while not (t.h_stamp.(!i) = t.stamp && t.h_key.(!i) = wu) do
      i := (!i + 1) land mask
    done;
    !i
end

type stats = {
  sites : int;
  transitions : int;
  labels : int;
}

(* Quantisation shared with the reference backend. *)
let units_per_u = 1000.0
let width_units w = int_of_float (Float.round (w *. units_per_u))

(* In-place ascending shell sort of [keys.(0 .. n-1)] (Knuth gap
   sequence).  Columns collect tens of distinct buckets, and a range
   sort avoids both allocation and [Array.sort]'s closure comparisons
   in the freeze path. *)
let[@lint.hot] sort_keys keys n =
  let gap = ref 1 in
  while !gap < n / 3 do
    gap := (3 * !gap) + 1
  done;
  while !gap >= 1 do
    for i = !gap to n - 1 do
      let v = keys.(i) in
      let j = ref i in
      while !j >= !gap && keys.(!j - !gap) > v do
        keys.(!j) <- keys.(!j - !gap);
        j := !j - !gap
      done;
      keys.(!j) <- v
    done;
    gap := !gap / 3
  done

let[@lint.hot] solve ?frontier_cap ?width_bound ?price ?(cancel = ignore)
    ?on_column ?arena chain ~library ~budget =
  (match frontier_cap with
  | Some cap when cap < 2 ->
      invalid_arg "Fast_dp.solve: frontier_cap must be at least 2"
  | Some _ | None -> ());
  (match price with
  | Some p when not (Float.is_finite p && p > 0.0) ->
      invalid_arg "Fast_dp.solve: price must be finite and positive"
  | Some _ | None -> ());
  let arena = match arena with Some a -> a | None -> Arena.create () in
  let n_sites = Chain.site_count chain in
  let last = n_sites - 1 in
  let lib = Repeater_library.to_array library in
  let stride = Stdlib.max 1 (Array.length lib) in
  let driver_widths = [| chain.Chain.driver_width |] in
  let receiver_widths = [| chain.Chain.receiver_width |] in
  let widths_at site =
    if site = 0 then driver_widths
    else if site = last then receiver_widths
    else lib
  in
  let widest_driver =
    Float.max chain.Chain.driver_width (Repeater_library.max_width library)
  in
  (* The stage delay (chain.ml, Eq. (1)) factored for the scan loops:

       stage = ((k + (rs/w_from) * q) + wire_r*gate_c) + wire_elmore
       q     = (C_t - C_s) + gate_c

     with gate_c fixed per target column and the wire terms fixed per
     (source, target) pair — so the per-width cost is one multiply and
     three adds.  The grouping above is exactly [Chain.stage_delay]'s
     left-to-right association, and [rs /. w] is a deterministic float
     op, so every factored stage is bit-identical to the direct call —
     which the cross-backend fingerprint equality relies on. *)
  let cum_r = chain.Chain.cum_r in
  let cum_c = chain.Chain.cum_c in
  let cum_p = chain.Chain.cum_p in
  let rs = chain.Chain.repeater.Rip_tech.Repeater_model.rs in
  let co = chain.Chain.repeater.Rip_tech.Repeater_model.co in
  let k_intr = Rip_tech.Repeater_model.intrinsic_delay chain.Chain.repeater in
  let inv_lib = Array.map (fun w -> rs /. w) lib in
  let inv_driver = [| rs /. chain.Chain.driver_width |] in
  let inv_receiver = [| rs /. chain.Chain.receiver_width |] in
  let invs_at site =
    if site = 0 then inv_driver
    else if site = last then inv_receiver
    else inv_lib
  in
  let inv_widest = rs /. widest_driver in
  let n_states = n_sites * stride in
  Arena.reset arena ~states:n_states ~sites:n_sites;
  let minf = arena.Arena.minf in
  let minw = arena.Arena.minw in
  let dsite = arena.Arena.dsite in
  let bound = match width_bound with Some b -> b | None -> max_int in
  (* The price is a Lagrangian multiplier on delay, in label units per
     second; it only sharpens a width bound, so without one it is unused. *)
  let hl = arena.Arena.hl in
  let priced, price =
    match (width_bound, price) with
    | Some _, Some p -> (true, p)
    | (Some _ | None), _ -> (false, 0.0)
  in
  (* Relative slack absorbing the fold-order rounding gap between the
     backward (right-folded) and forward (left-folded) delay sums: the
     true gap is ~n*eps relative, so 1e-9 is astronomically conservative
     — and a too-large fuzz only weakens pruning, never correctness. *)
  let budget_fuzz = budget +. (1e-9 *. Float.abs budget) in
  (* --- Backward pass: minF(state) = least stage-delay sum to the
     receiver over the transitions the forward DP can take, and minW(state)
     = least width a completion must still add, over the transitions with
     [stage + minF(target) <= budget_fuzz] (no label can take any other:
     label delays are non-negative).  When priced, hl(state) = least
     [width still added + price * delay still added] over the same
     completions. ------------------------------------------------------- *)
  minf.((last * stride) + 0) <- 0.0;
  minw.((last * stride) + 0) <- 0;
  hl.((last * stride) + 0) <- 0.0;
  for t = last downto 1 do
    let t_widths = widths_at t in
    let t_interior = Chain.is_interior chain t in
    let rt = cum_r.(t) and ct = cum_c.(t) and pt = cum_p.(t) in
    for wj = 0 to Array.length t_widths - 1 do
      let mf_t = minf.((t * stride) + wj) in
      (* A state that cannot reach the receiver within the budget feeds
         only relaxations the forward pass rejects (stages are positive),
         so skipping it is exactly right, not an approximation.  Every
         state that passes has a finite minW: its minF transition is one
         the forward pass can take. *)
      if mf_t <= budget_fuzz then begin
        let added_t = if t_interior then width_units t_widths.(wj) else 0 in
        let mw_t = minw.((t * stride) + wj) + added_t in
        let hl_t = hl.((t * stride) + wj) +. float_of_int added_t in
        let gate_c = co *. t_widths.(wj) in
        (* Predecessor window: scan right to left, stop once even the
           thickest driver's stage plus the suffix below this target
           overshoots.  Spans only lengthen leftwards, so every farther
           predecessor fails too; and a relaxation with
           [stage + mf_t > budget_fuzz] can only feed minF values that
           the forward admission rejects outright (labels have
           non-negative delay), so cutting them never changes the DP's
           output — it only shrinks the scan. *)
        let s = ref (t - 1) in
        let scanning = ref true in
        while !scanning && !s >= 0 do
          let ss = !s in
          let wire_r = rt -. cum_r.(ss) in
          let q = (ct -. cum_c.(ss)) +. gate_c in
          let t2 = wire_r *. gate_c in
          let elm = (wire_r *. ct) -. (pt -. cum_p.(ss)) in
          if
            ((k_intr +. (inv_widest *. q)) +. t2) +. elm +. mf_t > budget_fuzz
          then scanning := false
          else begin
            let s_invs = invs_at ss in
            (* unsafe: [idx] < states by construction, [wi] < length *)
            for wi = 0 to Array.length s_invs - 1 do
              let stage =
                ((k_intr +. (Array.unsafe_get s_invs wi *. q)) +. t2) +. elm
              in
              let v = stage +. mf_t in
              let idx = (ss * stride) + wi in
              if v < Array.unsafe_get minf idx then
                Array.unsafe_set minf idx v;
              if v <= budget_fuzz then begin
                if mw_t < Array.unsafe_get minw idx then
                  Array.unsafe_set minw idx mw_t;
                if priced then begin
                  let h = hl_t +. (price *. stage) in
                  if h < Array.unsafe_get hl idx then
                    Array.unsafe_set hl idx h
                end
              end
            done
          end;
          decr s
        done
      end
    done
  done;
  (* --- Forward pass --------------------------------------------------- *)
  let transitions = ref 0 in
  let labels = ref 0 in
  (* Root label: the driver state's frontier. *)
  Arena.ensure_labels arena 1;
  (* Arena columns are mutated freely here and below: the arena is owned
     by this solve alone for its whole duration (see [Arena]), so the
     writes need no lock.  The domain-escape analysis agrees — no spawn
     in this library reaches [solve] — so no waiver is needed. *)
  arena.Arena.delay.(0) <- 0.0;
  arena.Arena.wu.(0) <- 0;
  arena.Arena.pred.(0) <- -1;
  arena.Arena.owner.(0) <- 0;
  arena.Arena.used <- 1;
  arena.Arena.start.(0) <- 0;
  arena.Arena.len.(0) <- 1;
  dsite.(0) <- 0.0;
  for site = 1 to last do
    (* Candidate-column cancellation poll, as in the reference backend. *)
    cancel ();
    let site_widths = widths_at site in
    let interior = Chain.is_interior chain site in
    let rt = cum_r.(site) and ct = cum_c.(site) and pt = cum_p.(site) in
    for wj = 0 to Array.length site_widths - 1 do
      let to_width = site_widths.(wj) in
      let added = if interior then width_units to_width else 0 in
      let mf_here = minf.((site * stride) + wj) in
      (* Width cap: a label here that is wider than [wcap] needs more
         than the bound to reach the receiver; negative when even the
         narrowest completion does.  A state with no completion at all
         ([max_int]) has minF over the budget, so the window break below
         skips it whatever its cap. *)
      let mw_here = minw.((site * stride) + wj) in
      let wcap = if mw_here > bound then -1 else bound - mw_here in
      (* Price limit: a label with [wu + price * d] above it has no
         completion within both the bound and the budget, since every
         completion adds at least [hl - price * (budget - d)] width.  The
         relative slack plays the role of [budget_fuzz]. *)
      let plim =
        if priced then
          let top = float_of_int bound +. (price *. budget) in
          top +. (1e-9 *. Float.abs top) -. hl.((site * stride) + wj)
        else infinity
      in
      let gate_c = co *. to_width in
      (* Label columns are only replaced by [ensure_labels], which runs
         at column freeze — never during this column's source scan — so
         they can be hoisted out of the pair loop. *)
      let lab_d = arena.Arena.delay in
      let lab_w = arena.Arena.wu in
      let starts = arena.Arena.start in
      let lens = arena.Arena.len in
      Arena.begin_column arena;
      let stamp = arena.Arena.stamp in
      let src = ref (site - 1) in
      let scanning = ref (wcap >= 0) in
      (* Source window with the same minF-tightened break as the backward
         pass: every label admitted here must satisfy
         [delay + stage + mf_here <= budget_fuzz] with delay >= 0 and
         stage minimised by the widest driver, so once that lower bound
         overshoots, no farther (longer-span) source can contribute — and
         a dead column (mf_here = infinity) skips its scan entirely. *)
      while !scanning && !src >= 0 do
        let s = !src in
        let wire_r = rt -. cum_r.(s) in
        let q = (ct -. cum_c.(s)) +. gate_c in
        let t2 = wire_r *. gate_c in
        let elm = (wire_r *. ct) -. (pt -. cum_p.(s)) in
        let stage_lb = ((k_intr +. (inv_widest *. q)) +. t2) +. elm in
        if stage_lb +. mf_here > budget_fuzz then scanning := false
        else if
          (* One-compare source skip: [dsite] lower-bounds every label
             delay at [s] and [stage_lb] every stage out of it, so a
             failing sum means the admission test rejects all of the
             source's labels — skipping them changes nothing but time. *)
          let lb = (dsite.(s) +. stage_lb) +. mf_here in
          lb > budget_fuzz || dsite.(s) +. stage_lb > budget
        then ()
        else begin
          let s_invs = invs_at s in
          for wi = 0 to Array.length s_invs - 1 do
            let idx = (s * stride) + wi in
            let flen = Array.unsafe_get lens idx in
            if flen > 0 then begin
              incr transitions;
              let stage =
                ((k_intr +. (Array.unsafe_get s_invs wi *. q)) +. t2) +. elm
              in
              (* Frontier delays strictly decrease with the index, so the
                 labels passing both the exact reference admission test
                 and the minF feasibility predicate form a suffix: walk
                 in from the min-delay end and stop at the first
                 rejection — only survivors plus one failed test are
                 ever touched.  Bucket widths are distinct within one
                 frontier, so the walk direction cannot affect ties.

                 The bucket update is the reference tie rule — a later
                 candidate replaces the incumbent only on a strictly
                 smaller delay — inlined here (no flambda, and this is
                 the hottest loop of the solver).  Unsafe accesses are
                 confined to indices valid by construction: [j] ranges
                 over one frozen frontier, probe indices are masked to
                 the table capacity. *)
              let fstart = Array.unsafe_get starts idx in
              let j = ref (fstart + flen - 1) in
              (* The width cap drops whole buckets (one width, one
                 state), so the bucket contents and tie order of every
                 width it keeps are untouched. *)
              while
                !j >= fstart && Array.unsafe_get lab_w !j + added > wcap
              do
                decr j
              done;
              let walking = ref true in
              while !walking && !j >= fstart do
                let d = Array.unsafe_get lab_d !j +. stage in
                if d <= budget && d +. mf_here <= budget_fuzz then begin
                  let wu = Array.unsafe_get lab_w !j + added in
                  (* The priced test skips rather than stops: [wu + price
                     * d] is not monotone along a frontier. *)
                  if (not priced) || float_of_int wu +. (price *. d) <= plim
                  then begin
                    if 2 * (arena.Arena.h_live + 1)
                       > Array.length arena.Arena.h_key
                    then Arena.grow_table arena;
                    let hk = arena.Arena.h_key
                    and hd = arena.Arena.h_delay
                    and hp = arena.Arena.h_pred
                    and hs = arena.Arena.h_stamp in
                    let mask = Array.length hk - 1 in
                    let i = ref (Arena.hash_wu wu land mask) in
                    while
                      Array.unsafe_get hs !i = stamp
                      && Array.unsafe_get hk !i <> wu
                    do
                      i := (!i + 1) land mask
                    done;
                    let i = !i in
                    if Array.unsafe_get hs i = stamp then begin
                      if d < Array.unsafe_get hd i then begin
                        Array.unsafe_set hd i d;
                        Array.unsafe_set hp i !j
                      end
                    end
                    else begin
                      Array.unsafe_set hs i stamp;
                      Array.unsafe_set hk i wu;
                      Array.unsafe_set hd i d;
                      Array.unsafe_set hp i !j;
                      arena.Arena.keys.(arena.Arena.h_live) <- wu;
                      arena.Arena.h_live <- arena.Arena.h_live + 1
                    end
                  end;
                  decr j
                end
                else walking := false
              done
            end
          done
        end;
        decr src
      done;
      (* Freeze: sort this column's bucket keys (ascending width), then
         Pareto prune straight into the arena — keep strictly decreasing
         delay, the reference freeze minus its per-state sort of labels. *)
      let collected = arena.Arena.h_live in
      let keys = arena.Arena.keys in
      sort_keys keys collected;
      Arena.ensure_labels arena collected;
      let base = arena.Arena.used in
      let kept = ref 0 in
      let best_delay = ref infinity in
      for i = 0 to collected - 1 do
        let slot = Arena.find arena ~wu:keys.(i) in
        let d = arena.Arena.h_delay.(slot) in
        if d < !best_delay then begin
          best_delay := d;
          let at = base + !kept in
          arena.Arena.delay.(at) <- d;
          arena.Arena.wu.(at) <- keys.(i);
          arena.Arena.pred.(at) <- arena.Arena.h_pred.(slot);
          arena.Arena.owner.(at) <- (site * stride) + wj;
          incr kept
        end
      done;
      (* Frontier cap: the reference backend's even index sampling.  The
         source index is always >= the destination index, so the in-place
         left-to-right copy never reads an overwritten slot. *)
      (match frontier_cap with
      | Some cap when !kept > cap ->
          for i = 0 to cap - 1 do
            let from = base + (i * (!kept - 1) / (cap - 1)) in
            let at = base + i in
            arena.Arena.delay.(at) <- arena.Arena.delay.(from);
            arena.Arena.wu.(at) <- arena.Arena.wu.(from);
            arena.Arena.pred.(at) <- arena.Arena.pred.(from);
            arena.Arena.owner.(at) <- arena.Arena.owner.(from)
          done;
          kept := cap
      | Some _ | None -> ());
      arena.Arena.start.((site * stride) + wj) <- base;
      arena.Arena.len.((site * stride) + wj) <- !kept;
      (* Delays strictly decrease along the frontier and the cap's even
         index sampling keeps the last label, so the frontier's least
         delay is its last entry. *)
      if !kept > 0 then begin
        let least = arena.Arena.delay.(base + !kept - 1) in
        if least < dsite.(site) then dsite.(site) <- least
      end;
      arena.Arena.used <- base + !kept;
      labels := !labels + !kept;
      match on_column with
      | None -> ()
      | Some f -> f ~site ~width_index:wj ~collected ~kept:!kept
    done
  done;
  (* --- Backtrack ------------------------------------------------------- *)
  if arena.Arena.len.(last * stride) = 0 then None
  else begin
    (* The frontier is width-ascending, so its first label is min width. *)
    let placements = ref [] in
    let idx = ref (arena.Arena.start.(last * stride)) in
    while !idx >= 0 do
      let o = arena.Arena.owner.(!idx) in
      let site = o / stride in
      (* alloc-in-hot-loop waiver: the backtrack runs once per solve and
         allocates one pair+cons per placement — O(sites), not O(sites ×
         widths × frontier) like the scan loops the rule is guarding. *)
      (if Chain.is_interior chain site then
         placements :=
           (chain.Chain.positions.(site), (widths_at site).(o mod stride))
           :: !placements)
      [@lint.allow "alloc-in-hot-loop"];
      idx := arena.Arena.pred.(!idx)
    done;
    Some
      ( !placements,
        { sites = n_sites; transitions = !transitions; labels = !labels } )
  end
