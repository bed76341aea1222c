(* Phase 1 of the interprocedural analysis (DESIGN §7a): one walk per
   compilation unit producing, for every function-like binding, the
   facts phase 2 ([Iproc]) consumes — which non-local mutable roots the
   function reads or writes (and whether a lock was held at the access
   site), which statically-named functions it calls (with the lock
   state and the locality class of every argument), and where it spawns
   threads or domains.

   Locality is tracked the way the intraprocedural guarded-mutation
   rule pioneered, with two deliberate differences:

   - parameters are not assumed local: each access or call argument
     records *which* parameter it roots in ([Param i]), and phase 2
     decides locality per call context;
   - anonymous closures handed to unknown higher-order functions are
     walked inline with the surrounding lock state, but their own
     parameters stay shared — [Array.iter (fun shard -> ...)] over a
     shared array feeds shared elements, which the old rule's
     "case-pattern variables are local" approximation missed.

   Let-bound values stay thread-local (an alias extracted from a shared
   structure is invisible, as before), and let-bound *functions* become
   separate summaries whose bodies are analysed under their callers'
   lock state rather than their definition site's. *)

open Typedtree
module S = Set.Make (String)

type arg_class =
  | Local  (* rooted in a let-bound value of the caller *)
  | Param of int  (* rooted in the caller's i-th parameter *)
  | Opaque  (* free variable, global, or unrenderable: assume shared *)

type access = {
  acc_what : string;  (* "mutable field t.count" / "ref total" / "<expr>" *)
  acc_kind : [ `Read | `Write ];
  acc_class : arg_class;  (* never [Local]: local accesses are dropped *)
  acc_locked : bool;  (* some mutex provably held at the access site *)
  acc_loc : Location.t;
}

type call = {
  call_name : string;  (* canonical: "take", "Ring.lookup", "Unix.read" *)
  call_args : arg_class list;  (* value arguments, in application order *)
  call_locked : bool;
  call_loc : Location.t;
}

type fn = {
  fn_unit : string;  (* unprefixed unit name, "Router" *)
  fn_sub : string;  (* "poll_loop", "Pool.checkout", "worker.take" *)
  fn_params : int;  (* number of peeled value parameters *)
  mutable fn_accesses : access list;
  mutable fn_calls : call list;
}

type spawn = {
  sp_caller : fn;  (* summary whose body contains the spawn site *)
  sp_target : [ `Named of string | `Closure of fn ];
  sp_loc : Location.t;
}

type t = { fns : fn list; spawns : spawn list }

(* --- Path naming (canonical, library-relative) ---------------------------- *)

let strip_component c =
  (* "Rip_router__Ring" -> "Ring", "Stdlib__Mutex" -> "Mutex" *)
  let n = String.length c in
  let rec last_sep i =
    if i < 0 then None
    else if c.[i] = '_' && c.[i + 1] = '_' then Some i
    else last_sep (i - 1)
  in
  match last_sep (n - 2) with
  | Some i when i + 2 < n -> String.sub c (i + 2) (n - i - 2)
  | _ -> c

let canonical ~library path =
  let alias = String.capitalize_ascii library in
  let parts =
    String.split_on_char '.' (Path.name path) |> List.map strip_component
  in
  let parts =
    match parts with
    | hd :: (_ :: _ as tl) when hd = alias || hd = "Stdlib" -> tl
    | _ -> parts
  in
  String.concat "." parts

let rec render_path e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (Path.last p)
  | Texp_field (b, _, ld) ->
      Option.map (fun s -> s ^ "." ^ ld.Types.lbl_name) (render_path b)
  | _ -> None

let base_of path =
  match String.index_opt path '.' with
  | Some i -> String.sub path 0 i
  | None -> path

let pat_names pat =
  List.fold_left
    (fun acc id -> S.add (Ident.name id) acc)
    S.empty (pat_bound_idents pat)

let spawners = [ "Domain.spawn"; "Thread.create" ]

(* --- The walk -------------------------------------------------------------- *)

let of_structure ~library ~unit_name str =
  let fns = ref [] in
  let spawns = ref [] in
  let new_fn sub params =
    let f =
      {
        fn_unit = unit_name;
        fn_sub = sub;
        fn_params = params;
        fn_accesses = [];
        fn_calls = [];
      }
    in
    fns := f :: !fns;
    f
  in
  let canon p = canonical ~library p in
  let head_name e =
    match e.exp_desc with Texp_ident (p, _, _) -> Some (canon p) | _ -> None
  in
  (* Peel the Texp_function chain off a binding, collecting one entry
     per value parameter: [Some name] for a simple variable pattern,
     [None] for unit/wildcard/destructuring patterns (still a position,
     but unnameable — accesses through its components read as free
     variables, i.e. shared, which is the conservative direction). *)
  let rec peel_params acc e =
    match e.exp_desc with
    | Texp_function { cases = [ c ]; _ } -> (
        match c.c_guard with
        | Some _ -> (List.rev acc, e)
        | None ->
            let name =
              match c.c_lhs.pat_desc with
              | Tpat_var (id, _) -> Some (Ident.name id)
              | Tpat_alias (_, id, _) -> Some (Ident.name id)
              | _ -> None
            in
            peel_params (name :: acc) c.c_rhs)
    | Texp_function _ ->
        (* [function | A -> ... | B -> ...]: one anonymous scrutinee
           parameter; the cases are walked as the body. *)
        (List.rev (None :: acc), e)
    | _ -> (List.rev acc, e)
  in
  let param_index params =
    List.mapi (fun i n -> (i, n)) params
    |> List.filter_map (fun (i, n) -> Option.map (fun n -> (n, i)) n)
  in
  let lock_op e =
    match e.exp_desc with
    | Texp_apply (f, [ (_, Some m) ]) -> (
        match head_name f with
        | Some "Mutex.lock" ->
            Some (`Lock, Option.value (render_path m) ~default:"?")
        | Some "Mutex.unlock" ->
            Some (`Unlock, Option.value (render_path m) ~default:"?")
        | _ -> None)
    | _ -> None
  in
  let classify params bound e =
    match render_path e with
    | Some p -> (
        let b = base_of p in
        if S.mem b bound then (Local, p)
        else
          match List.assoc_opt b params with
          | Some i -> (Param i, p)
          | None -> (Opaque, p))
    | None -> (
        match e.exp_desc with
        | Texp_constant _ | Texp_construct (_, _, []) -> (Local, "<expr>")
        | _ -> (Opaque, "<expr>"))
  in
  let record_access fn params bound held kind base_expr what loc =
    let cls, path = classify params bound base_expr in
    match cls with
    | Local -> ()
    | cls ->
        fn.fn_accesses <-
          {
            acc_what = what path;
            acc_kind = kind;
            acc_class = cls;
            acc_locked = not (S.is_empty held);
            acc_loc = loc;
          }
          :: fn.fn_accesses
  in
  let record_call fn name args locked loc =
    fn.fn_calls <-
      {
        call_name = name;
        call_args = args;
        call_locked = locked;
        call_loc = loc;
      }
      :: fn.fn_calls
  in
  (* [walk fn params bound held e] accumulates facts about [e] into
     [fn].  [params] maps parameter names to indices; [bound] is the
     set of let/case-bound (thread-local) names; [held] the set of
     mutex keys provably held. *)
  let rec walk fn params bound held e =
    let locked = not (S.is_empty held) in
    match e.exp_desc with
    | Texp_constant _ -> ()
    | Texp_ident (p, _, _) ->
        (* A bare reference to a statically-named value: record an
           argument-less edge so a function handed to a higher-order
           iterator is still analysed (all parameters shared). *)
        let b = Path.last p in
        if not (S.mem b bound || List.mem_assoc b params) then
          record_call fn (canon p) [] locked e.exp_loc
    | Texp_sequence (a, b) -> (
        match lock_op a with
        | Some (`Lock, key) -> walk fn params bound (S.add key held) b
        | Some (`Unlock, key) -> walk fn params bound (S.remove key held) b
        | None ->
            walk fn params bound held a;
            walk fn params bound held b)
    | Texp_let (_, vbs, body) ->
        let is_fn vb =
          match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
          | Tpat_var _, Texp_function _ -> true
          | _ -> false
        in
        (* Function bindings stay *out* of the thread-local set: a bare
           reference to [loop] (say, as a Fun.protect thunk) must
           resolve as a call edge, not read as a local value. *)
        let bound' =
          List.fold_left
            (fun acc vb ->
              if is_fn vb then acc else S.union acc (pat_names vb.vb_pat))
            bound vbs
        in
        List.iter
          (fun vb ->
            match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
            | Tpat_var (id, _), Texp_function _ ->
                (* A let-bound helper becomes its own summary: its body
                   is analysed under the *callers'* lock state, and its
                   captured locals stay thread-local. *)
                let name = Ident.name id in
                let ps, body_e = peel_params [] vb.vb_expr in
                let nested =
                  new_fn (fn.fn_sub ^ "." ^ name) (List.length ps)
                in
                walk_body nested (param_index ps) bound body_e
            | _ -> walk fn params bound' held vb.vb_expr)
          vbs;
        walk fn params bound' held body
    | Texp_function { cases; _ } ->
        (* An anonymous closure handed to an unknown higher-order
           function: assume it runs at this call site (same thread,
           same locks), but its parameters carry whatever the iterator
           feeds it — shared, not local. *)
        List.iter
          (fun c ->
            Option.iter (walk fn params bound held) c.c_guard;
            walk fn params bound held c.c_rhs)
          cases
    | Texp_setfield (b, _, ld, v) ->
        record_access fn params bound held `Write b
          (fun p -> Printf.sprintf "mutable field %s.%s" p ld.Types.lbl_name)
          e.exp_loc;
        walk fn params bound held b;
        walk fn params bound held v
    | Texp_field (b, _, ld) ->
        if ld.Types.lbl_mut = Asttypes.Mutable then
          record_access fn params bound held `Read b
            (fun p -> Printf.sprintf "mutable field %s.%s" p ld.Types.lbl_name)
            e.exp_loc;
        walk fn params bound held b
    | Texp_apply (f, args) -> (
        match head_name f with
        | Some name when List.mem name spawners -> (
            (match
               List.find_opt
                 (fun (lbl, arg) -> lbl = Asttypes.Nolabel && arg <> None)
                 args
             with
            | Some (_, Some a) -> spawn_arg fn params bound held a e.exp_loc
            | _ -> ());
            (* The remaining arguments (the value passed to the new
               thread) are evaluated here, on this thread. *)
            List.iteri
              (fun i (_, arg) ->
                if i > 0 then
                  Option.iter (walk fn params bound held) arg)
              args)
        | Some "Mutex.protect" -> (
            match args with
            | (_, Some m) :: rest ->
                let key = Option.value (render_path m) ~default:"?" in
                let held' = S.add key held in
                List.iter
                  (fun (_, arg) ->
                    Option.iter (walk fn params bound held') arg)
                  rest
            | _ ->
                List.iter
                  (fun (_, arg) -> Option.iter (walk fn params bound held) arg)
                  args)
        | Some "!" -> (
            match args with
            | [ (_, Some r) ] ->
                record_access fn params bound held `Read r
                  (fun p -> Printf.sprintf "ref %s" p)
                  e.exp_loc
            | _ ->
                List.iter
                  (fun (_, arg) -> Option.iter (walk fn params bound held) arg)
                  args)
        | Some (":=" | "incr" | "decr") -> (
            match args with
            | (_, Some r) :: rest ->
                record_access fn params bound held `Write r
                  (fun p -> Printf.sprintf "ref %s" p)
                  e.exp_loc;
                List.iter
                  (fun (_, arg) -> Option.iter (walk fn params bound held) arg)
                  rest
            | _ -> ())
        | Some name ->
            let arg_classes =
              List.filter_map
                (fun (_, arg) ->
                  Option.map (fun a -> fst (classify params bound a)) arg)
                args
            in
            record_call fn name arg_classes locked e.exp_loc;
            List.iter
              (fun (_, arg) -> Option.iter (walk fn params bound held) arg)
              args
        | None ->
            (* Applying a local closure value ([task ()], [reader ()]):
               unresolvable, so only the arguments are inspected. *)
            walk fn params bound held f;
            List.iter
              (fun (_, arg) -> Option.iter (walk fn params bound held) arg)
              args)
    | Texp_match (scrut, cases, _) ->
        walk fn params bound held scrut;
        List.iter
          (fun c ->
            let bound' = S.union bound (pat_names c.c_lhs) in
            Option.iter (walk fn params bound' held) c.c_guard;
            walk fn params bound' held c.c_rhs)
          cases
    | Texp_try (body, cases) ->
        walk fn params bound held body;
        List.iter
          (fun c ->
            let bound' = S.union bound (pat_names c.c_lhs) in
            Option.iter (walk fn params bound' held) c.c_guard;
            walk fn params bound' held c.c_rhs)
          cases
    | Texp_ifthenelse (c, t, f) ->
        walk fn params bound held c;
        walk fn params bound held t;
        Option.iter (walk fn params bound held) f
    | Texp_while (c, b) ->
        walk fn params bound held c;
        walk fn params bound held b
    | Texp_for (id, _, lo, hi, _, body) ->
        walk fn params bound held lo;
        walk fn params bound held hi;
        walk fn params (S.add (Ident.name id) bound) held body
    | _ ->
        let sub =
          {
            Tast_iterator.default_iterator with
            expr = (fun _ child -> walk fn params bound held child);
          }
        in
        Tast_iterator.default_iterator.expr sub e
  and walk_body fn params bound e =
    (* A function body always starts lock-free; locks held by callers
       reach it through the call edge's [call_locked] flag. *)
    match e.exp_desc with
    | Texp_function { cases; _ } ->
        List.iter
          (fun c ->
            let bound' = S.union bound (pat_names c.c_lhs) in
            Option.iter (walk fn params bound' S.empty) c.c_guard;
            walk fn params bound' S.empty c.c_rhs)
          cases
    | _ -> walk fn params bound S.empty e
  and spawn_arg fn params bound held a loc =
    match a.exp_desc with
    | Texp_ident (p, _, _) ->
        spawns := { sp_caller = fn; sp_target = `Named (canon p); sp_loc = loc }
          :: !spawns
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        (* Partial application: the target runs with *all* parameters
           shared, so the pre-supplied arguments need no classes; they
           are still evaluated on the spawning thread. *)
        spawns := { sp_caller = fn; sp_target = `Named (canon p); sp_loc = loc }
          :: !spawns;
        List.iter
          (fun (_, arg) -> Option.iter (walk fn params bound held) arg)
          args
    | Texp_function _ ->
        (* A literal closure: a fresh summary walked with no locals —
           everything it captures crosses the thread boundary. *)
        let line = loc.Location.loc_start.Lexing.pos_lnum in
        let closure =
          new_fn (Printf.sprintf "%s.<spawn:%d>" fn.fn_sub line) 0
        in
        let ps, body_e = peel_params [] a in
        ignore ps;
        walk_body closure [] S.empty body_e;
        spawns :=
          { sp_caller = fn; sp_target = `Closure closure; sp_loc = loc }
          :: !spawns
    | _ -> walk fn params bound held a
  in
  (* Top-level structure: register one summary per value binding,
     descending into submodules with a qualified [fn_sub]. *)
  let rec do_structure prefix s =
    List.iter (do_item prefix) s.str_items
  and do_item prefix item =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) ->
                let sub = prefix ^ Ident.name id in
                let ps, body_e = peel_params [] vb.vb_expr in
                let f = new_fn sub (List.length ps) in
                walk_body f (param_index ps) S.empty body_e
            | _ ->
                let f = new_fn (prefix ^ "<init>") 0 in
                walk_body f [] S.empty vb.vb_expr)
          vbs
    | Tstr_eval (e, _) ->
        let f = new_fn (prefix ^ "<init>") 0 in
        walk_body f [] S.empty e
    | Tstr_module mb -> (
        match (mb.mb_id, mb.mb_expr.mod_desc) with
        | Some id, Tmod_structure s ->
            do_structure (prefix ^ Ident.name id ^ ".") s
        | Some id, Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _)
          ->
            do_structure (prefix ^ Ident.name id ^ ".") s
        | _ -> ())
    | _ -> ()
  in
  do_structure "" str;
  { fns = List.rev !fns; spawns = List.rev !spawns }
