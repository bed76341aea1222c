(** Phase 1 of the interprocedural analysis: per-function summaries of
    mutable-root accesses, statically-resolvable calls, and spawn sites,
    harvested in one walk per compilation unit. *)

type arg_class =
  | Local  (** rooted in a let/case-bound value of the caller *)
  | Param of int  (** rooted in the caller's i-th parameter *)
  | Opaque  (** free variable, global, or unrenderable: assume shared *)

type access = {
  acc_what : string;  (** "mutable field t.count", "ref total", "<expr>" *)
  acc_kind : [ `Read | `Write ];
  acc_class : arg_class;  (** never [Local]: local accesses are dropped *)
  acc_locked : bool;  (** some mutex provably held at the access site *)
  acc_loc : Location.t;
}

type call = {
  call_name : string;
      (** canonical, library-relative: "take", "Ring.lookup",
          "Unix.read" *)
  call_args : arg_class list;  (** value arguments, in application order *)
  call_locked : bool;
  call_loc : Location.t;
}

type fn = {
  fn_unit : string;  (** unprefixed unit name, "Router" *)
  fn_sub : string;  (** "poll_loop", "Pool.checkout", "worker.take" *)
  fn_params : int;
  mutable fn_accesses : access list;
  mutable fn_calls : call list;
}

type spawn = {
  sp_caller : fn;
  sp_target : [ `Named of string | `Closure of fn ];
  sp_loc : Location.t;
}

type t = { fns : fn list; spawns : spawn list }

val of_structure :
  library:string -> unit_name:string -> Typedtree.structure -> t
(** [of_structure ~library ~unit_name str] summarises every value
    binding of the unit (top level, submodules, and let-bound helper
    functions as separate entries).  [library] drives canonical call
    naming (the "Rip_router__Ring" prefixes are stripped so call names
    match across units of the same library). *)
