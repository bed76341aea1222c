(* Rule identifiers and the per-library rule sets.

   The library names here are the dune library names ([rip_dp], ...).
   The split encodes the repo's determinism contract:

   - the solver pipeline (core, dp, tree, net, numerics, elmore, refine,
     tech, workload) must be bit-reproducible, so it gets the
     determinism rules and the wall-clock ban;
   - engine and service are the only libraries allowed to read wall
     clocks (batch/queue telemetry), and the only ones that spawn, so
     they get the race-detector rule instead;
   - obs times spans and histograms, but only on the monotonic stub:
     it keeps the wall-clock ban alongside the race-detector rule;
   - net and service own the wire formats whose float rendering feeds
     the byte-identical cached-replay guarantee. *)

type rule_id =
  | No_poly_compare
  | No_hashtbl_order
  | No_wall_clock
  | Guarded_mutation
  | Float_format_precision
  | Domain_escape
  | Fd_leak
  | Blocking_under_lock
  | Alloc_in_hot_loop

let id = function
  | No_poly_compare -> "no-poly-compare"
  | No_hashtbl_order -> "no-hashtbl-order"
  | No_wall_clock -> "no-wall-clock"
  | Guarded_mutation -> "guarded-mutation"
  | Float_format_precision -> "float-format-precision"
  | Domain_escape -> "domain-escape"
  | Fd_leak -> "fd-leak"
  | Blocking_under_lock -> "blocking-under-lock"
  | Alloc_in_hot_loop -> "alloc-in-hot-loop"

let of_id = function
  | "no-poly-compare" -> Some No_poly_compare
  | "no-hashtbl-order" -> Some No_hashtbl_order
  | "no-wall-clock" -> Some No_wall_clock
  | "guarded-mutation" -> Some Guarded_mutation
  | "float-format-precision" -> Some Float_format_precision
  | "domain-escape" -> Some Domain_escape
  | "fd-leak" -> Some Fd_leak
  | "blocking-under-lock" -> Some Blocking_under_lock
  | "alloc-in-hot-loop" -> Some Alloc_in_hot_loop
  | _ -> None

let all =
  [
    No_poly_compare;
    No_hashtbl_order;
    No_wall_clock;
    Guarded_mutation;
    Float_format_precision;
    Domain_escape;
    Fd_leak;
    Blocking_under_lock;
    Alloc_in_hot_loop;
  ]

(* In the concurrent libraries the interprocedural [Domain_escape] pass
   supersedes the intraprocedural [Guarded_mutation]: it proves the same
   property (spawn-reachable mutable state is lock-guarded or
   thread-local) across call boundaries, so helpers whose callers hold
   the lock no longer need waivers, and closure parameters fed by
   unknown higher-order iterators are no longer assumed local.
   [Guarded_mutation] stays available under --rules and in [all]. *)
let rules_for_library = function
  | "rip_core" | "rip_elmore" | "rip_refine" | "rip_tech" | "rip_workload" ->
      [ No_poly_compare; No_wall_clock ]
  | "rip_dp" ->
      (* The fast DP backend mutates its flat label arenas in place;
         the escape rule rides along so any future attempt to share an
         arena across a spawn gets flagged, and the hot-loop rule
         protects the arena loops' allocation-free property behind the
         backend's measured speedup. *)
      [ No_poly_compare; No_hashtbl_order; No_wall_clock; Domain_escape;
        Alloc_in_hot_loop ]
  | "rip_tree" | "rip_numerics" ->
      [ No_poly_compare; No_hashtbl_order; No_wall_clock ]
  | "rip_net" ->
      [ No_poly_compare; No_hashtbl_order; No_wall_clock;
        Float_format_precision ]
  | "rip_engine" ->
      [ No_poly_compare; Domain_escape; Blocking_under_lock ]
  | "rip_obs" ->
      (* Observability must time on the monotonic stub
         ([Rip_numerics.Cpu_clock.monotonic_seconds], not in the banned
         set), so the wall-clock ban stays on: [Unix.gettimeofday] in
         lib/obs is still a finding.  Prometheus text and Chrome-trace
         JSON are scrape/tooling formats, never byte-compared the way
         cache keys are, so the float-format rule does not apply.  The
         hot-loop rule guards the lock-free counter/histogram paths the
         server touches per request. *)
      [ No_poly_compare; No_hashtbl_order; No_wall_clock; Domain_escape;
        Blocking_under_lock; Alloc_in_hot_loop ]
  | "rip_service" ->
      [ No_poly_compare; No_hashtbl_order; Domain_escape;
        Blocking_under_lock; Fd_leak; Float_format_precision ]
  | "rip_router" ->
      (* The router reads wall clocks only through poll timestamps taken
         with the monotonic stub, owns its per-shard client connections
         (listening and accepted sockets belong to the service
         library's front end), and shares per-shard state between the
         poller, the supervisor and connection threads. *)
      [ No_poly_compare; No_hashtbl_order; No_wall_clock; Domain_escape;
        Blocking_under_lock; Fd_leak ]
  | _ -> all

(* The float-format rule protects wire formats (cache keys, protocol
   frames, canonical net text), not human-readable reports.  Inside the
   two wire libraries it therefore applies only to the modules that
   render bytes a cache or client may compare; everywhere else (e.g.
   test fixtures linted with an explicit --rules) it applies to the
   whole unit. *)
let format_rule_applies ~library ~unit_name =
  match library with
  | "rip_net" -> List.mem unit_name [ "Net"; "Net_io" ]
  | "rip_service" -> List.mem unit_name [ "Protocol"; "Solve_cache" ]
  | _ -> true

let parse_rules s =
  String.split_on_char ',' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun r -> r <> "")
  |> List.map (fun r ->
         match of_id r with
         | Some rule -> rule
         | None -> invalid_arg (Printf.sprintf "unknown lint rule %S" r))
