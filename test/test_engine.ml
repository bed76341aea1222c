(* Tests for Rip_engine: the domain pool, the one-shot and handle maps,
   and the determinism contract of solve batches. *)

module Geometry = Rip_net.Geometry
module Solution = Rip_elmore.Solution
module Candidates = Rip_dp.Candidates
module Power_dp = Rip_dp.Power_dp
module Repeater_library = Rip_dp.Repeater_library
module Validate = Rip_core.Validate
module Rip = Rip_core.Rip
module Pool = Rip_engine.Pool
module Telemetry = Rip_engine.Telemetry
module Engine = Rip_engine.Engine
module Suite = Rip_workload.Suite

let qcheck = QCheck_alcotest.to_alcotest
let process = Helpers.process

(* --- Pool ----------------------------------------------------------------- *)

let test_pool_runs_every_task () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let n = 100 in
      let hits = Array.make n 0 in
      let mutex = Mutex.create () in
      let remaining = ref n in
      let done_ = Condition.create () in
      for i = 0 to n - 1 do
        Pool.submit pool (fun () ->
            Mutex.lock mutex;
            hits.(i) <- hits.(i) + 1;
            decr remaining;
            if !remaining = 0 then Condition.signal done_;
            Mutex.unlock mutex)
      done;
      Mutex.lock mutex;
      while !remaining > 0 do
        Condition.wait done_ mutex
      done;
      Mutex.unlock mutex;
      Alcotest.(check bool) "each task ran exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

let test_pool_submit_after_shutdown () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  match Pool.submit pool (fun () -> ()) with
  | () -> Alcotest.fail "submit after shutdown should raise"
  | exception Invalid_argument _ -> ()

let test_pool_size_floor () =
  Pool.with_pool ~jobs:0 (fun pool ->
      Alcotest.(check int) "floored at one worker" 1 (Pool.size pool))

(* --- One-shot maps ------------------------------------------------------- *)

let values results = Array.map fst results

let test_map_preserves_order () =
  let input = Array.init 257 (fun i -> i) in
  let doubled, _ = Engine.timed_map ~jobs:4 (fun i -> 2 * i) input in
  Alcotest.(check (array int)) "order preserved"
    (Array.map (fun i -> 2 * i) input)
    (values doubled)

let test_map_empty () =
  let results, telemetry = Engine.timed_map ~jobs:4 (fun i -> i) [||] in
  Alcotest.(check (array int)) "empty batch" [||] (values results);
  Alcotest.(check int) "no tasks" 0 telemetry.Telemetry.tasks

let test_map_propagates_first_failure () =
  let input = Array.init 16 (fun i -> i) in
  match
    Engine.timed_map ~jobs:4
      (fun i -> if i >= 3 then failwith (string_of_int i) else i)
      input
  with
  | _ -> Alcotest.fail "expected the exception to re-raise"
  | exception Failure msg ->
      (* first by submission order, not completion order *)
      Alcotest.(check string) "first failing element" "3" msg

let test_timed_map_telemetry () =
  let input = Array.init 20 (fun i -> i) in
  let results, telemetry = Engine.timed_map ~jobs:3 (fun i -> i + 1) input in
  Alcotest.(check (array int)) "values" (Array.map (fun i -> i + 1) input)
    (values results);
  Array.iter
    (fun (_, seconds) ->
      Alcotest.(check bool) "per-element time non-negative" true (seconds >= 0.0))
    results;
  Alcotest.(check int) "workers" 3 telemetry.Telemetry.workers;
  Alcotest.(check int) "tasks" 20 telemetry.Telemetry.tasks;
  Alcotest.(check bool) "wall covers the batch" true
    (telemetry.Telemetry.wall_seconds >= 0.0);
  Alcotest.(check bool) "utilization sane" true
    (telemetry.Telemetry.utilization >= 0.0)

let test_jobs_capped_at_batch_size () =
  (* Asking for more workers than tasks must not spawn idle domains. *)
  let input = Array.init 2 (fun i -> i) in
  let _, telemetry = Engine.timed_map ~jobs:64 (fun i -> i) input in
  Alcotest.(check int) "pool capped at batch size" 2
    telemetry.Telemetry.workers

let test_single_job_runs_inline () =
  (* jobs:1 (and a 1-element batch at any jobs) executes in the calling
     domain: same results, one reported worker, first failure semantics
     preserved. *)
  let caller = Domain.self () in
  let ran_on = ref None in
  let _, telemetry =
    Engine.timed_map ~jobs:1 (fun i -> ran_on := Some (Domain.self ()); i)
      (Array.init 5 (fun i -> i))
  in
  Alcotest.(check int) "one worker reported" 1 telemetry.Telemetry.workers;
  Alcotest.(check bool) "ran in the calling domain" true
    (!ran_on = Some caller);
  match
    Engine.timed_map ~jobs:1
      (fun i -> if i >= 3 then failwith (string_of_int i) else i)
      (Array.init 16 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected the exception to re-raise"
  | exception Failure msg ->
      Alcotest.(check string) "first failing element" "3" msg

let test_map_suite_groups_in_order () =
  let inputs = [ 1; 2; 3 ] in
  let grouped, telemetry =
    Engine.map_suite ~jobs:4
      ~prepare:(fun i -> 10 * i)
      ~targets:(fun ctx -> [ ctx; ctx + 1 ])
      ~cell:(fun ctx k -> ctx + k)
      inputs
  in
  Alcotest.(check (list (pair int (list int))))
    "contexts and cells in input order"
    [ (10, [ 20; 21 ]); (20, [ 40; 41 ]); (30, [ 60; 61 ]) ]
    grouped;
  Alcotest.(check int) "prep + cell tasks" 9 telemetry.Telemetry.tasks

(* --- Long-lived handles ---------------------------------------------------- *)

(* Every handle test runs on the inline runner (jobs 1, what a shard
   started with --shard-jobs 1 solves on) and on a real pool. *)
let with_handle ~jobs f =
  let handle = Engine.create_handle ~jobs () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown_handle handle)
    (fun () -> f handle)

let test_handle_reuse_across_batches () =
  List.iter
    (fun jobs ->
      with_handle ~jobs (fun handle ->
          (* Several batches on the same runner, no respawn between them. *)
          for round = 1 to 3 do
            let input = Array.init 41 (fun i -> (round * 100) + i) in
            Alcotest.(check (array int))
              (Printf.sprintf "jobs %d round %d order preserved" jobs round)
              (Array.map (fun i -> i + 1) input)
              (Engine.map_on_handle handle (fun i -> i + 1) input)
          done;
          let caller = Domain.self () in
          let on_caller =
            Engine.map_on_handle handle
              (fun _ -> Domain.self () = caller)
              (Array.init 7 Fun.id)
          in
          Alcotest.(check bool)
            (Printf.sprintf "jobs %d runs inline iff one worker" jobs)
            true
            (Array.for_all (fun inline -> inline = (jobs = 1)) on_caller)))
    [ 1; 3 ]

let test_handle_concurrent_batches () =
  (* The serviced worker-pool contract: connection threads share one
     handle and submit batches concurrently. *)
  List.iter
    (fun jobs ->
      with_handle ~jobs (fun handle ->
          let results = Array.make 4 [||] in
          let threads =
            Array.init 4 (fun t ->
                Thread.create
                  (fun () ->
                    results.(t) <-
                      Engine.map_on_handle handle
                        (fun i -> (t * 1000) + (2 * i))
                        (Array.init 50 Fun.id))
                  ())
          in
          Array.iter Thread.join threads;
          Array.iteri
            (fun t got ->
              Alcotest.(check (array int))
                (Printf.sprintf "jobs %d thread %d batch intact" jobs t)
                (Array.init 50 (fun i -> (t * 1000) + (2 * i)))
                got)
            results))
    [ 1; 2 ]

let test_handle_reraises_first_failure () =
  List.iter
    (fun jobs ->
      with_handle ~jobs (fun handle ->
          let ran = Atomic.make 0 in
          (match
             Engine.map_on_handle handle
               (fun i ->
                 Atomic.incr ran;
                 if i >= 3 then failwith (string_of_int i) else i)
               (Array.init 16 Fun.id)
           with
          | _ -> Alcotest.fail "expected the exception to re-raise"
          | exception Failure msg ->
              Alcotest.(check string)
                (Printf.sprintf "jobs %d first failing element" jobs)
                "3" msg);
          Alcotest.(check int)
            (Printf.sprintf "jobs %d batch drained" jobs)
            16 (Atomic.get ran);
          (* A failed batch leaves the handle usable. *)
          Alcotest.(check (array int))
            (Printf.sprintf "jobs %d next batch" jobs)
            [| 1; 2; 3 |]
            (Engine.map_on_handle handle succ [| 0; 1; 2 |])))
    [ 1; 2 ]

let test_handle_shutdown_semantics () =
  List.iter
    (fun jobs ->
      let handle = Engine.create_handle ~jobs () in
      Engine.shutdown_handle handle;
      Engine.shutdown_handle handle;
      (* idempotent *)
      match Engine.map_on_handle handle Fun.id [| 1 |] with
      | _ ->
          Alcotest.failf "jobs %d: map on a shut-down handle should raise"
            jobs
      | exception Invalid_argument _ -> ())
    [ 1; 2 ]

(* --- Determinism of solve batches ----------------------------------------- *)

(* What a cell's answer is judged on: the inserted repeaters, total width
   and delay, or the error.  Runtime and trace fields are never
   deterministic and are left out. *)
type answer = (Solution.t * float * float, string) result

let answer_equal (a : answer) (b : answer) =
  match (a, b) with
  | Ok (s, w, d), Ok (s', w', d') -> Solution.equal s s' && w = w' && d = d'
  | Error a, Error b -> String.equal a b
  | (Ok _ | Error _), _ -> false

let quick_suite_cells () =
  (* 6 nets x 3 budgets, RIP plus a coarse fixed-library DP on uniform
     sites — a miniature of the paper's sweep. *)
  let library =
    Repeater_library.range ~min_width:40.0 ~max_width:400.0 ~step:90.0
  in
  let nets = Suite.nets ~count:6 () in
  let cells =
    List.concat_map
      (fun net ->
        let geometry = Geometry.of_net net in
        let tau_min = Rip.tau_min process geometry in
        List.concat_map
          (fun slack ->
            let budget = slack *. tau_min in
            let rip () : answer =
              match
                Rip.solve
                  { Rip.process; net; geometry = Some geometry; budget }
              with
              | Ok r -> Ok (r.Rip.solution, r.Rip.total_width, r.Rip.delay)
              | Error e -> Error (Rip.error_to_string e)
            in
            let dp () : answer =
              match
                Power_dp.run
                  (Power_dp.request geometry process.Rip_tech.Process.repeater
                     ~library
                     ~candidates:(Candidates.uniform net ~pitch:400.0)
                     ~budget)
              with
              | Some r ->
                  Ok
                    ( r.Power_dp.solution,
                      r.Power_dp.total_width,
                      r.Power_dp.delay )
              | None -> Error "infeasible"
            in
            [ rip; dp ])
          [ 1.05; 1.3; 1.8 ])
      nets
  in
  Array.of_list cells

let test_solve_batch_deterministic_across_pool_sizes () =
  let cells = quick_suite_cells () in
  let run jobs = Engine.timed_map ~jobs (fun cell -> cell ()) cells in
  let sequential, _ = run 1 in
  let parallel, telemetry = run 8 in
  Alcotest.(check int) "telemetry counts the batch" (Array.length cells)
    telemetry.Telemetry.tasks;
  Alcotest.(check int) "same length" (Array.length sequential)
    (Array.length parallel);
  Array.iteri
    (fun i (a, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "outcome %d identical" i)
        true
        (answer_equal a (fst parallel.(i))))
    sequential;
  (* Odd indices are the DP cells; at least one must have an answer to
     compare. *)
  Alcotest.(check bool) "some DP cell is feasible" true
    (Array.to_list sequential
    |> List.filteri (fun i _ -> i mod 2 = 1)
    |> List.exists (fun (a, _) -> Result.is_ok a))

(* --- Typed error round-trips ---------------------------------------------- *)

let violation_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun x -> Validate.Outside_net x) (float_bound_exclusive 1e4);
        map (fun x -> Validate.In_forbidden_zone x) (float_bound_exclusive 1e4);
        map (fun x -> Validate.Width_out_of_range x) (float_bound_exclusive 1e3);
        map2
          (fun delay budget -> Validate.Over_budget { delay; budget })
          (float_bound_exclusive 1e-9) (float_bound_exclusive 1e-9);
        map (fun x -> Validate.Nonpositive_budget (-.x)) (float_bound_exclusive 1.0);
        return Validate.Geometry_mismatch;
      ])

let error_gen =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun budget hint ->
            Rip.Infeasible_budget { budget; tau_min_hint = hint })
          (float_bound_exclusive 1e-9)
          (opt (float_bound_exclusive 1e-9));
        map
          (fun vs -> Rip.Invalid_net vs)
          (list_size (int_range 0 4) violation_gen);
        map (fun s -> Rip.Internal s) string_printable;
      ])

let error_arbitrary =
  QCheck.make ~print:Rip.error_to_string error_gen

let prop_error_to_string_matches_pp =
  QCheck.Test.make ~name:"error_to_string agrees with pp and is non-empty"
    ~count:200 error_arbitrary (fun e ->
      let s = Rip.error_to_string e in
      String.length s > 0 && String.equal s (Fmt.str "%a" Rip.pp_error e))

let suite =
  [
    ( "engine",
      [
        Alcotest.test_case "pool runs every task once" `Quick
          test_pool_runs_every_task;
        Alcotest.test_case "submit after shutdown raises" `Quick
          test_pool_submit_after_shutdown;
        Alcotest.test_case "pool size floored at 1" `Quick test_pool_size_floor;
        Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
        Alcotest.test_case "map on empty batch" `Quick test_map_empty;
        Alcotest.test_case "map re-raises first failure" `Quick
          test_map_propagates_first_failure;
        Alcotest.test_case "timed_map telemetry" `Quick test_timed_map_telemetry;
        Alcotest.test_case "jobs capped at batch size" `Quick
          test_jobs_capped_at_batch_size;
        Alcotest.test_case "one worker runs inline" `Quick
          test_single_job_runs_inline;
        Alcotest.test_case "map_suite groups per input" `Quick
          test_map_suite_groups_in_order;
        Alcotest.test_case "handle reused across batches" `Quick
          test_handle_reuse_across_batches;
        Alcotest.test_case "handle shared by threads" `Quick
          test_handle_concurrent_batches;
        Alcotest.test_case "handle re-raises first failure" `Quick
          test_handle_reraises_first_failure;
        Alcotest.test_case "handle shutdown semantics" `Quick
          test_handle_shutdown_semantics;
        Alcotest.test_case "solve batch jobs:1 = jobs:8" `Slow
          test_solve_batch_deterministic_across_pool_sizes;
        qcheck prop_error_to_string_matches_pp;
      ] );
  ]
