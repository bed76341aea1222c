(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section plus the DESIGN.md ablations and kernel
   microbenchmarks.

     dune exec bench/main.exe                  -- everything
     dune exec bench/main.exe table1 fig7      -- selected experiments
     dune exec bench/main.exe -- --quick all   -- reduced suite (CI-sized)
     dune exec bench/main.exe -- --jobs 8 suite -- engine scaling run

   Experiments: table1, table2, fig7, tree, ablation, micro, suite.
   The micro experiment also times the service's per-request codec work
   in-process (rows "codec:*": parsing a SOLVE, building its cache key,
   serving a cache hit, forwarding through the router).
   The suite experiment runs the quick sweep through the rip_engine
   domain pool at jobs=1 and jobs=N, checks the outcome arrays are
   identical, and writes machine-readable rows to BENCH_suite.json in
   the working directory (a generated artifact, not tracked in git).
   Routed serving throughput and latency are perfbench's to measure
   (perfbench/run.py), not this harness's. *)

module Experiments = Rip_workload.Experiments
module Suite = Rip_workload.Suite
module Baseline = Rip_workload.Baseline
module Table = Rip_workload.Table
module Rip = Rip_core.Rip
module Config = Rip_core.Config
module Stats = Rip_numerics.Stats
module Geometry = Rip_net.Geometry
module Solution = Rip_elmore.Solution
module Engine = Rip_engine.Engine
module Telemetry = Rip_engine.Telemetry
module Trace = Rip_obs.Trace
module Json = Rip_obs.Json

let process = Rip_tech.Process.default_180nm

type scale = {
  nets : int;
  targets : int;
}

let full_scale = { nets = Suite.default_count; targets = 20 }
let quick_scale = { nets = 6; targets = 7 }

let section title =
  Printf.printf "\n================ %s ================\n%!" title

(* A machine-readable result file in the working directory. *)
let write_json file json =
  let out = open_out file in
  output_string out (Json.to_string json ^ "\n");
  close_out out

(* --- Table 1 and Figure 7 (shared sweep) ------------------------------ *)

let run_table1_fig7 ?jobs scale =
  section "Table 1 / Figure 7 sweep";
  let nets = Suite.nets ~count:scale.nets () in
  let started = Unix.gettimeofday () in
  let runs, telemetry =
    Experiments.run_suite_stats ?jobs ~granularities:[ 10.0; 20.0; 40.0 ]
      ~fixed_range:false ~nets ~targets_per_net:scale.targets process
  in
  Printf.printf "(sweep of %d nets x %d targets took %.1fs wall; %s)\n\n"
    scale.nets scale.targets
    (Unix.gettimeofday () -. started)
    (Fmt.str "%a" Telemetry.pp telemetry);
  print_string "Table 1: power reduction for two-pin nets\n";
  print_string (Experiments.render_table1 (Experiments.table1 runs));
  print_newline ();
  List.iter
    (fun granularity ->
      print_string
        (Experiments.render_fig7 ~granularity
           (Experiments.fig7 ~granularity runs));
      print_newline ())
    [ 10.0; 40.0 ];
  (* RIP feasibility claim of the paper: no violations, ever. *)
  let rip_failures =
    List.concat_map
      (fun (run : Experiments.net_run) ->
        List.filter_map
          (fun (cell : Experiments.cell) ->
            match cell.Experiments.rip with
            | Error e ->
                Some
                  ( run.Experiments.net.Rip_net.Net.name,
                    Rip.error_to_string e )
            | Ok _ -> None)
          run.Experiments.cells)
      runs
  in
  Printf.printf "RIP timing violations across the sweep: %d\n"
    (List.length rip_failures);
  List.iter (fun (net, e) -> Printf.printf "  %s: %s\n" net e) rip_failures

(* --- Table 2 ----------------------------------------------------------- *)

let run_table2 ?jobs scale =
  section "Table 2: power savings and speedup tradeoff";
  let nets = Suite.nets ~count:scale.nets () in
  let started = Unix.gettimeofday () in
  let rows =
    Experiments.table2 ?jobs ~granularities:[ 40.0; 30.0; 20.0; 10.0 ] ~nets
      ~targets_per_net:scale.targets process
  in
  Printf.printf "(took %.1fs)\n\n" (Unix.gettimeofday () -. started);
  print_string (Experiments.render_table2 rows)

(* --- Ablations (DESIGN.md section 5) ----------------------------------- *)

(* Mean saving of a RIP variant over the g=40u fixed-size baseline on a
   reduced sweep, plus its mean runtime. *)
let ablation_measure config nets targets =
  let savings = ref [] and times = ref [] in
  List.iter
    (fun net ->
      let geometry = Geometry.of_net net in
      let tau_min = Rip.tau_min process geometry in
      let baseline = Baseline.fixed_size ~granularity:40.0 in
      List.iter
        (fun budget ->
          let base = Baseline.solve baseline process geometry ~budget in
          match
            ( base.Baseline.result,
              Rip.solve ~config
                { Rip.process; net; geometry = Some geometry; budget } )
          with
          | Some b, Ok r ->
              times := r.Rip.runtime_seconds :: !times;
              (match Experiments.saving_percent ~baseline:b ~rip:r with
              | Some s -> savings := s :: !savings
              | None -> ())
          | _, Ok r -> times := r.Rip.runtime_seconds :: !times
          | _, Error _ -> ())
        (Suite.timing_targets ~count:targets ~tau_min ()))
    nets;
  (Stats.mean !savings, Stats.mean !times)

let run_ablation scale =
  section "Ablations (vs DP[14] size-10 g=40u)";
  let nets = Suite.nets ~count:(Stdlib.min scale.nets 8) () in
  let targets = Stdlib.min scale.targets 7 in
  let base_config = Config.default in
  let variants =
    [
      ("rip default", base_config);
      ( "no REFINE movement (widths only)",
        { base_config with
          refine = { base_config.Config.refine with
                     Rip_refine.Refine.max_iterations = 0 } } );
      ( "radius ceiling 2 (no widening)",
        { base_config with Config.refined_radius = 2 } );
      ( "radius ceiling 20",
        { base_config with Config.refined_radius = 20 } );
      ( "coarse pitch 400um",
        { base_config with Config.coarse_pitch = 400.0 } );
      ( "coarse pitch 100um",
        { base_config with Config.coarse_pitch = 100.0 } );
      ( "coarse library 2x160u",
        { base_config with
          Config.coarse_library =
            Rip_dp.Repeater_library.uniform ~min_width:160.0 ~step:160.0
              ~count:2 } );
      ("three refine passes", { base_config with Config.refine_passes = 3 });
      ( "REFINE hops small zones",
        { base_config with
          refine = { base_config.Config.refine with
                     Rip_refine.Refine.hop_zones = true } } );
    ]
  in
  let rows =
    List.map
      (fun (name, config) ->
        let saving, time = ablation_measure config nets targets in
        [ name; Table.percent saving; Table.seconds time ])
      variants
  in
  print_string
    (Table.render ~header:[ "variant"; "DMean vs g40 (%)"; "T_RIP(s)" ] ~rows)

(* --- Tree extension ------------------------------------------------------ *)

let run_tree scale =
  section "Tree extension: hybrid vs pure DPs on random trees";
  let count = Stdlib.min 10 (Stdlib.max 4 (scale.nets / 2)) in
  let trees = Rip_workload.Tree_gen.suite ~count () in
  let started = Unix.gettimeofday () in
  let rows =
    Rip_workload.Tree_experiments.run ~trees ~targets_per_tree:6 process
  in
  Printf.printf "(took %.1fs)\n\n" (Unix.gettimeofday () -. started);
  print_string (Rip_workload.Tree_experiments.render rows);
  (* The tree hybrid answers every target (the anchor makes each one
     reachable): a violation fails the run, as a fingerprint mismatch
     does. *)
  List.iter
    (fun (r : Rip_workload.Tree_experiments.row) ->
      if r.hybrid_violations > 0 then begin
        Printf.eprintf "TREE VIOLATION: %s missed %d target(s)\n"
          r.tree_name r.hybrid_violations;
        exit 1
      end)
    rows

(* --- Microbenchmarks (Bechamel) ---------------------------------------- *)

let run_micro () =
  section "Kernel microbenchmarks (Bechamel)";
  let open Bechamel in
  let net = List.nth (Suite.nets ~count:5 ()) 3 in
  let geometry = Geometry.of_net net in
  let repeater = process.Rip_tech.Process.repeater in
  let tau_min = Rip.tau_min process geometry in
  let budget = 1.4 *. tau_min in
  let candidates = Rip_dp.Candidates.uniform net ~pitch:200.0 in
  let library =
    Rip_dp.Repeater_library.uniform ~min_width:10.0 ~step:40.0 ~count:10
  in
  let coarse =
    match
      Rip_dp.Power_dp.run
        (Rip_dp.Power_dp.request geometry repeater
           ~library:Config.default.Config.coarse_library ~candidates ~budget)
    with
    | Some r -> r.Rip_dp.Power_dp.solution
    | None -> Solution.empty
  in
  let positions = Array.of_list (Solution.positions coarse) in
  (* The request path's codec work, away from sockets and host noise:
     what a shard does with a SOLVE that hits its cache, and what the
     router does forwarding a SOLVE and relaying its answer. *)
  let codec_tests =
    let module Protocol = Rip_service.Protocol in
    let module Solve_cache = Rip_service.Solve_cache in
    let lines_of frame =
      match List.rev (String.split_on_char '\n' frame) with
      | "" :: rest -> List.rev rest
      | all -> List.rev all
    in
    let request_lines =
      lines_of (Protocol.print_request (Protocol.solve ~budget net))
    in
    let parse_solve () =
      match Protocol.input_request (Protocol.reader_of_lines request_lines) with
      | Ok (Some (Protocol.Solve solve)) -> solve
      | Ok _ | Error _ -> failwith "micro: the SOLVE frame does not parse"
    in
    let answer =
      match Rip.solve { Rip.process; net; geometry = Some geometry; budget } with
      | Ok report ->
          Protocol.answer
            {
              Protocol.repeaters =
                List.map
                  (fun (r : Solution.repeater) -> (r.position, r.width))
                  (Solution.repeaters report.Rip.solution);
              total_width = report.Rip.total_width;
              delay = report.Rip.delay;
              power_watts = report.Rip.power_watts;
            }
      | Error e -> failwith (Rip.error_to_string e)
    in
    let reply_lines =
      lines_of
        (Protocol.print_response
           (Protocol.Result { served = Protocol.Cached; answer }))
    in
    let key = Solve_cache.key ~process in
    let digest_of (a : Protocol.answer) = Digest.string a.Protocol.body in
    let cache = Solve_cache.create ~capacity:16 in
    Solve_cache.add_verified cache (key ~net ~budget) answer
      ~digest:(digest_of answer);
    [
      Test.make ~name:"codec:parse_solve" (Staged.stage parse_solve);
      Test.make ~name:"codec:cache_key"
        (Staged.stage (fun () -> key ~net ~budget));
      Test.make ~name:"codec:serve_cache_hit"
        (Staged.stage (fun () ->
             let solve = parse_solve () in
             match
               Solve_cache.find_verified cache
                 (key ~net:solve.Protocol.net ~budget:solve.Protocol.budget)
                 ~digest_of
             with
             | Some answer ->
                 Protocol.print_response
                   (Protocol.Result { served = Protocol.Cached; answer })
             | None -> failwith "micro: the cache hit missed"));
      Test.make ~name:"codec:router_forward"
        (Staged.stage (fun () ->
             let solve = parse_solve () in
             let placement = Rip_net.Net.canonical_digest solve.Protocol.net in
             let forwarded = Protocol.print_request (Protocol.Solve solve) in
             match
               Protocol.input_response (Protocol.reader_of_lines reply_lines)
             with
             | Ok (Some reply) ->
                 (placement, forwarded, Protocol.print_response reply)
             | Ok None | Error _ -> failwith "micro: the answer does not parse"));
    ]
  in
  let dp_micro backend name =
    let open Bechamel in
    Test.make ~name
      (Staged.stage (fun () ->
           Rip_dp.Power_dp.run
             (Rip_dp.Power_dp.request ~backend geometry repeater ~library
                ~candidates ~budget)))
  in
  let tests =
    [
      Test.make ~name:"stage_delay(eq1)"
        (Staged.stage (fun () ->
             Rip_elmore.Stage.delay repeater geometry ~driver_pos:500.0
               ~driver_width:40.0 ~load_pos:4000.0 ~load_width:80.0));
      Test.make ~name:"total_delay(eq2)"
        (Staged.stage (fun () ->
             Rip_elmore.Delay.total repeater geometry coarse));
      dp_micro Rip_dp.Power_dp.Reference "power_dp_ref(g=40u)";
      dp_micro Rip_dp.Power_dp.Fast "power_dp_fast(g=40u)";
      Test.make ~name:"width_solver(eq5+eq8)"
        (Staged.stage (fun () ->
             Rip_refine.Width_solver.solve geometry repeater ~positions
               ~budget));
      Test.make ~name:"refine(fig5)"
        (Staged.stage (fun () ->
             Rip_refine.Refine.run geometry repeater ~budget ~initial:coarse));
      Test.make ~name:"rip(fig6)"
        (Staged.stage (fun () ->
             Rip.solve { Rip.process; net; geometry = Some geometry; budget }));
    ]
    @ codec_tests
  in
  let test = Test.make_grouped ~name:"rip" ~fmt:"%s/%s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let nanos =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | Some [] | None -> Float.nan
        in
        (name, nanos) :: acc)
      results []
    |> List.sort (fun (_, a) (_, b) -> Float.compare a b)
    |> List.map (fun (name, nanos) ->
           [ name; Printf.sprintf "%.3f us" (nanos /. 1e3) ])
  in
  print_string (Table.render ~header:[ "kernel"; "time/run" ] ~rows)

(* --- Engine batch-solve scaling (BENCH_suite.json) ---------------------- *)

(* Per-cell results modulo runtime: the determinism contract is that the
   solution arrays are bit-identical whatever the job count. *)
let suite_fingerprint runs =
  List.concat_map
    (fun (run : Experiments.net_run) ->
      List.map
        (fun (cell : Experiments.cell) ->
          match cell.Experiments.rip with
          | Ok r ->
              Ok
                ( Solution.repeaters r.Rip.solution,
                  r.Rip.total_width,
                  r.Rip.delay )
          | Error e -> Error (Rip.error_to_string e))
        run.Experiments.cells)
    runs

type suite_row = {
  row_backend : Rip_dp.Power_dp.backend;
  row_jobs : int;
  row_wall : float;
  row_telemetry : Telemetry.t;
  row_runs : Experiments.net_run list;
  row_labels_pruned : int;
  row_dp_columns : int;
}

let run_suite_bench scale jobs_list =
  section "Engine batch-solve scaling";
  let nets = Suite.nets ~count:scale.nets () in
  let cells = scale.nets * scale.targets in
  (* The ladder runs once per DP backend: same nets, same targets, so the
     fingerprint check below doubles as the cross-backend bit-identity
     gate, and the jobs=1 rows give an apples-to-apples cells/s ratio. *)
  let one backend jobs =
    let name = Rip_dp.Power_dp.backend_name backend in
    Trace.span (Trace.global ()) ~cat:"bench"
      (Printf.sprintf "suite backend=%s jobs=%d" name jobs)
    @@ fun () ->
    let labels_pruned = Atomic.make 0 in
    let dp_columns = Atomic.make 0 in
    let hooks =
      (* Same counters the solve service keeps; atomics because with
         jobs > 1 the probe fires from every pool domain. *)
      Rip_core.Hooks.make
        ~probe:(function
          | Rip.Dp (Rip_dp.Power_dp.Column { collected; kept; _ }) ->
              Atomic.incr dp_columns;
              ignore (Atomic.fetch_and_add labels_pruned (collected - kept))
          | Rip.Refine _ -> ())
        ()
    in
    let config =
      { Config.default with
        Config.dp = { Config.default.Config.dp with Config.backend } }
    in
    let started = Unix.gettimeofday () in
    let runs, telemetry =
      Experiments.run_suite_stats ~jobs ~granularities:[] ~nets
        ~targets_per_net:scale.targets ~config ~hooks process
    in
    let wall = Unix.gettimeofday () -. started in
    Printf.printf
      "backend=%-9s jobs=%-2d  wall %6.2fs  cpu %6.2fs  %6.1f cells/s  \
       utilization %3.0f%%  pruned %d/%d columns\n%!"
      name jobs wall telemetry.Telemetry.cpu_seconds
      (float_of_int cells /. wall)
      (100.0 *. telemetry.Telemetry.utilization)
      (Atomic.get labels_pruned) (Atomic.get dp_columns);
    { row_backend = backend; row_jobs = jobs; row_wall = wall;
      row_telemetry = telemetry; row_runs = runs;
      row_labels_pruned = Atomic.get labels_pruned;
      row_dp_columns = Atomic.get dp_columns }
  in
  let measurements =
    List.concat_map
      (fun backend -> List.map (one backend) jobs_list)
      [ Rip_dp.Power_dp.Reference; Rip_dp.Power_dp.Fast ]
  in
  (match measurements with
  | reference :: rest ->
      let reference_fp = suite_fingerprint reference.row_runs in
      List.iter
        (fun row ->
          if suite_fingerprint row.row_runs <> reference_fp then begin
            Printf.eprintf
              "DETERMINISM VIOLATION: backend=%s jobs=%d differs from \
               backend=%s jobs=%d\n"
              (Rip_dp.Power_dp.backend_name row.row_backend)
              row.row_jobs
              (Rip_dp.Power_dp.backend_name reference.row_backend)
              reference.row_jobs;
            exit 1
          end)
        rest;
      Printf.printf
        "outcome arrays identical across job counts and backends: yes\n"
  | [] -> ());
  (* Perf gate: at the first job count, the pruning backend must beat the
     reference — CI runs @bench-quick, so a Fast regression fails the
     build. *)
  (match jobs_list with
  | first_jobs :: _ ->
      let cps backend =
        List.find_map
          (fun r ->
            if r.row_backend = backend && r.row_jobs = first_jobs then
              Some (float_of_int cells /. r.row_wall)
            else None)
          measurements
      in
      (match (cps Rip_dp.Power_dp.Reference, cps Rip_dp.Power_dp.Fast) with
      | Some reference, Some fast ->
          Printf.printf "fast/reference cells/s at jobs=%d: %.1fx\n"
            first_jobs (fast /. reference);
          if fast <= reference then begin
            Printf.eprintf
              "PERF REGRESSION: fast backend (%.1f cells/s) does not beat \
               reference (%.1f cells/s) at jobs=%d\n"
              fast reference first_jobs;
            exit 1
          end
      | _, _ -> ())
  | [] -> ());
  (* Machine-readable perf trajectory for future PRs. *)
  let row r =
    Json.Obj
      [
        ("nets", Json.Int scale.nets);
        ("targets", Json.Int scale.targets);
        ("backend", Json.String (Rip_dp.Power_dp.backend_name r.row_backend));
        ("jobs", Json.Int r.row_jobs);
        ("wall_seconds", Json.Float r.row_wall);
        ("cpu_seconds", Json.Float r.row_telemetry.Telemetry.cpu_seconds);
        ("cells_per_second", Json.Float (float_of_int cells /. r.row_wall));
        ("utilization", Json.Float r.row_telemetry.Telemetry.utilization);
        ("labels_pruned", Json.Int r.row_labels_pruned);
        ("dp_columns", Json.Int r.row_dp_columns);
      ]
  in
  write_json "BENCH_suite.json"
    (Json.Obj [ ("runs", Json.List (List.map row measurements)) ]);
  Printf.printf "wrote BENCH_suite.json (%d runs)\n" (List.length measurements)

(* --- Entry point -------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  (* --jobs N caps the scaling ladder and sizes the sweeps' domain pool. *)
  let rec extract_jobs acc = function
    | [ "--jobs" ] ->
        prerr_endline "--jobs expects a value";
        exit 2
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some jobs when jobs >= 1 -> (Some jobs, List.rev acc @ rest)
        | Some _ | None ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
            exit 2)
    | a :: rest -> extract_jobs (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let jobs_override, args = extract_jobs [] args in
  (* --trace-out FILE installs a global tracer: engine batches/jobs and
     the suite ladder leave spans, dumped as Chrome-trace JSON at exit.
     Without the flag every span hook is a nop. *)
  let rec extract_trace_out acc = function
    | [ "--trace-out" ] ->
        prerr_endline "--trace-out expects a file";
        exit 2
    | "--trace-out" :: file :: rest -> (Some file, List.rev acc @ rest)
    | a :: rest -> extract_trace_out (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let trace_out, args = extract_trace_out [] args in
  if Option.is_some trace_out then Trace.set_global (Some (Trace.create ()));
  let quick = List.mem "--quick" args in
  let scale = if quick then quick_scale else full_scale in
  let wanted = List.filter (fun a -> a <> "--quick") args in
  let wanted = if wanted = [] || List.mem "all" wanted then
      [ "table1"; "table2"; "tree"; "ablation"; "micro"; "suite" ]
    else wanted
  in
  let known =
    [ "table1"; "fig7"; "table2"; "tree"; "ablation"; "micro"; "suite" ]
  in
  List.iter
    (fun w ->
      if not (List.mem w known) then begin
        Printf.eprintf "unknown experiment %S (known: %s)\n" w
          (String.concat ", " known);
        exit 2
      end)
    wanted;
  (* fig7 shares table1's sweep; run it once when either is requested. *)
  if List.mem "table1" wanted || List.mem "fig7" wanted then
    run_table1_fig7 ?jobs:jobs_override scale;
  if List.mem "table2" wanted then run_table2 ?jobs:jobs_override scale;
  if List.mem "tree" wanted then run_tree scale;
  if List.mem "ablation" wanted then run_ablation scale;
  if List.mem "micro" wanted then run_micro ();
  if List.mem "suite" wanted then begin
    (* The scaling ladder: sequential, then the machine's own pool size.
       Never force more domains than the machine recommends — an
       oversubscribed pool serialises on minor-GC synchronisation and
       benchmarks slower than jobs=1 (use --jobs to override). *)
    let top =
      match jobs_override with
      | Some jobs -> jobs
      | None -> Engine.default_jobs ()
    in
    let ladder = if top <= 1 then [ 1 ] else [ 1; top ] in
    run_suite_bench (if quick then quick_scale else scale) ladder
  end;
  match (trace_out, Trace.global ()) with
  | Some file, Some tracer ->
      Trace.dump_to_file tracer file;
      Printf.printf "wrote %d trace spans to %s\n"
        (Trace.span_count tracer) file
  | _ -> ()
