(* experiments: regenerate the paper's tables and figures selectively.

     experiments_cli table1
     experiments_cli fig7 --granularity 40
     experiments_cli table2 --nets 8 --targets 10 *)

module Experiments = Rip_workload.Experiments
module Suite = Rip_workload.Suite
module Rip = Rip_core.Rip

let process = Rip_tech.Process.default_180nm

let print_telemetry telemetry =
  Printf.printf "(%s)\n" (Fmt.str "%a" Rip_engine.Telemetry.pp telemetry)

(* A sweep whose cells failed must not exit 0: print every typed error and
   report failure, same contract as rip_cli solve. *)
let exit_status_of_runs runs =
  let failures =
    List.concat_map
      (fun (run : Experiments.net_run) ->
        List.filter_map
          (fun (cell : Experiments.cell) ->
            match cell.Experiments.rip with
            | Error e ->
                Some
                  ( run.Experiments.net.Rip_net.Net.name,
                    cell.Experiments.budget,
                    e )
            | Ok _ -> None)
          run.Experiments.cells)
      runs
  in
  List.iter
    (fun (net, budget, e) ->
      Fmt.epr "error: %s (budget %.2f ps): %a@." net (budget *. 1e12)
        Rip.pp_error e)
    failures;
  if failures = [] then 0 else 1

let table1_run nets targets jobs =
  let nets = Suite.nets ~count:nets () in
  let runs, telemetry =
    Experiments.run_suite_stats ?jobs ~granularities:[ 10.0; 20.0; 40.0 ]
      ~nets ~targets_per_net:targets process
  in
  print_string (Experiments.render_table1 (Experiments.table1 runs));
  print_telemetry telemetry;
  exit_status_of_runs runs

let fig7_run nets targets granularity jobs =
  let nets = Suite.nets ~count:nets () in
  let runs, telemetry =
    Experiments.run_suite_stats ?jobs ~granularities:[ granularity ] ~nets
      ~targets_per_net:targets process
  in
  print_string
    (Experiments.render_fig7 ~granularity
       (Experiments.fig7 ~granularity runs));
  print_telemetry telemetry;
  exit_status_of_runs runs

let table2_run nets targets jobs =
  let nets = Suite.nets ~count:nets () in
  print_string
    (Experiments.render_table2
       (Experiments.table2 ?jobs ~nets ~targets_per_net:targets process));
  0

open Cmdliner

let nets =
  Arg.(
    value & opt int Suite.default_count
    & info [ "nets" ] ~docv:"N" ~doc:"Number of suite nets to sweep.")

let targets =
  Arg.(
    value & opt int 20
    & info [ "targets" ] ~docv:"K" ~doc:"Timing targets per net (max 20).")

let granularity =
  Arg.(
    value & opt float 40.0
    & info [ "granularity"; "g" ] ~docv:"G"
        ~doc:"Baseline width granularity in u (Figure 7 uses 10 and 40).")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for the sweep (default: the machine's \
              recommended domain count, except table2 which runs \
              sequentially for trustworthy runtime columns).")

let table1_cmd =
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce Table 1")
    Term.(const table1_run $ nets $ targets $ jobs)

let fig7_cmd =
  Cmd.v (Cmd.info "fig7" ~doc:"Reproduce one Figure 7 series")
    Term.(const fig7_run $ nets $ targets $ granularity $ jobs)

let table2_cmd =
  Cmd.v (Cmd.info "table2" ~doc:"Reproduce Table 2 (runtime-sensitive)")
    Term.(const table2_run $ nets $ targets $ jobs)

let main =
  Cmd.group
    (Cmd.info "experiments_cli" ~version:"1.0.0"
       ~doc:"Reproduce the RIP paper's evaluation artefacts")
    [ table1_cmd; fig7_cmd; table2_cmd ]

let () = exit (Cmd.eval' main)
