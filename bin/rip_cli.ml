(* rip: solve low-power repeater insertion (Problem LPRI) for net files.

     rip_cli solve NET_FILE --slack 1.3
     rip_cli solve NET_FILE --budget-ps 850 --trace
     rip_cli solve a.net b.net c.net --jobs 8
     rip_cli tau-min NET_FILE

   Several net files form one batch of (net, geometry, budget) problems
   solved through Rip_engine.Engine.timed_map; results print in argument
   order whatever the completion order, and a net that fails prints its
   error without ending the batch. *)

module Geometry = Rip_net.Geometry
module Solution = Rip_elmore.Solution
module Rip = Rip_core.Rip
module Engine = Rip_engine.Engine

let process = Rip_tech.Process.default_180nm

let load path =
  match Rip_net.Net_io.parse_file path with
  | Ok net -> Ok net
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

let print_solution (report : Rip.report) =
  let open Printf in
  printf "repeaters: %d\n" (Solution.count report.Rip.solution);
  List.iter
    (fun (r : Solution.repeater) ->
      printf "  %8.1f um   %6.1f u\n" r.position r.width)
    (Solution.repeaters report.Rip.solution);
  printf "total width : %.1f u\n" report.Rip.total_width;
  printf "delay       : %.2f ps\n" (report.Rip.delay *. 1e12);
  printf "power       : %.4f mW\n" (report.Rip.power_watts *. 1e3);
  printf "runtime     : %.1f ms\n" (report.Rip.runtime_seconds *. 1e3)

let print_trace (report : Rip.report) =
  let open Printf in
  let trace = report.Rip.trace in
  (match trace.Rip.coarse with
  | Some c ->
      printf "line 1 (coarse DP%s): width %.1f u, %d repeaters\n"
        (if trace.Rip.used_fallback_library then ", fallback library" else "")
        c.Rip_dp.Power_dp.total_width
        (Solution.count c.Rip_dp.Power_dp.solution)
  | None -> printf "line 1 (coarse DP): infeasible\n");
  (match trace.Rip.refined with
  | Some o ->
      printf
        "line 2 (REFINE): width %.1f u after %d iterations, %d moves, \
         lambda %.3g, %d width evaluations\n"
        o.Rip_refine.Refine.total_width o.Rip_refine.Refine.iterations
        o.Rip_refine.Refine.moves o.Rip_refine.Refine.lambda
        o.Rip_refine.Refine.evaluations
  | None -> printf "line 2 (REFINE): skipped\n");
  (match trace.Rip.refined_library with
  | Some b ->
      printf "line 3: library %s\n" (Fmt.str "%a" Rip_dp.Repeater_library.pp b)
  | None -> ());
  (* The window where line 4's schedule stopped. *)
  let window =
    match trace.Rip.final_radius with
    | Some radius ->
        Printf.sprintf ", radius %d, %d candidate sites" radius
          (List.length trace.Rip.refined_candidates)
    | None -> ""
  in
  (match trace.Rip.final with
  | Some f ->
      printf "line 4 (final DP%s): width %.1f u\n" window
        f.Rip_dp.Power_dp.total_width
  | None -> printf "line 4 (final DP%s): infeasible\n" window);
  (match trace.Rip.rescue with
  | Some r ->
      printf "rescue pass: width %.1f u\n" r.Rip_dp.Power_dp.total_width
  | None -> ());
  match trace.Rip.anchor with
  | Some a ->
      printf "anchor pass: width %.1f u\n" a.Rip_dp.Power_dp.total_width
  | None -> ()

let solve_command paths budget_ps slack trace jobs =
  let loaded = List.map load paths in
  match
    List.find_map (function Error e -> Some e | Ok _ -> None) loaded
  with
  | Some e ->
      prerr_endline e;
      1
  | None ->
      let nets = List.filter_map Result.to_option loaded in
      (* Budgets are resolved before batching: the per-net tau_min anchor
         is part of stating the problem, not of solving it. *)
      let problems =
        Array.of_list
          (List.map
             (fun net ->
               let geometry = Geometry.of_net net in
               let budget =
                 match budget_ps with
                 | Some ps -> ps *. 1e-12
                 | None -> slack *. Rip.tau_min process geometry
               in
               (net, geometry, budget))
             nets)
      in
      (* A stray exception becomes a typed error, so one bad net cannot
         end the batch. *)
      let solve (net, geometry, budget) =
        try
          Rip.solve { Rip.process; net; geometry = Some geometry; budget }
        with exn -> Error (Rip.Internal (Printexc.to_string exn))
      in
      let outcomes, telemetry = Engine.timed_map ?jobs solve problems in
      let failures = ref 0 in
      Array.iteri
        (fun i (result, _cpu_seconds) ->
          let net, _, budget = problems.(i) in
          if i > 0 then print_newline ();
          Printf.printf "net %s: %.0f um, %d segments; budget %.2f ps\n"
            net.Rip_net.Net.name
            (Rip_net.Net.total_length net)
            (Rip_net.Net.segment_count net)
            (budget *. 1e12);
          match result with
          | Error e ->
              incr failures;
              Fmt.epr "error: %a@." Rip.pp_error e
          | Ok report ->
              print_solution report;
              if trace then print_trace report)
        outcomes;
      if Array.length problems > 1 then
        Printf.printf "\nbatch: %s\n"
          (Fmt.str "%a" Rip_engine.Telemetry.pp telemetry);
      if !failures > 0 then 1 else 0

let tau_min_command path =
  match load path with
  | Error e ->
      prerr_endline e;
      1
  | Ok net ->
      let geometry = Geometry.of_net net in
      Printf.printf "tau_min(%s) = %.2f ps\n" net.Rip_net.Net.name
        (Rip.tau_min process geometry *. 1e12);
      0

open Cmdliner

let net_files =
  Arg.(
    non_empty
    & pos_all file []
    & info [] ~docv:"NET_FILE"
        ~doc:"Net description files (see Rip_net.Net_io); several files \
              form one parallel batch.")

let net_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"NET_FILE" ~doc:"Net description file (see Rip_net.Net_io).")

let budget_ps =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget-ps" ] ~docv:"PS" ~doc:"Absolute delay budget in picoseconds.")

let slack =
  Arg.(
    value & opt float 1.3
    & info [ "slack" ] ~docv:"MULT"
        ~doc:"Delay budget as a multiple of the net's minimum delay \
              (ignored when --budget-ps is given).")

let trace =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the per-phase RIP trace.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for batch solving (default: the machine's \
              recommended domain count, capped at the number of net \
              files; a single net solves inline with no worker domain).")

let solve_term =
  Term.(
    const solve_command $ net_files $ budget_ps $ slack $ trace $ jobs)

let solve_cmd =
  Cmd.v
    (Cmd.info "solve" ~doc:"Insert repeaters for minimal power under a delay budget")
    solve_term

let tau_min_cmd =
  Cmd.v
    (Cmd.info "tau-min" ~doc:"Report the minimum achievable Elmore delay of a net")
    Term.(const tau_min_command $ net_file)

let main =
  Cmd.group
    (Cmd.info "rip_cli" ~version:"1.0.0"
       ~doc:"RIP: hybrid repeater insertion for low power (DATE 2005)")
    [ solve_cmd; tau_min_cmd ]

let () = exit (Cmd.eval' main)
