module Geometry = Rip_net.Geometry
module Net = Rip_net.Net
module Power_dp = Rip_dp.Power_dp
module Rip = Rip_core.Rip
module Stats = Rip_numerics.Stats
module Engine = Rip_engine.Engine
module Telemetry = Rip_engine.Telemetry

type cell = {
  target_index : int;
  budget : float;
  rip : (Rip.report, Rip.error) result;
  baselines : (float * Baseline.run) list;
}

type net_run = {
  net : Net.t;
  tau_min : float;
  cells : cell list;
}

let saving_percent ~(baseline : Power_dp.result) ~(rip : Rip.report) =
  if baseline.Power_dp.total_width > 0.0 then
    Some
      (100.0
      *. (baseline.Power_dp.total_width -. rip.Rip.total_width)
      /. baseline.Power_dp.total_width)
  else if rip.Rip.total_width = 0.0 then Some 0.0
  else None

(* The whole sweep goes through the batch engine: per-net preparation
   (geometry + the tau_min anchor) in one parallel phase, then every
   (net, budget) cell of every net flattened into a second one.  Per-cell
   work is untouched, so the result is identical to the old sequential
   sweep for any job count. *)
let run_suite_stats ?jobs ?(granularities = [ 10.0; 20.0; 40.0 ])
    ?(fixed_range = false) ?nets ?(targets_per_net = 20) ?hooks process =
  let nets = match nets with Some nets -> nets | None -> Suite.nets () in
  let baseline_of granularity =
    if fixed_range then Baseline.fixed_range ~granularity
    else Baseline.fixed_size ~granularity
  in
  let grouped, telemetry =
    Engine.map_suite ?jobs
      ~prepare:(fun net ->
        let geometry = Geometry.of_net net in
        let tau_min = Rip.tau_min process geometry in
        (net, geometry, tau_min))
      ~targets:(fun (_, _, tau_min) ->
        List.mapi
          (fun target_index budget -> (target_index, budget))
          (Suite.timing_targets ~count:targets_per_net ~tau_min ()))
      ~cell:(fun (net, geometry, _) (target_index, budget) ->
        let rip =
          Rip.solve ?hooks
            { Rip.process; net; geometry = Some geometry; budget }
        in
        let baselines =
          List.map
            (fun g ->
              ( g,
                Baseline.solve (baseline_of g) process geometry ~budget ))
            granularities
        in
        { target_index; budget; rip; baselines })
      nets
  in
  ( List.map
      (fun ((net, _, tau_min), cells) -> { net; tau_min; cells })
      grouped,
    telemetry )

let run_suite ?jobs ?granularities ?fixed_range ?nets ?targets_per_net ?hooks
    process =
  fst
    (run_suite_stats ?jobs ?granularities ?fixed_range ?nets ?targets_per_net
       ?hooks process)

(* Savings of RIP over the g-granularity baseline across a net's cells. *)
let net_savings ~granularity run =
  List.filter_map
    (fun cell ->
      match (List.assoc_opt granularity cell.baselines, cell.rip) with
      | Some { Baseline.result = Some baseline; _ }, Ok rip ->
          saving_percent ~baseline ~rip
      | Some _, _ | None, _ -> None)
    run.cells

let net_violations ~granularity run =
  List.length
    (List.filter
       (fun cell ->
         match List.assoc_opt granularity cell.baselines with
         | Some { Baseline.result = None; _ } -> true
         | Some _ | None -> false)
       run.cells)

(* --- Table 1 --------------------------------------------------------- *)

type table1_row = {
  net_name : string;
  g10_delta_max : float;
  g10_violations : int;
  g20_delta_max : float;
  g20_delta_mean : float;
  g40_delta_max : float;
  g40_delta_mean : float;
}

type table1 = {
  rows : table1_row list;
  average : table1_row;
}

let max_or_zero = function [] -> 0.0 | xs -> Stats.max_value xs

let table1_row run =
  let s10 = net_savings ~granularity:10.0 run in
  let s20 = net_savings ~granularity:20.0 run in
  let s40 = net_savings ~granularity:40.0 run in
  {
    net_name = run.net.Net.name;
    g10_delta_max = max_or_zero s10;
    g10_violations = net_violations ~granularity:10.0 run;
    g20_delta_max = max_or_zero s20;
    g20_delta_mean = Stats.mean s20;
    g40_delta_max = max_or_zero s40;
    g40_delta_mean = Stats.mean s40;
  }

let table1 runs =
  let rows = List.map table1_row runs in
  let mean f = Stats.mean (List.map f rows) in
  let average =
    {
      net_name = "Ave";
      g10_delta_max = mean (fun r -> r.g10_delta_max);
      g10_violations =
        int_of_float
          (Float.round (mean (fun r -> float_of_int r.g10_violations)));
      g20_delta_max = mean (fun r -> r.g20_delta_max);
      g20_delta_mean = mean (fun r -> r.g20_delta_mean);
      g40_delta_max = mean (fun r -> r.g40_delta_max);
      g40_delta_mean = mean (fun r -> r.g40_delta_mean);
    }
  in
  { rows; average }

let render_table1 { rows; average } =
  let row r =
    [
      r.net_name;
      Table.percent r.g10_delta_max;
      string_of_int r.g10_violations;
      Table.percent r.g20_delta_max;
      Table.percent r.g20_delta_mean;
      Table.percent r.g40_delta_max;
      Table.percent r.g40_delta_mean;
    ]
  in
  Table.render
    ~header:
      [ "Net"; "g10 DMax(%)"; "g10 V_DP"; "g20 DMax(%)"; "g20 DMean(%)";
        "g40 DMax(%)"; "g40 DMean(%)" ]
    ~rows:(List.map row rows @ [ row average ])

(* --- Figure 7 -------------------------------------------------------- *)

type fig7_point = {
  target_multiple : float;
  mean_saving : float;
  max_saving : float;
  min_saving : float;
  baseline_infeasible : int;
}

let fig7 ~granularity runs =
  let target_count =
    List.fold_left (fun acc run -> Stdlib.max acc (List.length run.cells)) 0
      runs
  in
  List.init target_count (fun k ->
      let at_target =
        List.filter_map
          (fun run -> List.nth_opt run.cells k |> Option.map (fun c -> (run, c)))
          runs
      in
      let savings =
        List.filter_map
          (fun (_, cell) ->
            match (List.assoc_opt granularity cell.baselines, cell.rip) with
            | Some { Baseline.result = Some baseline; _ }, Ok rip ->
                saving_percent ~baseline ~rip
            | Some _, _ | None, _ -> None)
          at_target
      in
      let infeasible =
        List.length
          (List.filter
             (fun (_, cell) ->
               match List.assoc_opt granularity cell.baselines with
               | Some { Baseline.result = None; _ } -> true
               | Some _ | None -> false)
             at_target)
      in
      {
        target_multiple = Suite.target_multiple k;
        mean_saving = Stats.mean savings;
        max_saving = max_or_zero savings;
        min_saving = (match savings with [] -> 0.0 | _ -> Stats.min_value savings);
        baseline_infeasible = infeasible;
      })

let render_fig7 ~granularity points =
  let bar v =
    let len = int_of_float (Float.round (Float.max 0.0 v /. 2.0)) in
    String.make (Stdlib.min len 40) '#'
  in
  let zone p =
    if p.baseline_infeasible > 0 then "I"
    else if p.mean_saving > 2.0 then "II"
    else "III"
  in
  let row p =
    [
      Printf.sprintf "%.2f" p.target_multiple;
      Table.percent p.mean_saving;
      Table.percent p.max_saving;
      Table.percent p.min_saving;
      string_of_int p.baseline_infeasible;
      zone p;
      bar p.mean_saving;
    ]
  in
  Printf.sprintf "Figure 7: savings over DP[14] size-10 library, g=%gu\n%s"
    granularity
    (Table.render
       ~header:
         [ "tau_t/tau_min"; "mean(%)"; "max(%)"; "min(%)"; "DP infeasible";
           "zone"; "mean sketch" ]
       ~rows:(List.map row points))

(* --- Table 2 --------------------------------------------------------- *)

type table2_row = {
  granularity : float;
  delta_mean : float;
  t_dp : float;
  t_rip : float;
  speedup : float;
  baseline_infeasible : int;
}

(* Sequential by default: the T_DP / T_RIP columns are the product here,
   and even with thread-CPU timing an oversubscribed pool charges each
   cell its share of minor-GC synchronisation.  Parallelism is opt-in. *)
let table2 ?(jobs = 1) ?(granularities = [ 40.0; 30.0; 20.0; 10.0 ]) ?nets
    ?(targets_per_net = 20) process =
  let runs =
    run_suite ~jobs ~granularities ~fixed_range:true ?nets ~targets_per_net
      process
  in
  let cells = List.concat_map (fun run -> run.cells) runs in
  let rip_times =
    List.filter_map
      (fun cell ->
        match cell.rip with
        | Ok r -> Some r.Rip.runtime_seconds
        | Error _ -> None)
      cells
  in
  let t_rip = Stats.mean rip_times in
  List.map
    (fun granularity ->
      let outcomes =
        List.filter_map (fun c -> List.assoc_opt granularity c.baselines) cells
      in
      let t_dp =
        Stats.mean (List.map (fun b -> b.Baseline.runtime_seconds) outcomes)
      in
      let savings =
        List.filter_map
          (fun cell ->
            match (List.assoc_opt granularity cell.baselines, cell.rip) with
            | Some { Baseline.result = Some baseline; _ }, Ok rip ->
                saving_percent ~baseline ~rip
            | Some _, _ | None, _ -> None)
          cells
      in
      let infeasible =
        List.length
          (List.filter (fun b -> b.Baseline.result = None) outcomes)
      in
      {
        granularity;
        delta_mean = Stats.mean savings;
        t_dp;
        t_rip;
        speedup = (if t_rip > 0.0 then t_dp /. t_rip else Float.infinity);
        baseline_infeasible = infeasible;
      })
    granularities

let render_table2 rows =
  let row r =
    [
      Printf.sprintf "%g" r.granularity;
      Table.percent r.delta_mean;
      Table.seconds r.t_dp;
      Table.seconds r.t_rip;
      Printf.sprintf "%.0f" r.speedup;
      string_of_int r.baseline_infeasible;
    ]
  in
  Table.render
    ~header:
      [ "g_DP(u)"; "Delta(%)"; "T_DP(s)"; "T_RIP(s)"; "Speedup";
        "DP infeasible" ]
    ~rows:(List.map row rows)
