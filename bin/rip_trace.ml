(* rip_trace: offline companion for the cluster's observability dumps.

     rip_trace merge trace-router.json trace-s0.json trace-s1.json -o merged.json
     rip_trace query wide-router.jsonl wide-s0.jsonl --outcome degraded
     rip_trace check merged.json --require-multi-forward

   merge joins per-process Chrome-trace dumps (rip_serviced/rip_routerd
   --trace-out) into one timeline on the shared monotonic timebase;
   query filters and aggregates wide-event spools (--wide-events); check
   verifies that merged traces actually link across processes — that a
   shard's spans parent under the router's forward span — and can gate a
   CI run on failover traces being present and linked. *)

module Trace_merge = Rip_obs.Trace_merge
module Wide_event = Rip_obs.Wide_event
module Protocol = Rip_service.Protocol

(* ---------- merge ---------- *)

let run_merge files output =
  if files = [] then begin
    prerr_endline "rip_trace: merge needs at least one trace file";
    2
  end
  else
    match Trace_merge.merge_files files with
    | Error e ->
        Printf.eprintf "rip_trace: %s\n" e;
        1
    | Ok json -> (
        match output with
        | None ->
            print_string json;
            0
        | Some path ->
            let oc = open_out path in
            output_string oc json;
            close_out oc;
            Printf.eprintf "rip_trace: merged %d dumps into %s\n"
              (List.length files) path;
            0)

(* ---------- query ---------- *)

type filter = {
  outcome : string option;
  shard : string option;
  process : string option;
  trace_id : string option;
  failover : bool;
  spilled : bool;
  min_latency : float;  (* seconds *)
}

let matches f (e : Wide_event.t) =
  let opt_eq o v = match o with None -> true | Some s -> String.equal s v in
  opt_eq f.outcome e.outcome && opt_eq f.shard e.shard
  && opt_eq f.process e.process
  && opt_eq f.trace_id e.trace_id
  && ((not f.failover) || e.failover)
  && ((not f.spilled) || e.spilled)
  && e.latency >= f.min_latency

let count_by key events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let k = key e in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    events;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let run_query files outcome shard process trace_id failover spilled
    min_latency_ms print_lines =
  if files = [] then begin
    prerr_endline "rip_trace: query needs at least one spool file";
    2
  end
  else begin
    let f =
      {
        outcome;
        shard;
        process;
        trace_id;
        failover;
        spilled;
        min_latency = min_latency_ms /. 1000.0;
      }
    in
    let all = Wide_event.load_files files in
    let hits = List.filter (matches f) all in
    if print_lines then
      List.iter (fun e -> print_endline (Wide_event.to_line e)) hits
    else begin
      Printf.printf "events: %d matched of %d loaded\n" (List.length hits)
        (List.length all);
      let section title rows =
        if rows <> [] then begin
          Printf.printf "%s:\n" title;
          List.iter (fun (k, v) -> Printf.printf "  %-12s %d\n" k v) rows
        end
      in
      section "by outcome" (count_by (fun (e : Wide_event.t) -> e.outcome) hits);
      section "by shard"
        (count_by
           (fun (e : Wide_event.t) -> if e.shard = "" then "(none)" else e.shard)
           hits);
      section "by process" (count_by (fun (e : Wide_event.t) -> e.process) hits);
      let flag name pred =
        let n = List.length (List.filter pred hits) in
        if n > 0 then Printf.printf "%-14s %d\n" name n
      in
      flag "failover" (fun (e : Wide_event.t) -> e.failover);
      flag "spilled" (fun (e : Wide_event.t) -> e.spilled);
      let lat =
        List.map (fun (e : Wide_event.t) -> e.latency) hits |> Array.of_list
      in
      Array.sort Float.compare lat;
      (* The shared quantile convention, as in rip_loadgen and the
         server's histograms. *)
      let percentile q = Rip_numerics.Stats.quantile_sorted lat q in
      if Array.length lat > 0 then
        Printf.printf
          "latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f ms\n"
          (1000.0 *. percentile 0.50)
          (1000.0 *. percentile 0.95)
          (1000.0 *. percentile 0.99)
          (1000.0 *. lat.(Array.length lat - 1))
    end;
    0
  end

(* ---------- check ---------- *)

let run_check files require_multi =
  if files = [] then begin
    prerr_endline "rip_trace: check needs at least one trace file";
    2
  end
  else begin
    let dumps, errors =
      List.fold_left
        (fun (dumps, errors) file ->
          match Trace_merge.load_file file with
          | Ok d -> (d :: dumps, errors)
          | Error e -> (dumps, Printf.sprintf "%s: %s" file e :: errors))
        ([], []) files
    in
    if errors <> [] then begin
      List.iter (Printf.eprintf "rip_trace: %s\n") (List.rev errors);
      1
    end
    else begin
      let traces = Trace_merge.traces (List.rev dumps) in
      let total = List.length traces in
      let linked = ref 0 and multi_linked = ref 0 in
      List.iter
        (fun (_, spans) ->
          let forwards, is_linked = Trace_merge.analyse spans in
          if is_linked then begin
            incr linked;
            if forwards >= 2 then incr multi_linked
          end)
        traces;
      Printf.printf
        "traces: %d total, %d linked across processes, %d linked with \
         forwards to multiple shards (failover)\n"
        total !linked !multi_linked;
      if total = 0 then begin
        prerr_endline "rip_trace: check failed: no traces found";
        1
      end
      else if !linked = 0 then begin
        prerr_endline
          "rip_trace: check failed: no trace links a router forward span to \
           a shard span";
        1
      end
      else if require_multi && !multi_linked = 0 then begin
        prerr_endline
          "rip_trace: check failed: no linked trace shows a failover \
           request (forwards to >= 2 shards)";
        1
      end
      else 0
    end
  end

(* ---------- cmdliner ---------- *)

open Cmdliner

let files =
  Arg.(value & pos_all string [] & info [] ~docv:"FILE")

let merge_cmd =
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the merged Chrome-trace JSON here (default: stdout).")
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Merge per-process --trace-out dumps into one cross-process \
             Chrome-trace timeline (open in chrome://tracing or Perfetto).")
    Term.(const run_merge $ files $ output)

let query_cmd =
  let outcome =
    Arg.(
      value
      & opt
          (some
             (enum
                (List.map (fun o -> (o, o)) Protocol.outcomes)))
          None
      & info [ "outcome" ] ~docv:"O"
          ~doc:
            ("Keep only events with this outcome; $(docv) must be "
            ^ doc_alts Protocol.outcomes
            ^ "."))
  in
  let shard =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard" ] ~docv:"ID" ~doc:"Keep only events served by this shard.")
  in
  let process =
    Arg.(
      value
      & opt (some string) None
      & info [ "process" ] ~docv:"SCOPE"
          ~doc:"Keep only events emitted by this process (router, s0, ...).")
  in
  let trace_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-id" ] ~docv:"HEX"
          ~doc:"Keep only events belonging to this distributed trace.")
  in
  let failover =
    Arg.(value & flag & info [ "failover" ] ~doc:"Failover events only.")
  in
  let spilled =
    Arg.(
      value & flag
      & info [ "spilled" ]
          ~doc:
            "Events served by the key's second choice because its owner had \
             more forwards outstanding.")
  in
  let min_latency_ms =
    Arg.(
      value & opt float 0.0
      & info [ "min-latency-ms" ] ~docv:"MS"
          ~doc:"Keep only events at least this slow.")
  in
  let print_lines =
    Arg.(
      value & flag
      & info [ "print" ]
          ~doc:"Print the matching wide-event JSON lines instead of the \
                aggregate summary.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Filter and aggregate --wide-events spools.  Interesting events \
             (non-fresh/cached outcomes, failover/spill involvement) are \
             spooled at 100%, so their counts here are exact, not \
             estimates.")
    Term.(
      const run_query $ files $ outcome $ shard $ process $ trace_id
      $ failover $ spilled $ min_latency_ms $ print_lines)

let check_cmd =
  let require_multi =
    Arg.(
      value & flag
      & info [ "require-multi-forward" ]
          ~doc:"Also fail unless at least one linked trace carries forwards \
                to two or more distinct shards — evidence a failover \
                request propagated its context to both.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Verify cross-process linkage over the per-process trace dumps \
             (pass the same files merge takes): at least one trace must \
             contain a shard-recorded span whose parent is a router forward \
             span.  Exit 1 otherwise — the CI gate for tracing regressions.")
    Term.(const run_check $ files $ require_multi)

let main =
  Cmd.group
    (Cmd.info "rip_trace" ~version:"1.0.0"
       ~doc:"Merge, query and verify the solve cluster's distributed traces \
             and wide-event spools")
    [ merge_cmd; query_cmd; check_cmd ]

let () = exit (Cmd.eval' main)
