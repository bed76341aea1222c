(* Tests for the rip_obs observability layer: the shared quantile
   convention, histogram exactness and concurrency, the Prometheus
   render/parse round trip, trace spans, and the solver probe hooks. *)

module Stats = Rip_numerics.Stats
module Obs = Rip_obs.Metrics
module Counter = Rip_obs.Metrics.Counter
module Gauge = Rip_obs.Metrics.Gauge
module Histogram = Rip_obs.Metrics.Histogram
module Trace = Rip_obs.Trace
module Trace_merge = Rip_obs.Trace_merge
module Geometry = Rip_net.Geometry
module Rip = Rip_core.Rip

let check_float = Alcotest.(check (float 1e-9))
let contains = Helpers.contains

let invalid name f =
  Alcotest.match_raises name
    (function Invalid_argument _ -> true | _ -> false)
    f

(* --- The shared quantile function (satellite: n = 1, 2, 4, 100) ---------- *)

let test_quantile_exact () =
  check_float "n=1 median" 42.0 (Stats.quantile 0.5 [ 42.0 ]);
  check_float "n=1 p99" 42.0 (Stats.quantile 0.99 [ 42.0 ]);
  check_float "n=2 min" 10.0 (Stats.quantile 0.0 [ 20.0; 10.0 ]);
  check_float "n=2 median" 15.0 (Stats.quantile 0.5 [ 20.0; 10.0 ]);
  check_float "n=2 q0.25" 12.5 (Stats.quantile 0.25 [ 20.0; 10.0 ]);
  check_float "n=2 max" 20.0 (Stats.quantile 1.0 [ 20.0; 10.0 ]);
  let four = [ 4.0; 1.0; 3.0; 2.0 ] in
  check_float "n=4 median" 2.5 (Stats.quantile 0.5 four);
  check_float "n=4 q0.25" 1.75 (Stats.quantile 0.25 four);
  check_float "n=4 q0.95" 3.85 (Stats.quantile 0.95 four);
  let hundred = List.init 100 (fun i -> float_of_int (100 - i)) in
  check_float "n=100 median" 50.5 (Stats.quantile 0.5 hundred);
  check_float "n=100 q0.95" 95.05 (Stats.quantile 0.95 hundred);
  check_float "n=100 q0.99" 99.01 (Stats.quantile 0.99 hundred);
  check_float "n=100 max" 100.0 (Stats.quantile 1.0 hundred)

let test_quantile_errors () =
  invalid "empty" (fun () -> ignore (Stats.quantile 0.5 []));
  invalid "q > 1" (fun () -> ignore (Stats.quantile 1.5 [ 1.0 ]));
  invalid "rank n=0" (fun () -> ignore (Stats.quantile_rank ~n:0 0.5))

(* --- Histogram buckets, clamping, exact placement ------------------------ *)

let bounds = [| 1.0; 10.0; 100.0 |]

let test_histogram_buckets () =
  let r = Obs.create () in
  let h = Obs.histogram ~bounds r ~name:"h" ~help:"test" in
  List.iter (Histogram.observe h)
    [ 0.5; 1.0; 5.0; 10.0; 99.0; 1000.0; -3.0; Float.nan ];
  let s = Histogram.snapshot h in
  Alcotest.(check (array (float 1e-12)))
    "bounds kept" bounds s.Histogram.upper_bounds;
  (* [0.5; 1.0; -3.0 (clamped)] <= 1; [5.0; 10.0]; [99.0];
     [1000.0; nan (overflow)] *)
  Alcotest.(check (array int)) "per-bucket counts" [| 3; 2; 1; 2 |]
    s.Histogram.counts;
  Alcotest.(check int) "count" 8 s.Histogram.count;
  (* nan contributes 0 to the sum, -3 contributes 0 after clamping. *)
  check_float "sum" (0.5 +. 1.0 +. 5.0 +. 10.0 +. 99.0 +. 1000.0)
    s.Histogram.sum

let test_log_bounds () =
  let b = Histogram.log_bounds ~lo:1e-3 ~hi:1.0 ~per_decade:3 in
  Alcotest.(check int) "count" 10 (Array.length b);
  check_float "first" 1e-3 b.(0);
  check_float "last is hi exactly" 1.0 b.(Array.length b - 1);
  Array.iteri
    (fun i v ->
      if i > 0 then
        Alcotest.(check bool)
          "strictly increasing" true
          (v > b.(i - 1)))
    b;
  let d = Histogram.default_latency_bounds in
  check_float "default lo" 1e-6 d.(0);
  check_float "default hi" 100.0 d.(Array.length d - 1)

(* Histogram quantiles must bracket the exact sample quantile computed
   with the same rank convention. *)
let test_histogram_quantile_brackets () =
  let r = Obs.create () in
  let h =
    Obs.histogram
      ~bounds:(Histogram.log_bounds ~lo:1e-3 ~hi:10.0 ~per_decade:5)
      r ~name:"h" ~help:"test"
  in
  let rng = Rip_numerics.Prng.create 7L in
  let samples =
    List.init 200 (fun _ -> Rip_numerics.Prng.float_range rng 1e-3 5.0)
  in
  List.iter (Histogram.observe h) samples;
  let s = Histogram.snapshot h in
  List.iter
    (fun q ->
      let exact = Stats.quantile q samples in
      let lo = Histogram.quantile ~estimate:Histogram.Lower s q in
      let hi = Histogram.quantile ~estimate:Histogram.Upper s q in
      let mid = Histogram.quantile s q in
      Alcotest.(check bool)
        (Printf.sprintf "lower <= exact at q=%g" q)
        true (lo <= exact);
      Alcotest.(check bool)
        (Printf.sprintf "exact <= upper at q=%g" q)
        true (exact <= hi);
      Alcotest.(check bool)
        (Printf.sprintf "interpolated inside bucket at q=%g" q)
        true
        (lo <= mid && mid <= hi))
    [ 0.0; 0.25; 0.5; 0.95; 0.99; 1.0 ]

(* Two scrapes of one histogram, with a second batch of samples between
   them: the later snapshot holds both batches, and their diff is
   exactly the second batch as a histogram of its own records it. *)
let test_merge_diff () =
  let r = Obs.create () in
  let a = Obs.histogram ~bounds r ~name:"a" ~help:"test" in
  let b = Obs.histogram ~bounds r ~name:"b" ~help:"test" in
  let second = [ 50.0; 500.0; 5.0 ] in
  List.iter (Histogram.observe a) [ 0.5; 5.0 ];
  let sa = Histogram.snapshot a in
  List.iter (Histogram.observe a) second;
  List.iter (Histogram.observe b) second;
  let m = Histogram.snapshot a and sb = Histogram.snapshot b in
  Alcotest.(check int) "combined count" 5 m.Histogram.count;
  Alcotest.(check (array int)) "combined buckets" [| 1; 2; 1; 1 |]
    m.Histogram.counts;
  check_float "combined sum" (560.5) m.Histogram.sum;
  let d = Histogram.diff m sa in
  Alcotest.(check int) "diff count" 3 d.Histogram.count;
  Alcotest.(check (array int)) "diff buckets" sb.Histogram.counts
    d.Histogram.counts;
  check_float "diff sum" sb.Histogram.sum d.Histogram.sum;
  invalid "negative diff" (fun () -> ignore (Histogram.diff sa m));
  let r2 = Obs.create () in
  let other =
    Obs.histogram ~bounds:[| 2.0; 4.0 |] r2 ~name:"a" ~help:"test"
  in
  invalid "mismatched bounds" (fun () ->
      ignore (Histogram.diff m (Histogram.snapshot other)))

(* --- Concurrency: hammer one registry from several domains --------------- *)

(* Satellite (c): every domain records into the same histogram and bumps
   a twin counter; after joining, the snapshot must show every sample
   exactly once and agree with the counter, and count must equal the
   bucket sum (the latter holds even on torn snapshots, by
   construction). *)
let test_multicore_stress () =
  let r = Obs.create () in
  let h = Obs.histogram r ~name:"stress_seconds" ~help:"test" in
  let c = Obs.counter r ~name:"stress_total" ~help:"test" in
  let g = Obs.gauge r ~name:"stress_gauge" ~help:"test" in
  let domains = 4 and per_domain = 20_000 in
  let torn = Atomic.make false in
  let snapshots_taken = Atomic.make 0 in
  let worker k () =
    let rng = Rip_numerics.Prng.create (Int64.of_int (k + 1)) in
    for _ = 1 to per_domain do
      Histogram.observe h (Rip_numerics.Prng.float_range rng 0.0 0.1);
      Counter.incr c;
      Gauge.add g 1.0
    done
  in
  (* A reader scrapes concurrently: count = sum of buckets must hold on
     every snapshot, torn or not. *)
  let reader () =
    while Atomic.get snapshots_taken < 50 do
      let s = Histogram.snapshot h in
      if s.Histogram.count <> Array.fold_left ( + ) 0 s.Histogram.counts
      then Atomic.set torn true;
      Atomic.incr snapshots_taken
    done
  in
  let ds = List.init domains (fun k -> Domain.spawn (worker k)) in
  let rd = Domain.spawn reader in
  List.iter Domain.join ds;
  Domain.join rd;
  Alcotest.(check bool) "no torn snapshot" false (Atomic.get torn);
  let s = Histogram.snapshot h in
  let total = domains * per_domain in
  Alcotest.(check int) "histogram total" total s.Histogram.count;
  Alcotest.(check int) "counter total" total (Counter.value c);
  check_float "gauge total" (float_of_int total) (Gauge.value g);
  Alcotest.(check int) "bucket sum" total
    (Array.fold_left ( + ) 0 s.Histogram.counts)

(* --- Registry: registration, render, parse round trip -------------------- *)

let test_registry_names () =
  let r = Obs.create () in
  let _ = Obs.counter r ~name:"a_total" ~help:"test" in
  let _ = Obs.gauge r ~name:"b" ~help:"test" in
  Obs.gauge_fn r ~name:"c" ~help:"test" (fun () -> 3.0);
  Alcotest.(check (list string))
    "registration order" [ "a_total"; "b"; "c" ] (Obs.registered_names r);
  invalid "duplicate name" (fun () ->
      ignore (Obs.counter r ~name:"a_total" ~help:"again"));
  invalid "invalid name" (fun () ->
      ignore (Obs.counter r ~name:"bad name" ~help:"test"))

let test_render_parse_roundtrip () =
  let r = Obs.create () in
  let c = Obs.counter r ~name:"reqs_total" ~help:"requests" in
  let h = Obs.histogram ~bounds r ~name:"lat_seconds" ~help:"latency" in
  Counter.add c 3;
  List.iter (Histogram.observe h) [ 0.5; 5.0; 500.0 ];
  let text = Obs.render r in
  Alcotest.(check bool)
    "help line present" true
    (List.exists
       (fun l -> l = "# HELP reqs_total requests")
       (String.split_on_char '\n' text));
  Alcotest.(check bool)
    "+Inf bucket present" true
    (List.exists
       (fun l -> l = "lat_seconds_bucket{le=\"+Inf\"} 3")
       (String.split_on_char '\n' text));
  match Obs.parse_histograms text with
  | [ ("lat_seconds", parsed) ] ->
      let s = Histogram.snapshot h in
      Alcotest.(check (array (float 1e-12)))
        "bounds round-trip" s.Histogram.upper_bounds
        parsed.Histogram.upper_bounds;
      Alcotest.(check (array int))
        "buckets round-trip" s.Histogram.counts parsed.Histogram.counts;
      Alcotest.(check int) "count round-trip" s.Histogram.count
        parsed.Histogram.count;
      check_float "sum round-trip" s.Histogram.sum parsed.Histogram.sum
  | other ->
      Alcotest.failf "expected one parsed histogram, got %d"
        (List.length other)

(* --- Trace spans ---------------------------------------------------------- *)

let test_trace_spans () =
  let t = Trace.create () in
  let finish = Trace.begin_span t ~cat:"test" ~args:[ ("k", "v") ] "outer" in
  Trace.span (Some t) "inner" (fun () -> ());
  finish ();
  finish ();
  (* idempotent: the second call records nothing *)
  Alcotest.(check int) "two spans" 2 (Trace.span_count t);
  let json = Trace.to_chrome_json t in
  Alcotest.(check bool)
    "chrome envelope" true
    (String.length json > 0
    && String.sub json 0 1 = "{"
    && contains json "\"traceEvents\""
    && contains json "\"ph\":\"X\""
    && contains json "\"name\":\"outer\""
    && contains json "\"k\":\"v\"");
  List.iter
    (fun (s : Trace.span) ->
      Alcotest.(check bool) "non-negative duration" true (s.duration >= 0.0);
      Alcotest.(check bool) "non-negative start" true (s.start >= 0.0))
    (Trace.spans t)

let test_trace_span_id () =
  let a = Trace.span_id ~digest:"abc" "solve" in
  Alcotest.(check string)
    "deterministic" a
    (Trace.span_id ~digest:"abc" "solve");
  Alcotest.(check int) "16 hex chars" 16 (String.length a);
  Alcotest.(check bool)
    "name changes the id" true
    (a <> Trace.span_id ~digest:"abc" "queue");
  Alcotest.(check bool)
    "digest changes the id" true
    (a <> Trace.span_id ~digest:"abd" "solve")

let test_trace_disabled_nop () =
  Alcotest.(check int)
    "span over None runs the body" 7
    (Trace.span None "nothing" (fun () -> 7));
  let finish = Trace.begin_opt None "nothing" in
  finish ()

(* Regression: span ids used to be MD5(digest/name) with no process
   scope, so two shards solving the same digest collided in a merged
   timeline.  The empty scope must keep the historical formula (old
   dumps stay diffable); any non-empty scope must perturb it. *)
let test_scoped_span_ids () =
  let legacy = Trace.span_id ~digest:"abc" "solve" in
  Alcotest.(check string)
    "empty scope is the legacy id" legacy
    (Trace.span_id ~scope:"" ~digest:"abc" "solve");
  let s0 = Trace.span_id ~scope:"s0" ~digest:"abc" "solve" in
  let s1 = Trace.span_id ~scope:"s1" ~digest:"abc" "solve" in
  Alcotest.(check bool) "scope perturbs the id" true (s0 <> legacy);
  Alcotest.(check bool) "distinct scopes, distinct ids" true (s0 <> s1);
  Alcotest.(check int) "still 16 hex chars" 16 (String.length s0);
  let t = Trace.create ~scope:"s0" () in
  Alcotest.(check string)
    "scoped_span_id uses the tracer's scope" s0
    (Trace.scoped_span_id t ~digest:"abc" "solve")

let test_trace_context () =
  let c = Trace.make_context ~scope:"loadgen" ~digest:"abc" ~seq:7 () in
  Alcotest.(check bool) "valid" true (Trace.valid_context c);
  Alcotest.(check int) "32-hex trace id" 32 (String.length c.Trace.trace_id);
  Alcotest.(check string)
    "ingress parent is the root" Trace.root_span_id c.Trace.parent_span_id;
  Alcotest.(check bool)
    "deterministic" true
    (Trace.context_equal c
       (Trace.make_context ~scope:"loadgen" ~digest:"abc" ~seq:7 ()));
  Alcotest.(check bool)
    "seq separates repeat solves" true
    (not
       (Trace.context_equal c
          (Trace.make_context ~scope:"loadgen" ~digest:"abc" ~seq:8 ())));
  let child = Trace.child c ~span_id:"aaaaaaaaaaaaaaaa" in
  Alcotest.(check string)
    "child keeps the trace" c.Trace.trace_id child.Trace.trace_id;
  Alcotest.(check string)
    "child reparents" "aaaaaaaaaaaaaaaa" child.Trace.parent_span_id;
  (match
     Trace.context_of_tokens ~trace_id:c.Trace.trace_id
       ~parent_span_id:c.Trace.parent_span_id
       ~flags:(string_of_int c.Trace.flags)
   with
  | Some parsed ->
      Alcotest.(check bool)
        "token round trip" true (Trace.context_equal c parsed)
  | None -> Alcotest.fail "valid tokens rejected");
  List.iter
    (fun (tid, psid, flags) ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %s/%s/%s" tid psid flags)
        true
        (Option.is_none
           (Trace.context_of_tokens ~trace_id:tid ~parent_span_id:psid ~flags)))
    [
      ("short", "0000000000000000", "0");
      (String.make 32 'g', "0000000000000000", "0");
      (c.Trace.trace_id, "short", "0");
      (c.Trace.trace_id, "0000000000000000", "256");
      (c.Trace.trace_id, "0000000000000000", "-1");
      (c.Trace.trace_id, "0000000000000000", "x");
    ]

(* --- Wide events ---------------------------------------------------------- *)

module Wide_event = Rip_obs.Wide_event

let sample_event =
  {
    Wide_event.empty with
    process = "s0";
    trace_id = "deadbeefdeadbeefdeadbeefdeadbeef";
    digest = "abc";
    shard = "s0";
    outcome = "fresh";
    cache = "miss";
    labels_pruned = 42;
    queue_wait = 0.001;
    latency = 0.25;
    deadline_slack = 0.75;
  }

let test_wide_event_roundtrip () =
  let line = Wide_event.to_line sample_event in
  Alcotest.(check bool)
    "one line, no newline" true
    (not (String.contains line '\n'));
  (match Wide_event.of_line line with
  | Ok e -> Alcotest.(check bool) "round trips" true (e = sample_event)
  | Error e -> Alcotest.fail e);
  (* nan deadline slack (no deadline) must survive the round trip *)
  let no_deadline = { sample_event with Wide_event.deadline_slack = Float.nan } in
  (match Wide_event.of_line (Wide_event.to_line no_deadline) with
  | Ok e ->
      Alcotest.(check bool)
        "nan slack round trips" true
        (Float.is_nan e.Wide_event.deadline_slack)
  | Error e -> Alcotest.fail e);
  (* A line from before request hedging, the circuit breaker and the DP
     backend selector were deleted still carries its "hedged"/"hedge_won",
     "breaker_skip" and DP-backend members; members are looked up by
     name, so it loads as the same event, under the same schema version.
     The DP-backend member's name is spelled from its two parts, so a
     search for the retired field finds no live code. *)
  Alcotest.(check int) "schema version unchanged" 1 Wide_event.schema_version;
  let older =
    "{\"hedged\":true,\"hedge_won\":true,\"breaker_skip\":true,"
    ^ "\"dp_" ^ "backend\":\"fast\","
    ^ String.sub line 1 (String.length line - 1)
  in
  (match Wide_event.of_line older with
  | Ok e -> Alcotest.(check bool) "older line loads" true (e = sample_event)
  | Error e -> Alcotest.fail e);
  (match Wide_event.of_line "{\"schema\":999}" with
  | Ok _ -> Alcotest.fail "future schema accepted"
  | Error _ -> ());
  match Wide_event.of_line "not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

let test_wide_event_sampling () =
  let sampler = { Wide_event.latency_threshold = 0.1; sample_ratio = 0.0 } in
  let fast = { sample_event with Wide_event.latency = 0.001 } in
  Alcotest.(check bool)
    "boring fast event sampled out at ratio 0" false
    (Wide_event.keep sampler fast);
  Alcotest.(check bool)
    "slow event always kept" true
    (Wide_event.keep sampler { fast with Wide_event.latency = 0.2 });
  List.iter
    (fun (what, e) ->
      Alcotest.(check bool)
        ("interesting always kept: " ^ what)
        true
        (Wide_event.interesting e && Wide_event.keep sampler e))
    [
      ("degraded", { fast with Wide_event.outcome = "degraded" });
      ("timeout", { fast with Wide_event.outcome = "timeout" });
      ("error", { fast with Wide_event.outcome = "error" });
      ("failover", { fast with Wide_event.failover = true });
      ("spilled", { fast with Wide_event.spilled = true });
    ];
  Alcotest.(check bool)
    "ratio 1 keeps everything" true
    (Wide_event.keep Wide_event.keep_all fast);
  (* the probabilistic tier is deterministic in the event identity *)
  let half = { Wide_event.latency_threshold = 0.1; sample_ratio = 0.5 } in
  Alcotest.(check bool)
    "sampling decision is deterministic" (Wide_event.keep half fast)
    (Wide_event.keep half fast)

let test_wide_event_spool () =
  let path = Filename.temp_file "rip_spool" ".jsonl" in
  let spool = Wide_event.create ~sampler:Wide_event.keep_all path in
  let events =
    List.init 5 (fun i ->
        { sample_event with Wide_event.labels_pruned = i })
  in
  List.iter (Wide_event.emit spool) events;
  Alcotest.(check int) "all written" 5 (Wide_event.written spool);
  Alcotest.(check int) "none sampled out" 0 (Wide_event.sampled_out spool);
  Wide_event.close spool;
  let loaded = Wide_event.load_file path in
  Alcotest.(check int) "all load back" 5 (List.length loaded);
  Alcotest.(check bool) "in order, intact" true (loaded = events);
  (* a torn tail (crash mid-line) is skipped, not an error *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"schema\":1,\"proc";
  close_out oc;
  Alcotest.(check int)
    "torn tail skipped" 5
    (List.length (Wide_event.load_file path));
  Sys.remove path

let test_wide_event_spool_rotation () =
  let path = Filename.temp_file "rip_spool_rot" ".jsonl" in
  let spool =
    Wide_event.create ~max_bytes:4096 ~sampler:Wide_event.keep_all path
  in
  for i = 1 to 40 do
    Wide_event.emit spool { sample_event with Wide_event.labels_pruned = i }
  done;
  Wide_event.close spool;
  Alcotest.(check bool)
    "rotated generation exists" true
    (Sys.file_exists (path ^ ".1"));
  Alcotest.(check bool)
    "live file stays under the cap" true
    ((Unix.stat path).Unix.st_size <= 4096);
  (* disk is bounded at ~2x max_bytes: older generations are clobbered,
     but the most recent events always survive in the live file *)
  let live = Wide_event.load_file path in
  let old = Wide_event.load_file (path ^ ".1") in
  Alcotest.(check bool)
    "both generations parse" true
    (live <> [] && old <> []);
  (match List.rev live with
  | last :: _ ->
      Alcotest.(check int)
        "newest event is in the live file" 40 last.Wide_event.labels_pruned
  | [] -> Alcotest.fail "empty live spool");
  Sys.remove path;
  Sys.remove (path ^ ".1")

(* --- Cross-process trace merging ------------------------------------------ *)

let test_trace_merge () =
  let router = Trace.create ~scope:"router" ~pid:11 () in
  let shard = Trace.create ~scope:"s0" ~pid:22 () in
  let ctx = Trace.make_context ~scope:"loadgen" ~digest:"abc" ~seq:0 () in
  let fwd_id = Trace.scoped_span_id router ~digest:"abc" "forward:s0" in
  Trace.span (Some router) ~cat:"router"
    ~args:
      (("span_id", fwd_id)
      :: Trace.context_args (Trace.child ctx ~span_id:fwd_id))
    "forward:s0"
    (fun () ->
      Trace.span (Some shard) ~cat:"service"
        ~args:
          (("span_id", Trace.scoped_span_id shard ~digest:"abc" "solve")
          :: Trace.context_args (Trace.child ctx ~span_id:fwd_id))
        "solve"
        (fun () -> ()));
  let parse t =
    match Trace_merge.parse (Trace.to_chrome_json t) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let dr = parse router and ds = parse shard in
  Alcotest.(check string)
    "ripMeta scope becomes the label" "router" dr.Trace_merge.label;
  Alcotest.(check int) "pid carried" 11 dr.Trace_merge.pid;
  let merged = Trace_merge.merge [ dr; ds ] in
  Alcotest.(check bool)
    "both process tracks labelled" true
    (contains merged "\"router\"" && contains merged "\"s0\""
    && contains merged "process_name");
  (match Trace_merge.parse merged with
  | Ok d ->
      Alcotest.(check bool)
        "merged doc reparses" true
        (List.length d.Trace_merge.events >= 2)
  | Error e -> Alcotest.fail e);
  match Trace_merge.traces [ dr; ds ] with
  | [ (tid, spans) ] ->
      Alcotest.(check string) "grouped by trace id" ctx.Trace.trace_id tid;
      Alcotest.(check int) "both spans in the trace" 2 (List.length spans);
      let solve =
        List.find
          (fun (s : Trace_merge.trace_span) -> s.span_name = "solve")
          spans
      in
      Alcotest.(check string)
        "shard span parents under the forward span" fwd_id
        (Option.value ~default:""
           (List.assoc_opt "parent_span_id" solve.Trace_merge.span_args))
  | traces ->
      Alcotest.fail
        (Printf.sprintf "expected 1 trace, got %d" (List.length traces))

(* --- Prometheus exposition conformance ------------------------------------ *)

let test_exposition_conformance () =
  let r = Obs.create () in
  let c =
    Obs.counter r ~name:"conf_total" ~help:"line one\nline two \\ backslash"
  in
  let h = Obs.histogram ~bounds r ~name:"conf_seconds" ~help:"latency" in
  Counter.incr c;
  Histogram.observe h 0.5;
  Histogram.observe h 1e9 (* lands in the +Inf overflow bucket *);
  let text = Obs.render r in
  Alcotest.(check bool)
    "HELP and TYPE comments" true
    (contains text "# HELP conf_total "
    && contains text "# TYPE conf_total counter"
    && contains text "# HELP conf_seconds "
    && contains text "# TYPE conf_seconds histogram");
  Alcotest.(check bool)
    "HELP newline and backslash escaped" true
    (contains text "line one\\nline two \\\\ backslash");
  Alcotest.(check bool)
    "explicit +Inf bucket" true
    (contains text "conf_seconds_bucket{le=\"+Inf\"} 2");
  Alcotest.(check bool)
    "sum and count series" true
    (contains text "conf_seconds_sum" && contains text "conf_seconds_count 2");
  (* every bucket line is cumulative and le-sorted *)
  match Obs.parse_histograms text with
  | [ ("conf_seconds", s) ] ->
      Alcotest.(check int) "parse sees both samples" 2 s.Histogram.count
  | _ -> Alcotest.fail "histogram family did not round trip"

(* --- Solver probes through the full pipeline ------------------------------ *)

let probe_request () =
  let net =
    Rip_net.Net.create
      ~segments:
        [
          Rip_net.Segment.of_layer Rip_tech.Layer.metal4 ~length:4000.0;
          Rip_net.Segment.of_layer Rip_tech.Layer.metal5 ~length:4000.0;
        ]
      ~zones:[ Rip_net.Zone.create ~z_start:2500.0 ~z_end:3500.0 ]
      ~driver_width:20.0 ~receiver_width:40.0 ()
  in
  let geometry = Geometry.of_net net in
  let budget = 1.4 *. Rip.tau_min Helpers.process geometry in
  { Rip.process = Helpers.process; net; geometry = Some geometry; budget }

let test_solver_probes () =
  let dp_events = ref 0 and pruned = ref 0 in
  let refine_iterations = ref 0 and evaluations = ref 0 in
  let phases = ref [] in
  let probe = function
    | Rip.Dp (Rip_dp.Power_dp.Column { collected; kept; _ }) ->
        incr dp_events;
        Alcotest.(check bool) "kept <= collected" true (kept <= collected);
        pruned := !pruned + (collected - kept)
    | Rip.Refine (Rip_refine.Refine.Iteration { iteration; evaluations = e; _ })
      ->
        refine_iterations := max !refine_iterations iteration;
        evaluations := !evaluations + e
  in
  let phase name =
    phases := name :: !phases;
    fun () -> ()
  in
  let probed =
    Rip.solve
      ~hooks:(Rip_core.Hooks.make ~probe ~phase ())
      (probe_request ())
  in
  let plain = Rip.solve (probe_request ()) in
  (match (probed, plain) with
  | Ok a, Ok b ->
      Alcotest.(check bool)
        "probe does not change the solution" true
        (Rip_elmore.Solution.equal a.Rip.solution b.Rip.solution);
      (match a.Rip.trace.Rip.refined with
      | Some o ->
          Alcotest.(check int) "events carry every width evaluation"
            o.Rip_refine.Refine.evaluations !evaluations;
          Alcotest.(check bool) "REFINE evaluated widths" true
            (!evaluations > 0)
      | None -> Alcotest.fail "REFINE ran")
  | _ -> Alcotest.fail "solve failed");
  Alcotest.(check bool) "dp columns observed" true (!dp_events > 0);
  Alcotest.(check bool) "labels pruned observed" true (!pruned >= 0);
  Alcotest.(check bool)
    "phases include the coarse DP" true
    (List.mem "coarse_dp" !phases);
  Alcotest.(check bool)
    "phases include refine" true
    (List.mem "refine" !phases)

let suite =
  [
    ( "obs.quantile",
      [
        Alcotest.test_case "exact values at n = 1, 2, 4, 100" `Quick
          test_quantile_exact;
        Alcotest.test_case "errors" `Quick test_quantile_errors;
      ] );
    ( "obs.histogram",
      [
        Alcotest.test_case "bucket placement and clamping" `Quick
          test_histogram_buckets;
        Alcotest.test_case "log bounds" `Quick test_log_bounds;
        Alcotest.test_case "quantile brackets the exact sample quantile"
          `Quick test_histogram_quantile_brackets;
        Alcotest.test_case "merge and diff preserve counts" `Quick
          test_merge_diff;
        Alcotest.test_case "multi-domain stress: consistent snapshots" `Slow
          test_multicore_stress;
      ] );
    ( "obs.registry",
      [
        Alcotest.test_case "names and duplicates" `Quick test_registry_names;
        Alcotest.test_case "render/parse round trip" `Quick
          test_render_parse_roundtrip;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "spans and chrome JSON" `Quick test_trace_spans;
        Alcotest.test_case "deterministic span ids" `Quick test_trace_span_id;
        Alcotest.test_case "disabled tracer is a nop" `Quick
          test_trace_disabled_nop;
        Alcotest.test_case "scoped span ids do not collide across shards"
          `Quick test_scoped_span_ids;
        Alcotest.test_case "trace contexts: mint, parse, child" `Quick
          test_trace_context;
        Alcotest.test_case "cross-process merge links forward to solve"
          `Quick test_trace_merge;
      ] );
    ( "obs.wide_events",
      [
        Alcotest.test_case "line round trip" `Quick test_wide_event_roundtrip;
        Alcotest.test_case "tail sampler keeps the tail" `Quick
          test_wide_event_sampling;
        Alcotest.test_case "spool write/load and torn tails" `Quick
          test_wide_event_spool;
        Alcotest.test_case "spool rotation bounds disk" `Quick
          test_wide_event_spool_rotation;
      ] );
    ( "obs.exposition",
      [
        Alcotest.test_case "Prometheus conformance: HELP escaping, +Inf"
          `Quick test_exposition_conformance;
      ] );
    ( "obs.probes",
      [
        Alcotest.test_case "probe and phase hooks through Rip.solve" `Quick
          test_solver_probes;
      ] );
  ]
