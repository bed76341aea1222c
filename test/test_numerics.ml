(* Unit and property tests for Rip_numerics. *)

module Bracket = Rip_numerics.Bracket
module Stats = Rip_numerics.Stats
module Prng = Rip_numerics.Prng

let check_float = Alcotest.(check (float 1e-9))
let qcheck = QCheck_alcotest.to_alcotest

(* --- Bracket ----------------------------------------------------------- *)

let test_bisect_linear () =
  let root =
    Bracket.bisect ~f:(fun x -> x -. 3.0) ~lo:0.0 ~hi:10.0 ~tol:1e-12
      ~max_iter:200
  in
  check_float "root" 3.0 root

let test_bisect_cos () =
  let root =
    Bracket.bisect ~f:cos ~lo:0.0 ~hi:3.0 ~tol:1e-12 ~max_iter:200
  in
  Alcotest.(check (float 1e-9)) "pi/2" (Float.pi /. 2.0) root

let test_bisect_requires_sign_change () =
  Alcotest.check_raises "no sign change"
    (Invalid_argument "Bracket.bisect: endpoints do not straddle zero")
    (fun () ->
      ignore
        (Bracket.bisect ~f:(fun x -> x +. 10.0) ~lo:0.0 ~hi:1.0 ~tol:1e-9
           ~max_iter:10))

let test_expand_bracket () =
  match
    Bracket.expand_bracket ~f:(fun x -> x -. 1000.0) ~lo:0.1 ~hi:1.0
      ~max_expansions:20
  with
  | Some (lo, hi) ->
      Alcotest.(check bool) "straddles" true (lo < 1000.0 && hi > 1000.0)
  | None -> Alcotest.fail "expected a bracket"

let test_expand_bracket_failure () =
  match
    Bracket.expand_bracket ~f:(fun _ -> 1.0) ~lo:0.1 ~hi:1.0
      ~max_expansions:4
  with
  | None -> ()
  | Some _ -> Alcotest.fail "no bracket exists"

let test_find_root () =
  match Bracket.find_root ~f:(fun x -> (x *. x) -. 2.0) ~lo:0.5 ~hi:1.0
          ~tol:1e-12 with
  | Bracket.Root r -> Alcotest.(check (float 1e-9)) "sqrt2" (sqrt 2.0) r
  | Bracket.No_sign_change _ -> Alcotest.fail "root exists"

let prop_bisect_monotone_cubic =
  (* find_root's bracket expansion is designed for the solver's positive
     half-line (Lagrange multipliers), so the root is kept positive. *)
  QCheck.Test.make ~name:"bisect solves monotone cubics" ~count:200
    QCheck.(pair (float_range 0.1 5.0) (float_range 0.1 50.0))
    (fun (a, b) ->
      let f x = (a *. x *. x *. x) +. x -. b in
      match Bracket.find_root ~f ~lo:1e-6 ~hi:1.0 ~tol:1e-12 with
      | Bracket.Root r -> Float.abs (f r) < 1e-6 *. (1.0 +. Float.abs b)
      | Bracket.No_sign_change _ -> false)

(* Plain regula falsi on a convex or concave function keeps one bracket
   end for good, so the bracket shrinks from one side only; bisection
   takes about 40 evaluations to 1e-12 here.  The root must still be
   found to [tol] within a ceiling of evaluations that only a method
   moving both ends meets (the ceiling holds for every c on a fine grid
   of the range; bisection needs at least 36 anywhere on it). *)
let prop_bisect_no_stagnation =
  QCheck.Test.make ~name:"bisect converges where regula falsi stagnates"
    ~count:200
    QCheck.(pair bool (float_range 0.5 4.0))
    (fun (quintic, exponent) ->
      let c = 10.0 ** exponent in
      let g, root =
        if quintic then ((fun x -> (x ** 5.0) -. c), c ** 0.2)
        else ((fun x -> exp x -. c), log c)
      in
      let evaluations = ref 0 in
      let f x =
        incr evaluations;
        g x
      in
      let tol = 1e-12 in
      let r = Bracket.bisect ~f ~lo:0.0 ~hi:(root +. 1.0) ~tol ~max_iter:200 in
      Float.abs (r -. root) <= (tol *. root) +. 1e-15 && !evaluations <= 35)

(* --- Stats -------------------------------------------------------------- *)

let test_stats_basics () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "mean empty" 0.0 (Stats.mean []);
  check_float "max" 3.0 (Stats.max_value [ 1.0; 3.0; 2.0 ]);
  check_float "min" 1.0 (Stats.min_value [ 2.0; 1.0; 3.0 ]);
  check_float "stddev pair" 1.0 (Stats.stddev [ 1.0; 3.0 ]);
  check_float "stddev singleton" 0.0 (Stats.stddev [ 5.0 ])

let test_percentile () =
  let xs = [ 4.0; 1.0; 3.0; 2.0 ] in
  check_float "p0" 1.0 (Stats.quantile 0.0 xs);
  check_float "p100" 4.0 (Stats.quantile 1.0 xs);
  check_float "median" 2.5 (Stats.quantile 0.5 xs)

let test_percentile_errors () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.quantile: empty list") (fun () ->
      ignore (Stats.quantile 0.5 []));
  Alcotest.check_raises "range"
    (Invalid_argument "Stats.quantile_rank: q outside [0,1]") (fun () ->
      ignore (Stats.quantile 1.5 [ 1.0 ]))

let test_ratio_percent () =
  check_float "half" 50.0 (Stats.ratio_percent 100.0 50.0);
  check_float "zero base" 0.0 (Stats.ratio_percent 0.0 50.0);
  check_float "negative saving" (-50.0) (Stats.ratio_percent 100.0 150.0)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 30) (float_range (-100.) 100.))
    (fun xs ->
      let m = Stats.mean xs in
      m >= Stats.min_value xs -. 1e-9 && m <= Stats.max_value xs +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:300
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 20) (float_range (-10.) 10.))
        (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (xs, p1, p2) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.quantile lo xs <= Stats.quantile hi xs +. 1e-12)

(* --- Prng --------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a)
      (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1L and b = Prng.create 2L in
  Alcotest.(check bool) "different streams" true
    (Prng.next_int64 a <> Prng.next_int64 b)

let test_prng_derive_is_stable () =
  let parent = Prng.create 7L in
  (* Consuming from the parent must not change derived streams. *)
  let d1 = Prng.derive parent 3L in
  ignore (Prng.next_int64 parent);
  let d2 = Prng.derive parent 3L in
  Alcotest.(check int64) "derive independent of consumption"
    (Prng.next_int64 d1) (Prng.next_int64 d2)

let test_prng_bool_varies () =
  let g = Prng.create 11L in
  let values = List.init 64 (fun _ -> Prng.bool g) in
  Alcotest.(check bool) "both outcomes" true
    (List.mem true values && List.mem false values)

let prop_float_range =
  QCheck.Test.make ~name:"float_range stays inside its bounds" ~count:500
    QCheck.(pair (float_range (-1000.) 1000.) (float_range 0.0 1000.))
    (fun (lo, span) ->
      let g = Prng.create (Int64.of_float (lo *. 7919.0)) in
      let v = Prng.float_range g lo (lo +. span +. 1e-9) in
      v >= lo && v < lo +. span +. 1e-9)

let prop_int_range =
  QCheck.Test.make ~name:"int_range covers its inclusive bounds" ~count:100
    QCheck.(pair (int_range (-50) 50) (int_range 0 20))
    (fun (lo, span) ->
      let g = Prng.create (Int64.of_int (lo + (span * 1000))) in
      let seen = Array.make (span + 1) false in
      for _ = 1 to 400 do
        let v = Prng.int_range g lo (lo + span) in
        if v < lo || v > lo + span then failwith "out of range";
        seen.(v - lo) <- true
      done;
      Array.for_all (fun x -> x) seen)

(* --- Cpu_clock -------------------------------------------------------- *)

let test_cpu_clock_monotone () =
  let module Cpu_clock = Rip_numerics.Cpu_clock in
  let t0 = Cpu_clock.thread_seconds () in
  (* Burn a little CPU so the clock has something to count. *)
  let acc = ref 0.0 in
  for i = 1 to 2_000_000 do
    acc := !acc +. sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc);
  let t1 = Cpu_clock.thread_seconds () in
  Alcotest.(check bool) "non-negative origin" true (t0 >= 0.0);
  Alcotest.(check bool) "advances under CPU work" true (t1 > t0)

let test_cpu_clock_ignores_sleep () =
  let module Cpu_clock = Rip_numerics.Cpu_clock in
  (* Only meaningful when the per-thread clock exists: sleeping burns
     wall time but (almost) no CPU time. *)
  if Cpu_clock.available then begin
    let t0 = Cpu_clock.thread_seconds () in
    Unix.sleepf 0.05;
    let elapsed = Cpu_clock.thread_seconds () -. t0 in
    Alcotest.(check bool)
      (Printf.sprintf "sleep not charged as CPU (%.4fs)" elapsed)
      true (elapsed < 0.04)
  end

let suite =
  [
    ( "numerics.bracket",
      [
        Alcotest.test_case "linear" `Quick test_bisect_linear;
        Alcotest.test_case "cosine" `Quick test_bisect_cos;
        Alcotest.test_case "sign change required" `Quick
          test_bisect_requires_sign_change;
        Alcotest.test_case "expand" `Quick test_expand_bracket;
        Alcotest.test_case "expand failure" `Quick test_expand_bracket_failure;
        Alcotest.test_case "find_root" `Quick test_find_root;
        qcheck prop_bisect_monotone_cubic;
        qcheck prop_bisect_no_stagnation;
      ] );
    ( "numerics.stats",
      [
        Alcotest.test_case "basics" `Quick test_stats_basics;
        Alcotest.test_case "percentile" `Quick test_percentile;
        Alcotest.test_case "percentile errors" `Quick test_percentile_errors;
        Alcotest.test_case "ratio percent" `Quick test_ratio_percent;
        qcheck prop_mean_bounded;
        qcheck prop_percentile_monotone;
      ] );
    ( "numerics.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick
          test_prng_seed_sensitivity;
        Alcotest.test_case "derive stability" `Quick
          test_prng_derive_is_stable;
        Alcotest.test_case "bool varies" `Quick test_prng_bool_varies;
        qcheck prop_float_range;
        qcheck prop_int_range;
      ] );
    ( "numerics.cpu_clock",
      [
        Alcotest.test_case "monotone under work" `Quick
          test_cpu_clock_monotone;
        Alcotest.test_case "sleep is not CPU time" `Quick
          test_cpu_clock_ignores_sleep;
      ] );
  ]
