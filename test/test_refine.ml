(* Unit and property tests for Rip_refine: the width solver (Eqs. 5, 8),
   location derivatives (Eqs. 17, 18), REFINE (Fig. 5) and the analytical
   minimum-delay solver. *)

module Geometry = Rip_net.Geometry
module Net = Rip_net.Net
module Zone = Rip_net.Zone
module Solution = Rip_elmore.Solution
module Delay = Rip_elmore.Delay
module Width_solver = Rip_refine.Width_solver
module Movement = Rip_refine.Movement
module Refine = Rip_refine.Refine
module Min_delay_analytic = Rip_refine.Min_delay_analytic

let qcheck = QCheck_alcotest.to_alcotest
let repeater = Helpers.repeater

(* A net plus a feasible set of strictly increasing interior positions. *)
let positioned_net_gen =
  QCheck.Gen.(
    let* net = Helpers.net_gen ~with_zone:false () in
    let length = Rip_net.Net.total_length net in
    let* n = int_range 1 4 in
    let* offsets = list_repeat n (float_range 0.05 0.95) in
    let sorted = List.sort_uniq Float.compare offsets in
    let positions = List.map (fun o -> o *. length) sorted in
    let rec spaced = function
      | a :: (b :: _ as rest) -> b -. a > 5.0 && spaced rest
      | [ _ ] | [] -> true
    in
    if spaced positions && positions <> [] then
      return (net, Array.of_list positions)
    else return (net, [| 0.5 *. length |]))

let positioned_net_arb =
  QCheck.make
    ~print:(fun (net, positions) ->
      Fmt.str "%a positions=%a" Rip_net.Net.pp net
        Fmt.(Dump.array float)
        positions)
    positioned_net_gen

(* Eq. (2) through the Elmore evaluator, independently of the width
   solver's own stage tables: the oracle for Eqs. (5) and (8). *)
let elmore_delay geometry positions widths =
  Delay.total repeater geometry
    (Solution.create
       (List.combine (Array.to_list positions) (Array.to_list widths)))

let budget_for geometry positions slack =
  let sizing = Width_solver.min_delay_sizing geometry repeater ~positions in
  slack *. elmore_delay geometry positions sizing

(* --- Width solver ------------------------------------------------------- *)

let prop_width_solver_hits_budget =
  QCheck.Test.make ~name:"width solver meets the budget with equality (Eq. 5)"
    ~count:60 positioned_net_arb
    (fun (net, positions) ->
      let geometry = Geometry.of_net net in
      let budget = budget_for geometry positions 1.4 in
      match Width_solver.solve geometry repeater ~positions ~budget with
      | None -> false
      | Some r ->
          Helpers.close ~rel:1e-6 budget r.Width_solver.delay
          && Helpers.close ~rel:1e-6 budget
               (elmore_delay geometry positions r.Width_solver.widths))

let prop_width_solver_stationary =
  (* Eq. (8) via central finite differences: at the optimum,
     1 + lambda * d tau / d w_i = 0 for every i. *)
  QCheck.Test.make ~name:"width solver satisfies Eq. (8) stationarity"
    ~count:60 positioned_net_arb
    (fun (net, positions) ->
      let geometry = Geometry.of_net net in
      let budget = budget_for geometry positions 1.5 in
      match Width_solver.solve geometry repeater ~positions ~budget with
      | None -> false
      | Some r ->
          let n = Array.length positions in
          let ok = ref true in
          for i = 0 to n - 1 do
            let h = 1e-4 *. r.Width_solver.widths.(i) in
            let perturbed sign =
              let w = Array.copy r.Width_solver.widths in
              w.(i) <- w.(i) +. (sign *. h);
              elmore_delay geometry positions w
            in
            let gradient = (perturbed 1.0 -. perturbed (-1.0)) /. (2.0 *. h) in
            let residual = 1.0 +. (r.Width_solver.lambda *. gradient) in
            if Float.abs residual > 1e-3 then ok := false
          done;
          !ok)

let prop_width_solver_monotone_in_budget =
  QCheck.Test.make ~name:"looser budgets need less total width" ~count:60
    positioned_net_arb
    (fun (net, positions) ->
      let geometry = Geometry.of_net net in
      let tight = budget_for geometry positions 1.2 in
      let loose = budget_for geometry positions 1.8 in
      match
        ( Width_solver.solve geometry repeater ~positions ~budget:tight,
          Width_solver.solve geometry repeater ~positions ~budget:loose )
      with
      | Some a, Some b ->
          b.Width_solver.total_width <= a.Width_solver.total_width +. 1e-9
      | _, _ -> false)

let prop_width_solver_infeasible =
  QCheck.Test.make ~name:"budgets below the sizing bound are rejected"
    ~count:60 positioned_net_arb
    (fun (net, positions) ->
      let geometry = Geometry.of_net net in
      let bound = budget_for geometry positions 1.0 in
      Width_solver.solve geometry repeater ~positions ~budget:(0.95 *. bound)
      = None)

(* A warm-started solve after a small move (every repeater shifted by up
   to 40 um) answers as a cold solve at the moved positions does.  The warm source is solved at the original
   positions, at the same budget half the time and otherwise at one up
   to 3x away, so the warm bracket sometimes misses and the cold
   fallback runs; budgets start at the sizing bound, so some moves are
   infeasible. *)
let prop_warm_matches_cold =
  QCheck.Test.make ~name:"warm-started width solve matches a cold solve"
    ~count:100
    QCheck.(
      quad positioned_net_arb (float_range 1.0 1.6) (float_range (-40.0) 40.0)
        (option (float_range 0.5 3.0)))
    (fun ((net, positions), slack, shift, rescale) ->
      let geometry = Geometry.of_net net in
      let budget = budget_for geometry positions slack in
      let source_budget = budget *. Option.value rescale ~default:1.0 in
      let n = Array.length positions in
      let length = Net.total_length net in
      let shift =
        Float.max (1.0 -. positions.(0))
          (Float.min (length -. 1.0 -. positions.(n - 1)) shift)
      in
      let moved = Array.map (fun x -> x +. shift) positions in
      let close a b = Helpers.close ~rel:1e-9 a b in
      match
        Width_solver.solve geometry repeater ~positions ~budget:source_budget
      with
      | None -> QCheck.assume_fail ()
      | Some warm -> (
          match
            ( Width_solver.solve ~warm geometry repeater ~positions:moved
                ~budget,
              Width_solver.solve geometry repeater ~positions:moved ~budget )
          with
          | None, None -> true
          | Some w, Some c ->
              close w.Width_solver.lambda c.Width_solver.lambda
              && Array.for_all2 close w.Width_solver.widths
                   c.Width_solver.widths
          | Some _, None | None, Some _ -> false))

let test_width_solver_empty_positions () =
  let net =
    Net.uniform Rip_tech.Layer.metal4 ~length:2000.0 ~segment_count:2
      ~driver_width:20.0 ~receiver_width:40.0
  in
  let geometry = Geometry.of_net net in
  let bare = Delay.total repeater geometry Solution.empty in
  (match Width_solver.solve geometry repeater ~positions:[||] ~budget:(2.0 *. bare) with
  | Some r ->
      Alcotest.(check int) "no widths" 0 (Array.length r.Width_solver.widths)
  | None -> Alcotest.fail "bare wire meets a generous budget");
  Alcotest.(check bool) "bare wire misses a tight budget" true
    (Width_solver.solve geometry repeater ~positions:[||]
       ~budget:(0.5 *. bare)
    = None)

let test_width_solver_rejects_bad_positions () =
  let net =
    Net.uniform Rip_tech.Layer.metal4 ~length:2000.0 ~segment_count:2
      ~driver_width:20.0 ~receiver_width:40.0
  in
  let geometry = Geometry.of_net net in
  let invalid name f = Alcotest.match_raises name (function Invalid_argument _ -> true | _ -> false) f in
  invalid "unordered" (fun () ->
      ignore
        (Width_solver.solve geometry repeater ~positions:[| 900.0; 300.0 |]
           ~budget:1e-9));
  invalid "outside" (fun () ->
      ignore
        (Width_solver.solve geometry repeater ~positions:[| 2500.0 |]
           ~budget:1e-9))

let prop_bounded_sizing_in_bounds =
  QCheck.Test.make ~name:"bounded min-delay sizing respects its bounds"
    ~count:60 positioned_net_arb
    (fun (net, positions) ->
      let geometry = Geometry.of_net net in
      let widths =
        Width_solver.min_delay_sizing_bounded geometry repeater ~positions
          ~min_width:10.0 ~max_width:400.0
      in
      Array.for_all (fun w -> w >= 10.0 -. 1e-9 && w <= 400.0 +. 1e-9) widths)

let prop_tau_total_matches_delay =
  QCheck.Test.make
    ~name:"width solver tau_total equals the Elmore evaluator" ~count:60
    positioned_net_arb
    (fun (net, positions) ->
      let geometry = Geometry.of_net net in
      let widths = Array.map (fun _ -> 55.0) positions in
      let via_solver =
        Width_solver.tau_total geometry repeater ~positions ~widths
      in
      Helpers.close ~rel:1e-9 via_solver (elmore_delay geometry positions widths))

(* --- Movement ------------------------------------------------------------- *)

let prop_movement_matches_finite_difference =
  QCheck.Test.make
    ~name:"location derivatives match finite differences (Eqs. 17-18)"
    ~count:60 positioned_net_arb
    (fun (net, positions) ->
      let geometry = Geometry.of_net net in
      let length = Net.total_length net in
      let widths = Array.map (fun _ -> 60.0) positions in
      let derivatives =
        Movement.location_derivatives geometry repeater ~positions ~widths
      in
      let tau positions =
        Width_solver.tau_total geometry repeater ~positions ~widths
      in
      let boundaries = Geometry.boundaries geometry in
      let ok = ref true in
      Array.iteri
        (fun i d ->
          let h = 0.5 in
          (* A segment boundary strictly inside the probe makes the FD a
             blend of the two one-sided derivatives: skip those probes. *)
          let clear_of_boundaries =
            List.for_all
              (fun b ->
                Float.abs (b -. positions.(i)) > h +. 1e-9
                || Float.abs (b -. positions.(i)) < 1e-9)
              boundaries
          in
          let move sign =
            let p = Array.copy positions in
            p.(i) <- p.(i) +. (sign *. h);
            p
          in
          let lo = if i = 0 then 0.0 else positions.(i - 1) in
          let hi =
            if i = Array.length positions - 1 then length
            else positions.(i + 1)
          in
          if
            clear_of_boundaries
            && positions.(i) -. h > lo +. 1.0
            && positions.(i) +. h < hi -. 1.0
          then begin
            (* Central difference cancels the quadratic wire term.  Away
               from boundaries plus = minus; at an exact boundary the
               central FD sees the average of the two one-sided slopes. *)
            let central = (tau (move 1.0) -. tau (move (-1.0))) /. (2.0 *. h) in
            let expected = 0.5 *. (d.Movement.plus +. d.Movement.minus) in
            let r_unit, c_unit =
              Geometry.unit_rc_at geometry Geometry.Right positions.(i)
            in
            (* Tolerance floor from the curvature scale h * r * c. *)
            let scale =
              Float.max
                (Float.max (Float.abs central) (Float.abs expected))
                (h *. r_unit *. c_unit)
            in
            if Float.abs (central -. expected) /. scale > 0.02 then ok := false
          end)
        derivatives;
      !ok)

let test_movement_sides_equal_inside_segment () =
  let net =
    Net.uniform Rip_tech.Layer.metal4 ~length:4000.0 ~segment_count:1
      ~driver_width:20.0 ~receiver_width:40.0
  in
  let geometry = Geometry.of_net net in
  let d =
    Movement.location_derivatives geometry repeater ~positions:[| 1234.5 |]
      ~widths:[| 80.0 |]
  in
  Alcotest.(check (float 1e-24)) "eq. 24" d.(0).Movement.plus
    d.(0).Movement.minus

let test_movement_sides_differ_at_boundary () =
  let net =
    Net.create
      ~segments:
        [
          Rip_net.Segment.of_layer Rip_tech.Layer.metal4 ~length:2000.0;
          Rip_net.Segment.of_layer Rip_tech.Layer.metal5 ~length:2000.0;
        ]
      ~zones:[] ~driver_width:20.0 ~receiver_width:40.0 ()
  in
  let geometry = Geometry.of_net net in
  let d =
    Movement.location_derivatives geometry repeater ~positions:[| 2000.0 |]
      ~widths:[| 80.0 |]
  in
  Alcotest.(check bool) "one-sided derivatives differ" true
    (Float.abs (d.(0).Movement.plus -. d.(0).Movement.minus) > 0.0)

let test_preferred_direction () =
  let d plus minus = { Movement.plus; minus } in
  Alcotest.(check bool) "optimal stays" true
    (Movement.preferred_direction ~lambda:1.0 (d 1.0 (-1.0)) = Movement.Stay);
  Alcotest.(check bool) "negative plus moves down" true
    (Movement.preferred_direction ~lambda:1.0 (d (-1.0) (-2.0))
    = Movement.Downstream);
  Alcotest.(check bool) "positive minus moves up" true
    (Movement.preferred_direction ~lambda:1.0 (d 2.0 1.0) = Movement.Upstream);
  Alcotest.(check bool) "largest gain wins" true
    (Movement.preferred_direction ~lambda:1.0 (d (-1.0) 3.0)
    = Movement.Upstream)

(* --- REFINE ------------------------------------------------------------------ *)

let seed_solution positions = Solution.create (List.map (fun p -> (p, 80.0)) positions)

let prop_refine_never_worse_than_first_solve =
  QCheck.Test.make
    ~name:"REFINE's result never exceeds its initial total width" ~count:40
    positioned_net_arb
    (fun (net, positions) ->
      let geometry = Geometry.of_net net in
      let budget = budget_for geometry positions 1.4 in
      match
        Refine.run geometry repeater ~budget
          ~initial:(seed_solution (Array.to_list positions))
      with
      | None -> false
      | Some outcome ->
          outcome.Refine.total_width
          <= outcome.Refine.initial_total_width +. 1e-9)

let prop_refine_meets_budget =
  QCheck.Test.make ~name:"REFINE's result meets the budget" ~count:40
    positioned_net_arb
    (fun (net, positions) ->
      let geometry = Geometry.of_net net in
      let budget = budget_for geometry positions 1.4 in
      match
        Refine.run geometry repeater ~budget
          ~initial:(seed_solution (Array.to_list positions))
      with
      | None -> false
      | Some outcome ->
          outcome.Refine.delay <= budget *. (1.0 +. 1e-6)
          && Helpers.close ~rel:1e-6 budget outcome.Refine.delay)

let prop_refine_respects_zones =
  QCheck.Test.make ~name:"REFINE never parks a repeater inside a zone"
    ~count:60
    (QCheck.make (Helpers.net_gen ~with_zone:true ()))
    (fun net ->
      let geometry = Geometry.of_net net in
      let length = Net.total_length net in
      let seed_positions =
        List.filter (Net.position_legal net)
          [ 0.3 *. length; 0.6 *. length ]
      in
      QCheck.assume (seed_positions <> []);
      let positions = Array.of_list seed_positions in
      let budget = budget_for geometry positions 1.5 in
      match
        Refine.run geometry repeater ~budget
          ~initial:(seed_solution seed_positions)
      with
      | None -> true
      | Some outcome -> Solution.legal net outcome.Refine.solution)

let test_refine_infeasible () =
  let net =
    Net.uniform Rip_tech.Layer.metal4 ~length:8000.0 ~segment_count:4
      ~driver_width:20.0 ~receiver_width:40.0
  in
  let geometry = Geometry.of_net net in
  Alcotest.(check bool) "impossible budget" true
    (Refine.run geometry repeater ~budget:1e-15
       ~initial:(seed_solution [ 4000.0 ])
    = None)

let test_refine_empty_initial () =
  let net =
    Net.uniform Rip_tech.Layer.metal4 ~length:2000.0 ~segment_count:2
      ~driver_width:20.0 ~receiver_width:40.0
  in
  let geometry = Geometry.of_net net in
  let bare = Delay.total repeater geometry Solution.empty in
  match Refine.run geometry repeater ~budget:(1.5 *. bare) ~initial:Solution.empty with
  | Some outcome ->
      Alcotest.(check int) "stays empty" 0 (Solution.count outcome.Refine.solution);
      Alcotest.(check bool) "converged" true outcome.Refine.converged
  | None -> Alcotest.fail "bare wire is feasible"

let test_refine_movement_reduces_width () =
  (* A deliberately bad seed (repeater near the driver on a uniform line)
     must improve by moving toward the middle. *)
  let net =
    Net.uniform Rip_tech.Layer.metal4 ~length:10000.0 ~segment_count:5
      ~driver_width:20.0 ~receiver_width:20.0
  in
  let geometry = Geometry.of_net net in
  let budget = budget_for geometry [| 5000.0 |] 1.3 in
  match
    ( Refine.run geometry repeater ~budget ~initial:(seed_solution [ 1500.0 ]),
      Width_solver.solve geometry repeater ~positions:[| 1500.0 |] ~budget )
  with
  | Some outcome, Some stuck ->
      Alcotest.(check bool) "moved and improved" true
        (outcome.Refine.moves > 0
        && outcome.Refine.total_width < stuck.Width_solver.total_width)
  | _ -> Alcotest.fail "both solves should succeed"

(* --- Analytical minimum delay -------------------------------------------------- *)

let test_refine_zone_hopping () =
  (* A repeater seeded just left of a wide zone whose derivative pulls it
     right: vetoed by default, hops across with hop_zones. *)
  let net =
    Net.create
      ~segments:[ Rip_net.Segment.of_layer Rip_tech.Layer.metal4 ~length:10000.0 ]
      ~zones:[ Zone.create ~z_start:2100.0 ~z_end:2800.0 ]
      ~driver_width:20.0 ~receiver_width:20.0 ()
  in
  let geometry = Geometry.of_net net in
  let budget = budget_for geometry [| 5000.0 |] 1.3 in
  let hop_config =
    { Refine.default_config with Refine.hop_zones = true }
  in
  match
    ( Refine.run geometry repeater ~budget ~initial:(seed_solution [ 2050.0 ]),
      Refine.run ~config:hop_config geometry repeater ~budget
        ~initial:(seed_solution [ 2050.0 ]) )
  with
  | Some plain, Some hopping ->
      Alcotest.(check bool) "hop result legal" true
        (Solution.legal net hopping.Refine.solution);
      Alcotest.(check bool) "hopping never worse" true
        (hopping.Refine.total_width <= plain.Refine.total_width +. 1e-9)
  | _ -> Alcotest.fail "both runs should succeed"

let prop_refine_hopping_legal =
  QCheck.Test.make
    ~name:"zone hopping still never parks a repeater inside a zone"
    ~count:40
    (QCheck.make (Helpers.net_gen ~with_zone:true ()))
    (fun net ->
      let geometry = Geometry.of_net net in
      let length = Net.total_length net in
      let seed_positions =
        List.filter (Net.position_legal net)
          [ 0.35 *. length; 0.65 *. length ]
      in
      QCheck.assume (seed_positions <> []);
      let positions = Array.of_list seed_positions in
      let budget = budget_for geometry positions 1.5 in
      let config = { Refine.default_config with Refine.hop_zones = true } in
      match
        Refine.run ~config geometry repeater ~budget
          ~initial:(seed_solution seed_positions)
      with
      | None -> true
      | Some outcome -> Solution.legal net outcome.Refine.solution)

let prop_analytic_min_beats_bare_wire =
  QCheck.Test.make ~name:"analytic tau_min never exceeds the bare-wire delay"
    ~count:40
    (QCheck.make (Helpers.net_gen ()))
    (fun net ->
      let geometry = Geometry.of_net net in
      let bare = Delay.total repeater geometry Solution.empty in
      Min_delay_analytic.tau_min geometry repeater <= bare +. 1e-15)

let prop_analytic_min_solution_consistent =
  QCheck.Test.make
    ~name:"analytic min-delay solution is legal and matches its delay"
    ~count:40
    (QCheck.make (Helpers.net_gen ()))
    (fun net ->
      let geometry = Geometry.of_net net in
      let r = Min_delay_analytic.solve geometry repeater in
      Solution.legal net r.Min_delay_analytic.solution
      && Helpers.close ~rel:1e-9 r.Min_delay_analytic.delay
           (Delay.total repeater geometry r.Min_delay_analytic.solution)
      && List.for_all
           (fun w -> w >= 10.0 -. 1e-9 && w <= 400.0 +. 1e-9)
           (Solution.widths r.Min_delay_analytic.solution))

let test_analytic_min_uses_repeaters_on_long_nets () =
  let net =
    Net.uniform Rip_tech.Layer.metal4 ~length:15000.0 ~segment_count:6
      ~driver_width:20.0 ~receiver_width:40.0
  in
  let geometry = Geometry.of_net net in
  let r = Min_delay_analytic.solve geometry repeater in
  Alcotest.(check bool) "several repeaters" true
    (r.Min_delay_analytic.repeater_count >= 3)

let suite =
  [
    ( "refine.width_solver",
      [
        Alcotest.test_case "empty positions" `Quick
          test_width_solver_empty_positions;
        Alcotest.test_case "input validation" `Quick
          test_width_solver_rejects_bad_positions;
        qcheck prop_width_solver_hits_budget;
        qcheck prop_width_solver_stationary;
        qcheck prop_width_solver_monotone_in_budget;
        qcheck prop_width_solver_infeasible;
        qcheck prop_warm_matches_cold;
        qcheck prop_bounded_sizing_in_bounds;
        qcheck prop_tau_total_matches_delay;
      ] );
    ( "refine.movement",
      [
        Alcotest.test_case "Eq. 24 inside a segment" `Quick
          test_movement_sides_equal_inside_segment;
        Alcotest.test_case "sides differ at layer change" `Quick
          test_movement_sides_differ_at_boundary;
        Alcotest.test_case "direction rule" `Quick test_preferred_direction;
        qcheck prop_movement_matches_finite_difference;
      ] );
    ( "refine.refine",
      [
        Alcotest.test_case "infeasible budget" `Quick test_refine_infeasible;
        Alcotest.test_case "empty initial" `Quick test_refine_empty_initial;
        Alcotest.test_case "movement reduces width" `Quick
          test_refine_movement_reduces_width;
        Alcotest.test_case "zone hopping" `Quick test_refine_zone_hopping;
        qcheck prop_refine_hopping_legal;
        qcheck prop_refine_never_worse_than_first_solve;
        qcheck prop_refine_meets_budget;
        qcheck prop_refine_respects_zones;
      ] );
    ( "refine.min_delay_analytic",
      [
        Alcotest.test_case "long nets use repeaters" `Quick
          test_analytic_min_uses_repeaters_on_long_nets;
        qcheck prop_analytic_min_beats_bare_wire;
        qcheck prop_analytic_min_solution_consistent;
      ] );
  ]
