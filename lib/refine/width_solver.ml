module Geometry = Rip_net.Geometry
module Net = Rip_net.Net
module Repeater_model = Rip_tech.Repeater_model
module Bracket = Rip_numerics.Bracket

type result = {
  widths : float array;
  lambda : float;
  total_width : float;
  delay : float;
  evaluations : int;
}

(* Per-problem precomputation: stage i (0..n) spans positions p_i..p_{i+1}
   with p_0 = 0 and p_{n+1} = L.  wire_r/wire_c/wire_d are the span's total
   resistance, capacitance and distributed Elmore term. *)
type stages = {
  rs : float;
  co : float;
  intrinsic : float;  (* Rs * Cp per stage *)
  n : int;
  wire_r : float array;  (* length n+1 *)
  wire_c : float array;
  wire_d : float array;
  driver_width : float;
  receiver_width : float;
}

let build_stages geometry repeater ~positions =
  let net = Geometry.net geometry in
  let length = Geometry.total_length geometry in
  let n = Array.length positions in
  Array.iteri
    (fun i x ->
      if x <= 0.0 || x >= length then
        invalid_arg "Width_solver: position outside (0, L)";
      if i > 0 && x <= positions.(i - 1) then
        invalid_arg "Width_solver: positions must be strictly increasing")
    positions;
  let point i =
    if i = 0 then 0.0 else if i = n + 1 then length else positions.(i - 1)
  in
  let span f i = f geometry (point i) (point (i + 1)) in
  {
    rs = repeater.Repeater_model.rs;
    co = repeater.Repeater_model.co;
    intrinsic = Repeater_model.intrinsic_delay repeater;
    n;
    wire_r = Array.init (n + 1) (span Geometry.resistance_between);
    wire_c = Array.init (n + 1) (span Geometry.capacitance_between);
    wire_d = Array.init (n + 1) (span Geometry.wire_elmore_between);
    driver_width = net.Net.driver_width;
    receiver_width = net.Net.receiver_width;
  }

(* Width of the gate at endpoint index i in 0..n+1 given interior widths. *)
let endpoint_width st widths i =
  if i = 0 then st.driver_width
  else if i = st.n + 1 then st.receiver_width
  else widths.(i - 1)

let delay_of st widths =
  let total = ref 0.0 in
  for i = 0 to st.n do
    let wa = endpoint_width st widths i in
    let wb = endpoint_width st widths (i + 1) in
    total :=
      !total +. st.intrinsic
      +. (st.rs /. wa *. (st.wire_c.(i) +. (st.co *. wb)))
      +. (st.wire_r.(i) *. st.co *. wb)
      +. st.wire_d.(i)
  done;
  !total

(* One Gauss-Seidel sweep of the Eq. (8) closed form at fixed 1/lambda,
   projecting each width into [w_lo, w_hi].  Returns the largest relative
   width change. *)
let sweep ?(w_lo = 0.0) ?(w_hi = Float.infinity) st widths inv_lambda =
  let worst = ref 0.0 in
  for i = 1 to st.n do
    let w_prev = endpoint_width st widths (i - 1) in
    let w_next = endpoint_width st widths (i + 1) in
    let numerator = st.rs *. (st.wire_c.(i) +. (st.co *. w_next)) in
    let denominator =
      inv_lambda +. (st.co *. (st.wire_r.(i - 1) +. (st.rs /. w_prev)))
    in
    let w = Float.max w_lo (Float.min w_hi (sqrt (numerator /. denominator))) in
    let old = widths.(i - 1) in
    widths.(i - 1) <- w;
    worst := Float.max !worst (Float.abs (w -. old) /. Float.max w 1e-12)
  done;
  !worst

let converge_widths ?w_lo ?w_hi st widths inv_lambda =
  let rec loop k =
    let change = sweep ?w_lo ?w_hi st widths inv_lambda in
    if change > 1e-13 && k < 500 then loop (k + 1) else k + 1
  in
  loop 0

let min_delay_sizing_stages st =
  let widths = Array.make st.n 100.0 in
  ignore (converge_widths st widths 0.0);
  widths

let min_delay_sizing geometry repeater ~positions =
  min_delay_sizing_stages (build_stages geometry repeater ~positions)

let min_delay_sizing_bounded geometry repeater ~positions ~min_width
    ~max_width =
  let st = build_stages geometry repeater ~positions in
  let widths = Array.make st.n (0.5 *. (min_width +. max_width)) in
  ignore (converge_widths ~w_lo:min_width ~w_hi:max_width st widths 0.0);
  widths

let tau_total geometry repeater ~positions ~widths =
  let st = build_stages geometry repeater ~positions in
  if Array.length widths <> st.n then
    invalid_arg "Width_solver.tau_total: width/position count mismatch";
  delay_of st widths

let finish st widths inv_lambda evaluations =
  ignore (converge_widths st widths inv_lambda);
  {
    widths;
    lambda = (if inv_lambda = 0.0 then Float.infinity else 1.0 /. inv_lambda);
    total_width = Array.fold_left ( +. ) 0.0 widths;
    delay = delay_of st widths;
    evaluations;
  }

(* tau(w(lambda)) is decreasing in lambda, i.e. increasing in inv_lambda;
   [root] finds inv_lambda with tau = budget, each inner solve warm-started
   from the previous one's widths.  The evaluations count from [spent]. *)
let root st widths ~budget ~spent ~max_expansions ~lo ~hi =
  let evaluations = ref spent in
  let f inv_lambda =
    incr evaluations;
    ignore (converge_widths st widths inv_lambda);
    delay_of st widths -. budget
  in
  match
    Bracket.find_root_within ~max_expansions ~f ~lo ~hi ~tol:1e-13
  with
  | Bracket.No_sign_change _ -> Error !evaluations
  | Bracket.Root inv_lambda -> Ok (finish st widths inv_lambda !evaluations)

let solve_cold st ~budget ~spent =
  let widths = min_delay_sizing_stages st in
  let fastest = delay_of st widths in
  if fastest > budget then None
  else
    (* Scale guess: inv_lambda has units of d tau/d w. *)
    let scale =
      Float.max 1e-30 (Float.abs (fastest /. Float.max 1.0 (float_of_int st.n) /. 100.0))
    in
    Result.to_option
      (root st widths ~budget ~spent ~max_expansions:60 ~lo:(1e-6 *. scale)
         ~hi:(1e3 *. scale))

(* A re-solve after a small move: bracket the previous multiplier tightly
   and start the sweeps from the previous widths.  A bracket that never
   straddles the budget falls back to the cold solve, so positions the
   cold solve finds infeasible are answered [None] as before. *)
let solve_warm st ~budget (warm : result) =
  let inv_lambda = 1.0 /. warm.lambda in
  if
    Array.length warm.widths <> st.n
    || not (Float.is_finite inv_lambda && inv_lambda > 0.0)
  then solve_cold st ~budget ~spent:0
  else
    match
      root st (Array.copy warm.widths) ~budget ~spent:0 ~max_expansions:3
        ~lo:(0.8 *. inv_lambda) ~hi:(1.25 *. inv_lambda)
    with
    | Ok r -> Some r
    | Error spent -> solve_cold st ~budget ~spent

let solve ?warm geometry repeater ~positions ~budget =
  let st = build_stages geometry repeater ~positions in
  if st.n = 0 then
    if delay_of st [||] <= budget then
      Some { widths = [||]; lambda = 0.0; total_width = 0.0;
             delay = delay_of st [||]; evaluations = 0 }
    else None
  else
    match warm with
    | None -> solve_cold st ~budget ~spent:0
    | Some warm -> solve_warm st ~budget warm
