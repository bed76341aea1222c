let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let max_value xs = List.fold_left Float.max Float.neg_infinity xs
let min_value xs = List.fold_left Float.min Float.infinity xs

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let sum_sq =
        List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
      in
      sqrt (sum_sq /. float_of_int (List.length xs))

let quantile_rank ~n q =
  if n < 1 then invalid_arg "Stats.quantile_rank: n must be positive";
  if q < 0.0 || q > 1.0 then
    invalid_arg "Stats.quantile_rank: q outside [0,1]";
  q *. float_of_int (n - 1)

let quantile_sorted arr q =
  let n = Array.length arr in
  if n = 0 then invalid_arg "Stats.quantile_sorted: empty array";
  let pos = quantile_rank ~n q in
  let k = int_of_float (Float.floor pos) in
  if k >= n - 1 then arr.(n - 1)
  else
    let frac = pos -. float_of_int k in
    arr.(k) +. (frac *. (arr.(k + 1) -. arr.(k)))

let quantile q xs =
  (match xs with [] -> invalid_arg "Stats.quantile: empty list" | _ -> ());
  let arr = Array.of_list (List.sort Float.compare xs) in
  quantile_sorted arr q

let ratio_percent base v =
  if base = 0.0 then 0.0 else 100.0 *. (base -. v) /. base
