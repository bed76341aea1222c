(** Small summary statistics used by the experiment harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val max_value : float list -> float
(** Maximum; negative infinity on the empty list. *)

val min_value : float list -> float
(** Minimum; positive infinity on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val quantile_rank : n:int -> float -> float
(** [quantile_rank ~n q] is the fractional 0-based order-statistic rank
    of the [q]-quantile of [n] samples: [q * (n - 1)] (the "type 7" /
    linear-interpolation convention).  Shared by the exact list/array
    quantiles below and the histogram quantile estimator in [rip_obs],
    so client-side and server-side percentiles agree on what is being
    estimated.  @raise Invalid_argument when [n < 1] or [q] is outside
    [0,1]. *)

val quantile_sorted : float array -> float -> float
(** [quantile_sorted arr q] on an already-sorted (ascending) array, by
    linear interpolation between the order statistics bracketing
    {!quantile_rank}.  @raise Invalid_argument on the empty array or [q]
    outside [0,1]. *)

val quantile : float -> float list -> float
(** [quantile q xs]: sorts [xs] and applies {!quantile_sorted}.
    @raise Invalid_argument on the empty list or [q] outside [0,1]. *)

val ratio_percent : float -> float -> float
(** [ratio_percent base v] is the saving [(base - v) / base] in percent;
    0 when [base = 0]. *)
