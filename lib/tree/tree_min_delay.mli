(** Van Ginneken's classic minimum-delay buffering on trees [11]: 2-d
    [(capacitance, required-time)] label propagation, here used to anchor
    tree timing targets at the minimum achievable worst-sink delay and to
    seed the tree hybrid when its coarse passes miss.  On a path tree it
    equals {!Rip_dp.Min_delay}. *)

type result = {
  solution : Tree_solution.t;
  delay : float;  (** worst-sink Elmore delay of [solution] *)
}

val solve :
  Rip_tech.Repeater_model.t -> Tree.t ->
  library:Rip_dp.Repeater_library.t -> sites:float list array -> result
(** The minimum worst-sink delay over the given design space and an
    insertion achieving it.  Always succeeds (the empty insertion is a
    valid fallback). *)

val tau_min :
  Rip_tech.Repeater_model.t -> Tree.t ->
  library:Rip_dp.Repeater_library.t -> sites:float list array -> float
(** [(solve ...).delay]. *)
