(** Candidate repeater locations for the DP passes.

    All generators return strictly interior positions ([0 < x < L]),
    ascending, de-duplicated, and outside every forbidden zone of the net
    — the "uniformly distributed along the interconnects ... excluding the
    forbidden zone" sites of Section 6, and the refined "locations derived
    by REFINE plus [radius] locations before and after, with granularity
    [pitch]" sites of RIP line 3. *)

val uniform : Rip_net.Net.t -> pitch:float -> float list
(** Multiples of [pitch] strictly inside the net, zone-filtered.
    @raise Invalid_argument when [pitch <= 0.]. *)

val around :
  Rip_net.Net.t -> centers:float list -> radius:int -> pitch:float ->
  float list
(** For each center [c]: [c + k * pitch] for [k = -radius .. radius],
    clipped to the interior and zone-filtered, merged over all centers.
    @raise Invalid_argument when [pitch <= 0.] or [radius < 0]. *)
