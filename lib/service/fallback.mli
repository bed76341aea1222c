(** The DP-free analytic fallback tier behind every [DEGRADED] answer.

    Shared by the shard server (overload, deadline, worker loss — see
    {!Server}) and the router (no candidate shard left, shards lost
    mid-forward): {!Rip_refine.Min_delay_analytic} plus a short REFINE
    pass when the budget has slack, widths rounded to the coarse
    library, positions re-legalised against forbidden zones.  Total and
    cheap — microseconds to milliseconds, never a DP — with the empty
    insertion as the last resort. *)

val degraded :
  process:Rip_tech.Process.t ->
  budget:float ->
  net:Rip_net.Net.t ->
  Protocol.degrade_reason ->
  Protocol.response
(** The [DEGRADED] answer for [reason], carrying a best-effort solution
    for [net] under [budget], with the width range, REFINE configuration
    and coarse library of {!Rip_core.Config.default}.  The solution is
    always legal (zones, width range).  It meets the budget whenever the
    rounded min-delay insertion does; otherwise it is that insertion,
    and its delay exceeds the budget. *)
