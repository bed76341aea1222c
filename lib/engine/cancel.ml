(* Deadline-carrying cancellation tokens.

   The solver pipeline stays dependency-free: Power_dp/Refine/Rip take a
   plain [cancel] poll hook and never name this module.  The hook built
   by {!hook} compares the monotonic clock with the token's deadline at
   each poll (DP candidate columns, REFINE iterations) and raises
   {!Cancelled} once it has passed; the exception unwinds the solve and
   is caught by whoever created the token — typically the service's
   deadline path. *)

module Cpu_clock = Rip_numerics.Cpu_clock

exception Cancelled

type t = float option

let create ?deadline () = deadline
let deadline t = t

let cancelled = function
  | None -> false
  | Some at -> Cpu_clock.monotonic_seconds () >= at

let hook = function
  | None -> ignore
  | Some at ->
      fun () -> if Cpu_clock.monotonic_seconds () >= at then raise Cancelled

let protect f = match f () with v -> Some v | exception Cancelled -> None
