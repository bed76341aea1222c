external thread_seconds_raw : unit -> float = "rip_cpu_clock_thread_seconds"

let available = thread_seconds_raw () >= 0.0

let thread_seconds () =
  (* [Sys.time] is the documented portability fallback when the
     per-thread clock primitive is unavailable: this module IS the
     sanctioned clock the no-wall-clock rule points everyone at. *)
  if available then thread_seconds_raw ()
  else (Sys.time () [@lint.allow "no-wall-clock"])

external monotonic_seconds_raw : unit -> float
  = "rip_cpu_clock_monotonic_seconds"

let monotonic_available = monotonic_seconds_raw () >= 0.0

let monotonic_seconds () =
  (* The wall clock is the only portable stand-in when CLOCK_MONOTONIC is
     missing: a request deadline needs a clock that advances while a
     thread sleeps, which no CPU clock does.  Deliberate and waived — a
     wall-clock step under a pending deadline merely fires a deadline
     early or late, it cannot corrupt results. *)
  if monotonic_available then monotonic_seconds_raw ()
  else (Unix.gettimeofday () [@lint.allow "no-wall-clock"])
