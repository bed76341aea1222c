(** CPU-time clock for per-job timing.

    {!thread_seconds} reads the calling thread's (in OCaml 5 terms, the
    calling domain's) own CPU time — POSIX [CLOCK_THREAD_CPUTIME_ID] — so
    a job's measured cost counts only cycles that job actually burned.
    Wall clock, by contrast, keeps ticking while a worker domain sits
    descheduled behind its siblings, which inflates per-job times by the
    oversubscription factor on a contended pool and makes runtime columns
    (Table 2) meaningless under parallel execution. *)

val available : bool
(** Whether the per-thread clock is usable on this platform.  When
    [false], {!thread_seconds} falls back to process CPU time
    ([Sys.time]) — still a CPU clock, but summed over all threads. *)

val thread_seconds : unit -> float
(** Seconds of CPU consumed by the calling thread.  Arbitrary origin:
    only differences between two reads on the {e same} thread are
    meaningful. *)

val monotonic_available : bool
(** Whether POSIX [CLOCK_MONOTONIC] is usable on this platform.  When
    [false], {!monotonic_seconds} falls back to the wall clock. *)

val monotonic_seconds : unit -> float
(** Seconds on a monotonic clock that keeps ticking while the caller
    sleeps — the timebase for request deadlines and forward round trips,
    immune to wall-clock steps.  Arbitrary origin: only differences between two
    reads are meaningful (any thread). *)
