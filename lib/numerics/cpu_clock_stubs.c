/* Per-thread CPU clock (POSIX CLOCK_THREAD_CPUTIME_ID) for job timing.
   Returns -1.0 when the clock is unavailable so the OCaml side can fall
   back to process CPU time. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <time.h>

CAMLprim value rip_cpu_clock_thread_seconds(value unit)
{
  (void) unit;
#if defined(CLOCK_THREAD_CPUTIME_ID)
  {
    struct timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
      return caml_copy_double((double) ts.tv_sec
                              + (double) ts.tv_nsec * 1e-9);
  }
#endif
  return caml_copy_double(-1.0);
}

/* Monotonic clock for deadlines and timeouts: immune to wall-clock
   steps (NTP, manual adjustment), which a request deadline must be. */
CAMLprim value rip_cpu_clock_monotonic_seconds(value unit)
{
  (void) unit;
#if defined(CLOCK_MONOTONIC)
  {
    struct timespec ts;
    if (clock_gettime(CLOCK_MONOTONIC, &ts) == 0)
      return caml_copy_double((double) ts.tv_sec
                              + (double) ts.tv_nsec * 1e-9);
  }
#endif
  return caml_copy_double(-1.0);
}
