/* Kernel timer slack for scheduler domains.

   Linux lets every timed sleep of a thread (nanosleep, select, futex
   waits) end up to [timerslack_ns] late so wake-ups can be coalesced;
   the default is 50 us.  A parked timekeeper sleeps until the earliest
   fiber deadline, so that slack is added to every Sched.sleep and every
   timeout.  Worker domains lower it to the minimum (1 ns) for their own
   thread; elsewhere the call is a no-op.

   Returns the thread's previous slack so the caller can restore it, or
   -1 when the platform has no per-thread slack or the call failed. */

#include <caml/mlvalues.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

CAMLprim value qs_sched_set_timer_slack(value ns)
{
#ifdef __linux__
  int old = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  if (old <= 0) return Val_long(-1);
  if (prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0) != 0)
    return Val_long(-1);
  return Val_long(old);
#else
  (void)ns;
  return Val_long(-1);
#endif
}
