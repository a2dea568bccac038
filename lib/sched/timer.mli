(** Per-scheduler timer queue (min-heap with lazy cancellation).

    Backs {!Sched.sleep} and {!Sched.suspend_timeout} and, through them,
    every deadline in the runtime: query timeouts, promise [await ?timeout],
    reservation timeouts and [Runtime.shutdown ?grace].  A scheduler owns
    exactly one timer queue; busy workers fire due timers on their
    scheduling path, and when every worker is parked one of them acts as a
    timekeeper sleeping until the earliest armed deadline — so a pending
    timer is a wake source and never misreported as a deadlock.

    Deadlines are absolute monotonic nanoseconds ({!Qs_obs.Clock.now_ns}):
    a wall-clock step neither fires nor strands them, and neither reading
    the earliest deadline nor comparing it with the clock allocates. *)

exception Timeout
(** Raised by deadline-bounded waits ({!Promise.await},
    {!Fiber_mutex.lock_timeout}, and the whole scoop request path, where it
    is re-exported as [Scoop.Timeout]). *)

type t
(** A timer queue. *)

type handle
(** An armed timer. *)

val now : unit -> float
(** Current monotonic time in seconds: {!Qs_obs.Clock.now_ns} scaled.
    Only differences are meaningful.  For callers that keep their own
    deadlines in seconds and turn them back into delays. *)

val never : int
(** [max_int]: the {!next_deadline} of a queue with nothing armed. *)

val create : unit -> t

val arm : t -> deadline:int -> (unit -> unit) -> handle
(** [arm t ~deadline action] schedules [action] to run once
    [Qs_obs.Clock.now_ns () >= deadline].  The action runs on whichever
    worker fires it — scheduler context, not fiber context — so it must
    not block or perform effects; resuming a suspended fiber is the
    intended use.  Thread-safe. *)

val cancel : handle -> bool
(** Cancel an armed timer.  Returns [true] iff the cancellation won, i.e.
    the action had not fired and is now guaranteed never to run.  A single
    CAS; safe from any domain, idempotent. *)

val fire_due : t -> now:int -> int
(** Pop and run every action whose deadline is [<= now] (oldest first,
    outside the internal lock); returns the number fired.  Cheap when
    nothing is due: a single atomic read. *)

val next_deadline : t -> int
(** Earliest possibly-live deadline, {!never} if none.  Lock-free; may be
    conservatively early (a cancelled entry not yet pruned) but is never
    later than the true earliest live deadline. *)

val pending : t -> bool
(** [true] iff at least one armed timer has neither fired nor been
    cancelled.  Lock-free. *)

type counters = { t_armed : int; t_fired : int; t_cancelled : int }

val counters : t -> counters
