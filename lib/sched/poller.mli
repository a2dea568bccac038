(** Fd-readiness wake source: the I/O analogue of {!Timer}.

    Fibers blocked on a socket register an (fd, direction, resumer)
    triple; the scheduler folds {!poll} into its park/timekeeper path
    (a [select] bounded by the timer slice replaces the blind
    [Unix.sleepf] doze while waiters exist) and into the busy workers'
    periodic global check (zero-timeout sweep).  {!has_waiters} is a
    wake source for the stall detector, exactly like pending timers.

    Registrations are one-shot: a resumed fiber re-registers if its
    next syscall would still block.  Use through
    {!Sched.await_readable} / {!Sched.await_writable}. *)

type dir = Read | Write

type t

val create : unit -> t

val register : t -> Unix.file_descr -> dir -> (unit -> bool) -> unit
(** Enqueue a one-shot waiter.  The resumer runs from whichever worker
    performs the {!poll} that observes readiness (or an error sweep);
    it must be safe to invoke more than once (the scheduler's resumers
    are), and its result is ignored. *)

val has_waiters : t -> bool

val pending : t -> int
(** Number of registered waiters (racy snapshot). *)

val poll : t -> timeout:float -> int
(** One [select] round bounded by [timeout] seconds ([0.] polls).
    Resumes every waiter whose fd is ready and returns how many; on
    [EBADF] (an fd was closed while waited on) resumes {e all} waiters
    so each retries its own syscall and the bad fd's owner observes the
    error itself.  Rounds are serialized with [try_lock]: a concurrent
    caller returns [0] immediately instead of queueing behind a dozing
    select. *)
