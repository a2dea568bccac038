(** Mutex that blocks fibers, not domains.

    FIFO hand-off: {!unlock} passes ownership directly to the oldest waiting
    fiber.  Not reentrant. *)

type t

val create : unit -> t

val lock : ?timeout:float -> t -> unit
(** Acquire, parking the current fiber while contended.  With [?timeout],
    give up after that many seconds and raise {!Timer.Timeout}; the
    caller then does not hold the lock.  A timed-out waiter is skipped by
    the FIFO hand-off (never handed a lock it cannot release).  One that
    found the lock free only after its deadline won hands it back, which
    may land a moment after the [Timeout]. *)

val try_lock : t -> bool

val unlock : t -> unit
(** Release or hand off.
    @raise Invalid_argument if the mutex is not locked. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Run under the lock, releasing on exceptions. *)
