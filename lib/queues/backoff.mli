(** Exponential backoff for contended atomic operations.

    A [t] is owned by one spinning thread; it is not itself thread-safe. *)

type t

val create : ?max_step:int -> unit -> t
(** [create ()] returns a fresh backoff whose pause length starts at one
    [Domain.cpu_relax] and doubles on every {!once} up to [max_step]
    (default [512]), after which {!once} calls [Unix.sleepf 1e-6].  That
    sleep lasts at least the thread's kernel timer slack (50 µs by
    default on Linux) and stops the whole domain, so it is no way for a
    fiber to wait for another fiber: use [Sched.yield] there. *)

val reset : t -> unit
(** Reset the pause length to its initial value.  Call after the contended
    operation finally succeeds, before reusing [t]. *)

val once : t -> unit
(** Pause for the current backoff duration and double it. *)

val step : t -> int
(** The current pause length in [cpu_relax] units: [1] before any
    {!once} (or after {!reset}), up to [max_step] when saturated.  Lets
    callers observe escalation (e.g. to count contended retries). *)
