(** Countdown latch for fibers.

    Created with a count [n]; {!wait} blocks until {!count_down} has been
    called [n] times.  Safe across domains. *)

type t

val create : int -> t
(** @raise Invalid_argument on a negative count. *)

val count_down : t -> unit
(** Decrement; the transition to zero wakes all waiters.
    @raise Invalid_argument if the count is already zero. *)

val wait : t -> unit
(** Block the current fiber until the count reaches zero.  Returns
    immediately if it already has. *)
