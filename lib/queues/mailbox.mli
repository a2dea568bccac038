(** The MAILBOX abstraction: the common interface of every
    request-carrying queue in the runtime (paper §3.1 made pluggable).

    Conforming modules: {!Spsc_queue}, {!Mpsc_queue}, {!Sharded_mpmc}
    here; [Qs_sched.Bqueue.Spsc] / [Qs_sched.Bqueue.Mpsc] at the blocking
    fiber layer, both built from these by [Qs_sched.Bqueue.Make]; and
    [Qs_remote.Socket_queue.As_mailbox] for the socket transport.

    The ownership contract (who may enqueue / dequeue concurrently) is
    that of the underlying queue; {!S.drain} is a consumer-side batched
    pop taking a whole burst under one synchronization where the
    structure allows it. *)

exception Closed
(** Raised by [enqueue] once the mailbox has been closed. *)

module type S = sig
  type 'a t

  val create : unit -> 'a t

  val enqueue : 'a t -> 'a -> unit
  (** Append one element.  @raise Closed after {!close}. *)

  val dequeue : 'a t -> 'a option
  (** Remove the oldest element.  [None] means empty (non-blocking
      implementations) or closed-and-drained (blocking ones). *)

  val drain : 'a t -> 'a array -> int
  (** [drain t buf] moves up to [Array.length buf] pending elements into
      a prefix of [buf] and returns how many were taken.  Equivalent to
      repeated {!dequeue}: same elements, same order.  A closed mailbox
      still drains its pending elements. *)

  val close : 'a t -> unit
  (** Stop the producer side: subsequent {!enqueue}s raise {!Closed}.
      Pending elements remain dequeueable. *)

  val is_closed : 'a t -> bool
  val is_empty : 'a t -> bool
end
