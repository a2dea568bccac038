(* The MAILBOX abstraction: the one interface every request-carrying
   queue of the runtime satisfies.

   The paper's central claim (§3–§4) is that the *communication
   structure* between clients and handlers dominates SCOOP performance.
   Abstracting that structure behind one signature lets one blocking
   layer wrap every raw queue and one property suite check every
   implementation, and gives every implementation a batched [drain] so a
   consumer can take a whole burst of elements under one synchronization
   instead of paying one atomic round trip per element.

   Two layers conform to the signature:

   - the raw lock-free queues in this library (non-blocking: [dequeue]
     returns [None] on a momentarily-empty mailbox);
   - the blocking fiber-level queues [Qs_sched.Bqueue.Make] builds on
     top of them (blocking: [dequeue] parks the consumer fiber and
     [None] means closed-and-drained), plus the socket transport in
     [Qs_remote].

   Producers and consumers keep the ownership contract of the underlying
   queue (SPSC/MPSC/MPMC); [drain] is a consumer-side operation. *)

exception Closed
(* Raised by [enqueue] once the mailbox has been closed. *)

module type S = sig
  type 'a t

  val create : unit -> 'a t

  val enqueue : 'a t -> 'a -> unit
  (* Append one element.  @raise Closed after [close]. *)

  val dequeue : 'a t -> 'a option
  (* Remove the oldest element.  [None] means empty (non-blocking
     implementations) or closed-and-drained (blocking implementations). *)

  val drain : 'a t -> 'a array -> int
  (* [drain t buf] moves up to [Array.length buf] pending elements into
     a prefix of [buf] and returns how many were taken, performing one
     consumer-side synchronization for the whole batch where the
     underlying structure allows it.  Equivalent to repeated [dequeue]:
     same elements, same order.  A closed mailbox still drains its
     pending elements. *)

  val close : 'a t -> unit
  (* Stop the producer side: subsequent [enqueue]s raise [Closed].
     Pending elements remain dequeueable. *)

  val is_closed : 'a t -> bool
  val is_empty : 'a t -> bool
end
