(** Blocking single-consumer queues used as the runtime's communication
    channels.  Blocking parks the consumer fiber, never the domain.

    Both {!Spsc} and {!Mpsc} are {!Make} over a raw queue, so they are
    the blocking fiber-level instance of [Qs_queues.Mailbox.S]:
    [dequeue]/[drain] park instead of returning empty, and [None] / [0]
    mean closed-and-drained.  [drain] is the batching hook — one
    park/unpark transition moves a whole burst of elements.

    One departure from the raw contract: [enqueue] after [close] silently
    drops the element instead of raising — runtime shutdown may race
    fibers that still hold registrations. *)

module Make (Q : Qs_queues.Mailbox.S) : Qs_queues.Mailbox.S
(** The blocking body over a raw queue [Q], which keeps its ownership
    contract (who may enqueue and dequeue concurrently).  [dequeue]
    blocks the calling fiber until an element is available; [drain]
    blocks until at least one is, then moves every already-pending
    element (up to [Array.length buf]) into a prefix of [buf]. *)

module Spsc : Qs_queues.Mailbox.S
(** A private queue over {!Qs_queues.Spsc_queue}: one client enqueues,
    one handler dequeues, and a client never waits to log a request. *)

module Mpsc : Qs_queues.Mailbox.S
(** A queue-of-queues / baseline request queue over
    {!Qs_queues.Mpsc_queue}: many clients enqueue, one handler dequeues. *)
