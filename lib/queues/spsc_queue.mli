(** Unbounded single-producer single-consumer FIFO queue.

    The backing structure of SCOOP/Qs private queues (paper §3.1): after a
    handler dequeues a private queue from its queue-of-queues, the
    communication is single-producer (the client) single-consumer (the
    handler), so no compare-and-swap is needed on either path.

    Safety contract: at most one domain/fiber calls {!push} concurrently, and
    at most one calls {!pop}/{!drain} concurrently.  Producer and consumer may
    run in parallel with each other. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Producer side: append one element.  Never blocks.
    @raise Mailbox.Closed after {!close}. *)

val pop : 'a t -> 'a option
(** Consumer side: remove the oldest element, or [None] if empty. *)

val is_empty : 'a t -> bool
(** Consumer-side emptiness test ([true] means no element is currently
    visible to the consumer). *)

val drain : 'a t -> 'a array -> int
(** Consumer side: batched {!pop} — move up to [Array.length buf]
    elements into a prefix of [buf] and return how many were taken. *)

val close : 'a t -> unit
(** Close the producer side; pending elements remain poppable. *)

val is_closed : 'a t -> bool

val enqueue : 'a t -> 'a -> unit
(** {!Mailbox.S} alias of {!push}. *)

val dequeue : 'a t -> 'a option
(** {!Mailbox.S} alias of {!pop}. *)
