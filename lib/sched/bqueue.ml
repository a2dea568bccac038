(* Blocking single-consumer queues: the runtime's communication channels.

   [Spsc] is a private queue (client -> handler request stream); [Mpsc] is
   both the queue-of-queues (clients enqueue private queues, Fig. 4) and
   the single request queue of the lock-based baseline runtime (Fig. 2).
   Both are [Make] over a raw [Qs_queues.Mailbox.S] queue, so they are
   the fiber-level instance of that abstraction: [dequeue]/[drain] park
   the consumer *fiber* instead of returning empty, and [None] / 0 mean
   closed-and-drained, the handler loop's shutdown signal.

   Blocking parks the consumer fiber via [Sched.suspend]; producers wake
   it through a one-slot waiter exchanged atomically, so the wake-up is a
   single CAS on the fast path.  When the woken consumer is resumed by a
   producer running on the same worker, the scheduler's hot slot makes the
   switch a direct handoff (paper §3.2).

   [drain] is the batching hook: one park/unpark transition (and one
   consumer-side synchronization, where the raw queue allows it) moves a
   whole burst of elements, instead of one blocking round trip per
   element. *)

module Waiter = struct
  type t = Sched.resumer option Atomic.t

  let create () = Atomic.make None

  let wake w =
    match Atomic.exchange w None with
    | Some resume -> ignore (resume () : bool)
    | None -> ()

  (* Park the (single) consumer until woken.  [ready] re-checks the queue
     after the resumer is published, closing the race with a producer that
     pushed before seeing the waiter. *)
  let park w ~ready =
    ignore
      (Sched.suspend (fun resume ->
         Atomic.set w (Some resume);
         if ready () then wake w))
end

module Make (Q : Qs_queues.Mailbox.S) = struct
  type 'a t = {
    q : 'a Q.t;
    waiter : Waiter.t;
  }

  let create () = { q = Q.create (); waiter = Waiter.create () }

  (* After [close] the element is silently dropped: runtime shutdown may
     race fibers that still hold registrations, and the raw queue below
     is where enqueue-after-close raises. *)
  let enqueue t v =
    match Q.enqueue t.q v with
    | () -> Waiter.wake t.waiter
    | exception Qs_queues.Mailbox.Closed -> ()

  let close t =
    Q.close t.q;
    Waiter.wake t.waiter

  let is_closed t = Q.is_closed t.q
  let is_empty t = Q.is_empty t.q
  let ready t () = is_closed t || not (is_empty t)

  (* [None] means closed *and* drained: a close does not discard pending
     requests, matching the handler loop of Fig. 7 where `false` from the
     outer dequeue means "no more work", not "momentarily empty". *)
  let rec dequeue t =
    match Q.dequeue t.q with
    | Some v -> Some v
    | None ->
      if is_closed t then
        (* Re-check: a producer may have raced the close. *)
        Q.dequeue t.q
      else begin
        Waiter.park t.waiter ~ready:(ready t);
        dequeue t
      end

  let rec drain t buf =
    if Array.length buf = 0 then 0
    else
      match Q.drain t.q buf with
      | 0 ->
        if is_closed t then Q.drain t.q buf
        else begin
          Waiter.park t.waiter ~ready:(ready t);
          drain t buf
        end
      | n -> n
end

module Spsc = Make (Qs_queues.Spsc_queue)
module Mpsc = Make (Qs_queues.Mpsc_queue)
