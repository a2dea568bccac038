(* Unbounded single-producer single-consumer queue.

   This is the "private queue" shape of the paper (§3.1): once a handler has
   dequeued a private queue from its queue-of-queues, exactly one client
   enqueues requests and exactly one handler dequeues them.  A linked list
   with a dummy node needs no CAS at all in this setting: the producer owns
   [tail], the consumer owns [head], and the only shared edge is the
   [next] pointer of the producer's last node, which is an [Atomic] so that
   the node's payload is published to the consumer (release on
   [Atomic.set], acquire on [Atomic.get]).

   Invariant: a consumed node holds no link to its successor.  Once the
   consumer has advanced past the old dummy it clears that node's [next].
   The link was written once, by the producer, and is never written again,
   so the clear races nothing.  Without it a dummy that a minor GC
   promoted would keep, through the remembered set, every node pushed
   since alive until the next minor GC, which would then promote the
   whole chain. *)

type 'a node = {
  mutable value : 'a option;
  next : 'a node option Atomic.t;
}

type 'a t = {
  mutable head : 'a node; (* consumer-owned: last dequeued (dummy) node *)
  mutable tail : 'a node; (* producer-owned: last enqueued node *)
  closed : bool Atomic.t;
}

let make_node value = { value; next = Atomic.make None }

let create () =
  let dummy = make_node None in
  { head = dummy; tail = dummy; closed = Atomic.make false }

let push t v =
  if Atomic.get t.closed then raise Mailbox.Closed;
  let n = make_node (Some v) in
  Atomic.set t.tail.next (Some n);
  t.tail <- n

let pop t =
  let old = t.head in
  match Atomic.get old.next with
  | None -> None
  | Some n ->
    let v = n.value in
    (* Drop the reference so the GC can reclaim the payload while [n]
       lives on as the new dummy node. *)
    n.value <- None;
    t.head <- n;
    Atomic.set old.next None;
    v

let is_empty t = Atomic.get t.head.next = None

(* Batched pop: walk as many published nodes as fit in [buf]. *)
let drain t buf =
  let cap = Array.length buf in
  let taken = ref 0 in
  let continue_ = ref true in
  while !continue_ && !taken < cap do
    let old = t.head in
    match Atomic.get old.next with
    | None -> continue_ := false
    | Some n ->
      (match n.value with
      | Some v -> buf.(!taken) <- v
      | None -> assert false);
      n.value <- None;
      t.head <- n;
      Atomic.set old.next None;
      incr taken
  done;
  !taken

let close t = Atomic.set t.closed true
let is_closed t = Atomic.get t.closed

(* MAILBOX aliases. *)
let enqueue = push
let dequeue = pop
