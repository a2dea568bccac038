(* Unbounded multiple-producer single-consumer queue (Vyukov's intrusive
   MPSC design, adapted to a GC'd setting).

   This is the "queue-of-queues" shape of the paper (§3.1): many clients
   enqueue their private queues, one handler dequeues them.  Producers only
   need a single atomic exchange on [head]; the consumer walks plain [next]
   pointers.

   The exchange-then-link protocol has a well-known transient state: after a
   producer has exchanged [head] but before it has linked [prev.next], the
   consumer can observe a non-empty queue whose tail has no successor.  In
   that window {!pop} spins briefly (the producer is between two
   instructions), which is the standard trade-off of this queue: wait-free
   producers, mostly-wait-free consumer.

   Invariant: a consumed node holds no link to its successor.  The
   consumer clears the old dummy's [next] once it has read it as [Some]:
   the producer that won that node in the exchange has already linked it
   and never touches it again, so the clear races nothing.  Without it a
   promoted dummy would keep, through the remembered set, every node
   pushed since alive into the next minor GC, which would then promote
   the whole chain. *)

type 'a node = {
  mutable value : 'a option;
  next : 'a node option Atomic.t;
}

type 'a t = {
  head : 'a node Atomic.t; (* producers: last enqueued node *)
  mutable tail : 'a node;  (* consumer: last dequeued (dummy) node *)
  closed : bool Atomic.t;
}

let make_node value = { value; next = Atomic.make None }

let create () =
  let dummy = make_node None in
  { head = Atomic.make dummy; tail = dummy; closed = Atomic.make false }

let push t v =
  if Atomic.get t.closed then raise Mailbox.Closed;
  let n = make_node (Some v) in
  let prev = Atomic.exchange t.head n in
  Atomic.set prev.next (Some n)

let rec pop t =
  let tail = t.tail in
  match Atomic.get tail.next with
  | Some n ->
    let v = n.value in
    n.value <- None;
    t.tail <- n;
    Atomic.set tail.next None;
    v
  | None ->
    if Atomic.get t.head == tail then None (* genuinely empty *)
    else begin
      (* A producer exchanged [head] but has not linked [next] yet. *)
      Domain.cpu_relax ();
      pop t
    end

let is_empty t =
  Atomic.get t.tail.next = None && Atomic.get t.head == t.tail

(* Batched pop: the consumer walks the already-linked suffix of the list
   in one pass.  The only synchronization besides the per-node [next]
   acquire loads is the single [head] comparison deciding emptiness; the
   Vyukov mid-link transient is only waited out when the batch would
   otherwise be empty. *)
let drain t buf =
  let cap = Array.length buf in
  let rec go taken =
    if taken >= cap then taken
    else
      let tail = t.tail in
      match Atomic.get tail.next with
      | Some n ->
        (match n.value with
        | Some v -> buf.(taken) <- v
        | None -> assert false);
        n.value <- None;
        t.tail <- n;
        Atomic.set tail.next None;
        go (taken + 1)
      | None ->
        if Atomic.get t.head == tail then taken (* genuinely empty *)
        else if taken > 0 then taken
          (* a producer is mid-link; deliver what we have *)
        else begin
          Domain.cpu_relax ();
          go 0
        end
  in
  if cap = 0 then 0 else go 0

let close t = Atomic.set t.closed true
let is_closed t = Atomic.get t.closed

(* MAILBOX aliases. *)
let enqueue = push
let dequeue = pop
