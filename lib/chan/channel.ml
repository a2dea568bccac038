(* Go-style channels over scheduler fibers.

   The comparator substrate for the paper's Go benchmarks (§5, Table 3:
   shared memory, goroutines + channels).  Buffered channels block senders
   at capacity; capacity 0 gives rendezvous semantics (a send completes
   only once a receiver has taken the value, as in Go's unbuffered
   channels).  Closing wakes everyone; receiving from a closed, drained
   channel yields [None]; sending on a closed channel raises. *)

exception Closed

(* The buffer: a FIFO of linked cells whose consumed cell lets go of its
   successor.  [Stdlib.Queue] keeps a taken cell's [next], so a cell the
   minor GC promoted roots every cell linked after it, and each of those
   is promoted in turn. *)
module Fifo = struct
  type 'a cell = Nil | Cons of { value : 'a; mutable next : 'a cell }

  type 'a t = {
    mutable first : 'a cell;
    mutable last : 'a cell;
    mutable length : int;
  }

  let create () = { first = Nil; last = Nil; length = 0 }

  let length q = q.length

  let push v q =
    let cell = Cons { value = v; next = Nil } in
    (match q.last with
    | Nil -> q.first <- cell
    | Cons last -> last.next <- cell);
    q.last <- cell;
    q.length <- q.length + 1

  let take_opt q =
    match q.first with
    | Nil -> None
    | Cons c ->
      q.first <- c.next;
      c.next <- Nil;
      if q.first == Nil then q.last <- Nil;
      q.length <- q.length - 1;
      Some c.value
end

type 'a t = {
  capacity : int; (* 0 = rendezvous *)
  mutex : Qs_sched.Fiber_mutex.t;
  not_empty : Qs_sched.Fiber_cond.t;
  not_full : Qs_sched.Fiber_cond.t;
  buffer : 'a Fifo.t;
  mutable taken : int; (* receives completed; rendezvous bookkeeping *)
  mutable closed : bool;
}

let create ?(capacity = 0) () =
  if capacity < 0 then invalid_arg "Channel.create: negative capacity";
  {
    capacity;
    mutex = Qs_sched.Fiber_mutex.create ();
    not_empty = Qs_sched.Fiber_cond.create ();
    not_full = Qs_sched.Fiber_cond.create ();
    buffer = Fifo.create ();
    taken = 0;
    closed = false;
  }

let send t v =
  Qs_sched.Fiber_mutex.lock t.mutex;
  let limit = max t.capacity 1 in
  while (not t.closed) && Fifo.length t.buffer >= limit do
    Qs_sched.Fiber_cond.wait t.not_full t.mutex
  done;
  if t.closed then begin
    Qs_sched.Fiber_mutex.unlock t.mutex;
    raise Closed
  end;
  Fifo.push v t.buffer;
  Qs_sched.Fiber_cond.signal t.not_empty;
  if t.capacity = 0 then begin
    (* Rendezvous: wait until a receiver has taken this element (any
       receiver completing unblocks the oldest sender, which matches the
       FIFO pairing of Go's unbuffered channels).  If the channel closes
       first and the element was never taken, the send did not happen:
       raise, as Go panics on send-on-closed. *)
    let target = t.taken + Fifo.length t.buffer in
    while (not t.closed) && t.taken < target do
      Qs_sched.Fiber_cond.wait t.not_full t.mutex
    done;
    let delivered = t.taken >= target in
    Qs_sched.Fiber_mutex.unlock t.mutex;
    if not delivered then raise Closed
  end
  else Qs_sched.Fiber_mutex.unlock t.mutex

let recv_opt t =
  Qs_sched.Fiber_mutex.lock t.mutex;
  while (not t.closed) && Fifo.length t.buffer = 0 do
    Qs_sched.Fiber_cond.wait t.not_empty t.mutex
  done;
  let result =
    match Fifo.take_opt t.buffer with
    | Some v ->
      t.taken <- t.taken + 1;
      (* Wake a sender blocked on a full buffer or on rendezvous. *)
      Qs_sched.Fiber_cond.broadcast t.not_full;
      Some v
    | None -> None (* closed and drained *)
  in
  Qs_sched.Fiber_mutex.unlock t.mutex;
  result

let recv t =
  match recv_opt t with
  | Some v -> v
  | None -> raise Closed

let try_recv t =
  Qs_sched.Fiber_mutex.lock t.mutex;
  let result =
    match Fifo.take_opt t.buffer with
    | Some v ->
      t.taken <- t.taken + 1;
      Qs_sched.Fiber_cond.broadcast t.not_full;
      Some v
    | None -> None
  in
  Qs_sched.Fiber_mutex.unlock t.mutex;
  result

let close t =
  Qs_sched.Fiber_mutex.lock t.mutex;
  t.closed <- true;
  Qs_sched.Fiber_cond.broadcast t.not_empty;
  Qs_sched.Fiber_cond.broadcast t.not_full;
  Qs_sched.Fiber_mutex.unlock t.mutex

let is_closed t = t.closed

(* Goroutine-flavoured helpers. *)
let go = Qs_sched.Sched.spawn

module Wait_group = struct
  type t = {
    mutable latch : Qs_sched.Latch.t;
  }

  let create n = { latch = Qs_sched.Latch.create n }
  let done_ t = Qs_sched.Latch.count_down t.latch
  let wait t = Qs_sched.Latch.wait t.latch
end
