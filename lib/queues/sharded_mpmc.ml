(* Sharded MPMC queue: an array of multi-consumer Vyukov-style shards.

   The ablation data (BENCH_micro.json) shows the Michael–Scott MPMC at
   ~2x the cost of the Vyukov MPSC on the same workload: both ends of the
   MS queue are contended CAS loops, and the scheduler's single global
   inject queue turns every cross-domain wake-up into a fight over two
   cache lines.  This structure splits the traffic instead:

   - [shards] independent queues.  Enqueue picks a shard by hashing the
     producer's domain id: a producer always hits "its" shard, so
     per-producer FIFO order is preserved and uncontended runs (one
     domain) behave exactly like a single shard.  Cross-producer order is
     unspecified, as it already is for any MPMC queue under concurrency.
   - Dequeue rotates over all shards, starting at a caller-chosen (or
     domain-stable) shard so concurrent consumers fan out instead of
     convoying.

   Each shard is an exchange-then-link Vyukov list on the producer side
   (one RMW per push, wait-free), with the consumer side generalized
   from "single consumer walks plain pointers" to "consumers advance an
   atomic [tail] by CAS": the CAS winner owns the node it advanced over
   and reads its value exclusively.  One RMW per pop, lock-free — a
   consumer that loses the race simply re-reads the new tail.  This is
   cheaper than guarding an MPSC consumer with a spinlock (acquire and
   release are both full-barrier RMWs in OCaml) and keeps the whole pop
   path allocation-free.

   Dequeue returns [None] only when every shard was observed empty: a
   shard in the exchange-then-link transient (a producer has swung
   [head] but not linked [next] yet) is re-checked with backoff, so
   "None" retains its meaning of "nothing pending" for the scheduler's
   work-finding loop.  [is_empty] short-circuits on the first non-empty
   shard — the stall detector calls it on every park decision and must
   not scan the world when work is one load away.

   Invariant: a consumed node holds no link to its successor.  The CAS
   winner clears the [next] of the node it advanced past; that link was
   written once by a producer and is never written again.  A stale
   consumer that then reads the cleared link sees [None], exactly as if
   the shard were empty: [shard_is_empty] re-reads a fresh [tail], finds
   [head] elsewhere and reports the transient case, so the sweep retries
   and [None] still means "nothing pending".  Without the clear a
   promoted dummy would keep, through the remembered set, every node
   pushed since alive into the next minor GC, which would then promote
   the whole chain. *)

type 'a node = {
  mutable value : 'a option;
  next : 'a node option Atomic.t;
}

type 'a shard = {
  head : 'a node Atomic.t; (* producers: last enqueued node *)
  tail : 'a node Atomic.t; (* consumers: last consumed (dummy) node *)
}

type 'a t = {
  shards : 'a shard array;
  mask : int; (* shards length - 1; shard count is a power of two *)
  closed : bool Atomic.t;
}

let default_shards = 4

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let make_node value = { value; next = Atomic.make None }

let create_sharded ?(shards = default_shards) () =
  let n = round_pow2 (max 1 shards) in
  let mk _ =
    let dummy = make_node None in
    let head = Atomic.make dummy in
    (* Space the producer-side and consumer-side atomics apart in the
       minor heap so the boxes of one shard (and of adjacent shards) do
       not land on a single cache line — false sharing is what the
       sharding is buying back. *)
    let gap = Sys.opaque_identity (Array.make 8 0) in
    ignore (gap : int array);
    { head; tail = Atomic.make dummy }
  in
  { shards = Array.init n mk; mask = n - 1; closed = Atomic.make false }

let num_shards t = Array.length t.shards

(* Producer shard selection: stable per domain.  The Fibonacci-hash of the
   domain id spreads consecutive ids across shards; stability (rather than
   a per-call random draw) is what keeps single-producer streams FIFO. *)
let shard_of_producer t =
  let d = (Domain.self () :> int) in
  (d * 0x9E3779B9) lsr 11 land t.mask

exception Closed = Mailbox.Closed

let push t v =
  if Atomic.get t.closed then raise Closed;
  let s = Array.unsafe_get t.shards (shard_of_producer t) in
  let n = make_node (Some v) in
  let prev = Atomic.exchange s.head n in
  Atomic.set prev.next (Some n)

(* Advance [tail] past the next linked node.  Winning the CAS transfers
   ownership of that node: losers never touch [value], so the winner's
   read and clear need no further synchronization.  Returns [None] when
   the linked suffix is exhausted — which the caller must still classify
   as empty or in the producers' exchange-then-link transient. *)
let rec pop_shard s =
  let tail = Atomic.get s.tail in
  match Atomic.get tail.next with
  | Some n ->
    if Atomic.compare_and_set s.tail tail n then begin
      let v = n.value in
      n.value <- None;
      Atomic.set tail.next None;
      v
    end
    else pop_shard s (* another consumer advanced; re-read *)
  | None -> None

let shard_is_empty s =
  let tail = Atomic.get s.tail in
  Atomic.get tail.next == None && Atomic.get s.head == tail

(* Rotate over all shards starting at [start].  If every shard is either
   empty or in the mid-link transient, retry the transient ones with
   backoff: a [None] result must mean the queue was observed with nothing
   pending, not that a producer happened to sit between its two linking
   instructions.  The sweep keeps the common path allocation-free: the
   [Some] owned by the CAS win is returned as-is, and the backoff state
   is only materialized once a retry is forced. *)
(* Top-level recursion (not a local closure over [t]/[start]): the sweep
   runs on every scheduler work-finding probe and must not allocate. *)
let rec sweep t start i saw_transient b =
  if i > t.mask then
    if saw_transient then begin
      let b = match b with Some b -> b | None -> Backoff.create () in
      Backoff.once b;
      sweep t start 0 false (Some b)
    end
    else None
  else begin
    let s = Array.unsafe_get t.shards ((start + i) land t.mask) in
    match pop_shard s with
    | Some _ as v -> v
    | None ->
      if shard_is_empty s then sweep t start (i + 1) saw_transient b
      else sweep t start (i + 1) true b
  end

let pop_from t start = sweep t start 0 false None

(* Plain [pop] sweeps from shard 0: consumers that care about fanning out
   (the scheduler's workers) pass their own stable start to [pop_from];
   hashing the domain id here would tax the common single-consumer
   mailbox use for a fan-out those callers don't get anyway. *)
let pop t = pop_from t 0

let rec scan_empty shards n i =
  i = n || (shard_is_empty (Array.unsafe_get shards i) && scan_empty shards n (i + 1))

let is_empty t = scan_empty t.shards (Array.length t.shards) 0

(* Batched pop: take from whichever shards have linked nodes, in rotation,
   until the buffer is full or nothing more is pending.  Each element is
   still claimed by its own tail CAS — batching here saves the sweep
   restarts, not the per-node RMW, and keeps the multi-consumer claim
   protocol identical to [pop]. *)
let drain t buf =
  let cap = Array.length buf in
  if cap = 0 then 0
  else begin
    let n = Array.length t.shards in
    let start = shard_of_producer t in
    let taken = ref 0 in
    let i = ref 0 in
    while !taken < cap && !i < n do
      let s = t.shards.((start + !i) land t.mask) in
      let rec fill () =
        if !taken < cap then
          match pop_shard s with
          | Some v ->
            buf.(!taken) <- v;
            incr taken;
            fill ()
          | None -> ()
      in
      fill ();
      incr i
    done;
    (* Same contract as [pop]: an empty batch must not be a transient
       artifact. *)
    if !taken = 0 && not (is_empty t) then
      match pop_from t start with
      | Some v ->
        buf.(0) <- v;
        1
      | None -> 0
    else !taken
  end

let close t = Atomic.set t.closed true
let is_closed t = Atomic.get t.closed

(* MAILBOX aliases ([create] with the default shard count). *)
let create () = create_sharded ()
let enqueue = push
let dequeue = pop
