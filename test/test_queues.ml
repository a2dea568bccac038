(* Unit and property tests for the lock-free building blocks.

   Concurrency tests run real domains; on any machine they exercise the
   atomics under OS preemption.  Property tests check the sequential
   FIFO/LIFO semantics against a reference model. *)

module Q = Qs_queues

let check_list = Alcotest.(check (list int))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- sequential semantics -------------------------------------------------- *)

let drain pop =
  let rec go acc = match pop () with Some v -> go (v :: acc) | None -> List.rev acc in
  go []

let test_spsc_fifo () =
  let q = Q.Spsc_queue.create () in
  check_bool "empty" true (Q.Spsc_queue.is_empty q);
  for i = 1 to 100 do
    Q.Spsc_queue.push q i
  done;
  check_list "fifo" (List.init 100 (fun i -> i + 1))
    (drain (fun () -> Q.Spsc_queue.pop q));
  check_bool "drained" true (Q.Spsc_queue.is_empty q)

let test_mpsc_fifo () =
  let q = Q.Mpsc_queue.create () in
  check_bool "empty" true (Q.Mpsc_queue.is_empty q);
  for i = 1 to 100 do
    Q.Mpsc_queue.push q i
  done;
  check_list "fifo" (List.init 100 (fun i -> i + 1))
    (drain (fun () -> Q.Mpsc_queue.pop q))

let test_sharded_mpmc_fifo () =
  (* One producer pushes into one domain-stable shard, so a single
     stream keeps FIFO order whatever the shard count. *)
  let q = Q.Sharded_mpmc.create_sharded ~shards:4 () in
  check_int "shards" 4 (Q.Sharded_mpmc.num_shards q);
  check_bool "empty" true (Q.Sharded_mpmc.is_empty q);
  for i = 1 to 100 do
    Q.Sharded_mpmc.push q i
  done;
  check_bool "non-empty" false (Q.Sharded_mpmc.is_empty q);
  check_list "fifo" (List.init 100 (fun i -> i + 1))
    (drain (fun () -> Q.Sharded_mpmc.pop q))

let test_sharded_mpmc_pop_from () =
  (* Whatever shard a consumer starts its sweep at, it finds every
     element, in the producer's order. *)
  for start = 0 to 9 do
    let q = Q.Sharded_mpmc.create_sharded ~shards:4 () in
    for i = 1 to 20 do
      Q.Sharded_mpmc.push q i
    done;
    check_list
      (Printf.sprintf "start %d" start)
      (List.init 20 (fun i -> i + 1))
      (drain (fun () -> Q.Sharded_mpmc.pop_from q start))
  done

let test_treiber_lifo () =
  let s = Q.Treiber_stack.create () in
  for i = 1 to 50 do
    Q.Treiber_stack.push s i
  done;
  check_int "length" 50 (Q.Treiber_stack.length s);
  check_list "lifo" (List.init 50 (fun i -> 50 - i))
    (drain (fun () -> Q.Treiber_stack.pop s))

let test_ws_deque_owner () =
  let d = Q.Ws_deque.create ~capacity:4 () in
  for i = 1 to 100 do
    Q.Ws_deque.push d i
  done;
  (* grows past the initial capacity *)
  check_int "size" 100 (Q.Ws_deque.size d);
  check_list "owner lifo" (List.init 100 (fun i -> 100 - i))
    (drain (fun () -> Q.Ws_deque.pop d))

let test_ws_deque_steal_order () =
  let d = Q.Ws_deque.create () in
  List.iter (Q.Ws_deque.push d) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "steals oldest" (Some 1) (Q.Ws_deque.steal d);
  Alcotest.(check (option int)) "owner newest" (Some 3) (Q.Ws_deque.pop d);
  Alcotest.(check (option int)) "remaining" (Some 2) (Q.Ws_deque.pop d);
  Alcotest.(check (option int)) "empty owner" None (Q.Ws_deque.pop d);
  Alcotest.(check (option int)) "empty thief" None (Q.Ws_deque.steal d)

let test_spinlock () =
  let l = Q.Spinlock.create () in
  check_bool "initially free" false (Q.Spinlock.is_locked l);
  Q.Spinlock.acquire l;
  check_bool "held" true (Q.Spinlock.is_locked l);
  check_bool "try fails" false (Q.Spinlock.try_acquire l);
  Q.Spinlock.release l;
  check_bool "try succeeds" true (Q.Spinlock.try_acquire l);
  Q.Spinlock.release l;
  let v = Q.Spinlock.with_lock l (fun () -> 42) in
  check_int "with_lock result" 42 v;
  check_bool "released after with_lock" false (Q.Spinlock.is_locked l);
  (try Q.Spinlock.with_lock l (fun () -> failwith "boom")
   with Failure _ -> ());
  check_bool "released after exception" false (Q.Spinlock.is_locked l)

(* -- model-based property tests -------------------------------------------- *)

type op = Push of int | Pop

let op_gen =
  QCheck2.Gen.(
    oneof [ map (fun i -> Push i) small_int; return Pop ])

let print_ops ops =
  String.concat ";"
    (List.map (function Push i -> Printf.sprintf "push %d" i | Pop -> "pop") ops)

let model_fifo ops =
  let q = Queue.create () in
  List.filter_map
    (function
      | Push v ->
        Queue.push v q;
        None
      | Pop -> Some (Queue.take_opt q))
    ops

let model_lifo ops =
  let s = ref [] in
  List.filter_map
    (function
      | Push v ->
        s := v :: !s;
        None
      | Pop -> (
        match !s with
        | [] -> Some None
        | v :: rest ->
          s := rest;
          Some (Some v)))
    ops

let fifo_agrees name create push pop =
  QCheck2.Test.make ~count:300 ~name
    ~print:print_ops
    QCheck2.Gen.(list_size (int_bound 40) op_gen)
    (fun ops ->
      let q = create () in
      let actual =
        List.filter_map
          (function
            | Push v ->
              push q v;
              None
            | Pop -> Some (pop q))
          ops
      in
      actual = model_fifo ops)

let prop_spsc =
  fifo_agrees "spsc agrees with FIFO model" Q.Spsc_queue.create
    Q.Spsc_queue.push Q.Spsc_queue.pop

let prop_mpsc =
  fifo_agrees "mpsc agrees with FIFO model" Q.Mpsc_queue.create
    Q.Mpsc_queue.push Q.Mpsc_queue.pop

let prop_sharded_mpmc =
  fifo_agrees "sharded-mpmc agrees with FIFO model"
    (fun () -> Q.Sharded_mpmc.create_sharded ~shards:4 ())
    Q.Sharded_mpmc.push Q.Sharded_mpmc.pop

let prop_treiber =
  QCheck2.Test.make ~count:300 ~name:"treiber agrees with LIFO model"
    ~print:print_ops
    QCheck2.Gen.(list_size (int_bound 40) op_gen)
    (fun ops ->
      let s = Q.Treiber_stack.create () in
      let actual =
        List.filter_map
          (function
            | Push v ->
              Q.Treiber_stack.push s v;
              None
            | Pop -> Some (Q.Treiber_stack.pop s))
          ops
      in
      actual = model_lifo ops)

(* -- cross-domain stress ---------------------------------------------------- *)

let sum_to n = n * (n + 1) / 2

let test_mpsc_producers () =
  let q = Q.Mpsc_queue.create () in
  let producers = 4 and per = 2_000 in
  let domains =
    List.init producers (fun p ->
      Domain.spawn (fun () ->
        for i = 1 to per do
          Q.Mpsc_queue.push q ((p * per) + i)
        done))
  in
  let seen = ref 0 and sum = ref 0 in
  while !seen < producers * per do
    match Q.Mpsc_queue.pop q with
    | Some v ->
      incr seen;
      sum := !sum + v
    | None -> Domain.cpu_relax ()
  done;
  List.iter Domain.join domains;
  check_int "all received" (sum_to (producers * per)) !sum

let test_spsc_parallel () =
  let q = Q.Spsc_queue.create () in
  let n = 50_000 in
  let producer =
    Domain.spawn (fun () ->
      for i = 1 to n do
        Q.Spsc_queue.push q i
      done)
  in
  let sum = ref 0 and seen = ref 0 in
  while !seen < n do
    match Q.Spsc_queue.pop q with
    | Some v ->
      (* FIFO means values arrive in exactly increasing order. *)
      assert (v = !seen + 1);
      incr seen;
      sum := !sum + v
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  check_int "ordered sum" (sum_to n) !sum

let test_ws_deque_thieves () =
  let d = Q.Ws_deque.create () in
  let n = 20_000 in
  let stolen = Atomic.make 0 in
  let stop = Atomic.make false in
  let thieves =
    List.init 2 (fun _ ->
      Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          match Q.Ws_deque.steal d with
          | Some v -> ignore (Atomic.fetch_and_add stolen v : int)
          | None -> Domain.cpu_relax ()
        done))
  in
  (* Owner: push everything while the thieves raid, then drain the rest. *)
  let own = ref 0 in
  for i = 1 to n do
    Q.Ws_deque.push d i
  done;
  let rec drain () =
    match Q.Ws_deque.pop d with
    | Some v ->
      own := !own + v;
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  List.iter Domain.join thieves;
  (* A steal may still be completing when the owner sees empty; drain the
     remainder after the thieves stopped. *)
  drain ();
  check_int "every element taken exactly once" (sum_to n)
    (!own + Atomic.get stolen)

(* -- consumed nodes do not promote ------------------------------------------ *)

(* Promoted words per element over [n] steps, in a window bracketed by
   [Gc.minor ()] (so the counter is current at both ends), with a minor
   GC every 4096 steps.  The queue is created first and promoted by the
   opening [Gc.minor ()], so its dummy is old from the start: if a
   consumed node kept its successor link, the remembered set would root
   every node pushed since the last minor GC, and each GC would promote
   that whole chain (7 words an element: node, [next] box, [Some]). *)
let promoted_per_step ~n step =
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  for i = 1 to n do
    step i;
    if i land 4095 = 0 then Gc.minor ()
  done;
  Gc.minor ();
  ((Gc.quick_stat ()).Gc.promoted_words -. p0) /. float_of_int n

(* Each raw queue, once through [dequeue] and once through [drain] over
   bursts of 4. *)
let no_promotion (module M : Q.Mailbox.S) ~via () =
  let n = 100_000 in
  let q = M.create () in
  let per =
    match via with
    | `Pop ->
      promoted_per_step ~n (fun i ->
        M.enqueue q i;
        if M.dequeue q <> Some i then Alcotest.fail "dequeue lost an element")
    | `Drain ->
      let buf = Array.make 4 0 in
      promoted_per_step ~n:(n / 4) (fun i ->
        for j = 0 to 3 do
          M.enqueue q ((4 * i) + j)
        done;
        if M.drain q buf <> 4 then Alcotest.fail "drain lost an element")
      /. 4.0
  in
  check_bool
    (Printf.sprintf "%.2f promoted words/element < 0.5" per)
    true (per < 0.5)

let no_promotion_cases =
  List.concat_map
    (fun (name, m) ->
      [
        Alcotest.test_case (name ^ " consumed nodes, pop") `Quick
          (no_promotion m ~via:`Pop);
        Alcotest.test_case (name ^ " consumed nodes, drain") `Quick
          (no_promotion m ~via:`Drain);
      ])
    [
      ("spsc", (module Q.Spsc_queue : Q.Mailbox.S));
      ("mpsc", (module Q.Mpsc_queue : Q.Mailbox.S));
      ("sharded-mpmc", (module Q.Sharded_mpmc : Q.Mailbox.S));
    ]

(* The private-queue cache runs one push and one pop per reservation:
   uncontended, they allocate the cons cell and the [Some], nothing more. *)
let test_treiber_alloc () =
  let s = Q.Treiber_stack.create () in
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    Q.Treiber_stack.push s i;
    ignore (Sys.opaque_identity (Q.Treiber_stack.pop s) : int option)
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int n in
  check_bool
    (Printf.sprintf "push+pop: %.1f minor words <= 5" per)
    true (per <= 5.0)

(* -- generic MAILBOX properties --------------------------------------------- *)

(* One property suite, instantiated for every Mailbox.S conformer: the raw
   lock-free queues and the socket transport here, and the blocking
   fiber-level Bqueue layer below. *)

module Sched = Qs_sched.Sched

module Mailbox_props
    (M : Q.Mailbox.S) (I : sig
      val name : string
      val count : int

      val closed_enqueue : [ `Raises | `Drops ]
      (* Raw mailboxes raise [Mailbox.Closed]; the blocking Bqueue layer
         silently drops (runtime shutdown races live registrations). *)

      val dispose : int M.t -> unit
    end) =
struct
  let elems = QCheck2.Gen.(list_size (int_range 1 100) small_int)
  let print = QCheck2.Print.(list int)

  (* The socket instance yields while waiting for bytes and the Bqueue
     instances park fibers, so every property runs inside a scheduler;
     the lock-free instances don't care. *)
  let with_mailbox f =
    Sched.run (fun () ->
      let t = M.create () in
      Fun.protect ~finally:(fun () -> I.dispose t) (fun () -> f t))

  let fifo =
    QCheck2.Test.make ~count:I.count ~name:(I.name ^ ": fifo order") ~print
      elems
      (fun xs ->
        with_mailbox (fun t ->
          List.iter (M.enqueue t) xs;
          List.for_all (fun x -> M.dequeue t = Some x) xs && M.is_empty t))

  (* drain takes the same elements in the same order as repeated dequeue,
     whatever prefix size the buffer imposes. *)
  let drain_is_dequeue =
    QCheck2.Test.make ~count:I.count
      ~name:(I.name ^ ": drain = repeated dequeue")
      ~print:QCheck2.Print.(pair (list int) int)
      QCheck2.Gen.(pair elems (int_range 1 100))
      (fun (xs, k) ->
        with_mailbox (fun t ->
          List.iter (M.enqueue t) xs;
          let len = List.length xs in
          let buf = Array.make (min k len) 0 in
          let n = M.drain t buf in
          let taken = ref (Array.to_list (Array.sub buf 0 n)) in
          (* Blocking instances would park on an empty mailbox: dequeue
             exactly the elements known to remain. *)
          while List.length !taken < len do
            match M.dequeue t with
            | Some v -> taken := !taken @ [ v ]
            | None -> Alcotest.fail "dequeue lost an element"
          done;
          n >= 1 && !taken = xs && M.is_empty t))

  let close_keeps_pending =
    QCheck2.Test.make ~count:I.count
      ~name:(I.name ^ ": close keeps pending, stops enqueue") ~print elems
      (fun xs ->
        with_mailbox (fun t ->
          List.iter (M.enqueue t) xs;
          M.close t;
          let enqueue_stopped =
            match M.enqueue t 12345 with
            | () -> I.closed_enqueue = `Drops
            | exception Q.Mailbox.Closed -> I.closed_enqueue = `Raises
          in
          let len = List.length xs in
          let buf = Array.make len 0 in
          let n = M.drain t buf in
          let taken = ref (Array.to_list (Array.sub buf 0 n)) in
          while List.length !taken < len do
            match M.dequeue t with
            | Some v -> taken := !taken @ [ v ]
            | None -> Alcotest.fail "close dropped a pending element"
          done;
          (* Closed and drained: both flavours now agree on None. *)
          M.is_closed t && enqueue_stopped && !taken = xs
          && M.dequeue t = None))

  (* A random mix of enqueue, dequeue and [drain k] against a FIFO model.
     A pop that would find the mailbox empty is skipped (a blocking
     instance would park forever), so a run goes through empty -> refill
     many times: the cycle a recycled private queue goes through. *)
  type mix = Enq of int | Deq | Drain of int

  let mix =
    QCheck2.Gen.(
      list_size (int_range 1 100)
        (frequency
           [
             (2, map (fun v -> Enq v) small_int);
             (1, return Deq);
             (1, map (fun k -> Drain k) (int_range 1 8));
           ]))

  let print_mix = function
    | Enq v -> Printf.sprintf "enq %d" v
    | Deq -> "deq"
    | Drain k -> Printf.sprintf "drain %d" k

  let interleaved =
    QCheck2.Test.make ~count:I.count
      ~name:(I.name ^ ": interleaved ops agree with FIFO model")
      ~print:QCheck2.Print.(list print_mix)
      mix
      (fun ops ->
        with_mailbox (fun t ->
          let model = Queue.create () in
          let step = function
            | Enq v ->
              M.enqueue t v;
              Queue.push v model;
              true
            | Deq -> Queue.is_empty model || M.dequeue t = Some (Queue.pop model)
            | Drain k ->
              Queue.is_empty model
              ||
              let buf = Array.make k 0 in
              let n = M.drain t buf in
              (* [drain] may stop short of [k] (the socket instance takes
                 only what has arrived), but never returns 0 while
                 elements are pending. *)
              n >= 1
              && Array.to_list (Array.sub buf 0 n)
                 = List.init n (fun _ -> Queue.pop model)
          in
          List.for_all step ops
          && Queue.fold (fun ok v -> ok && M.dequeue t = Some v) true model
          && M.is_empty t))

  let tests =
    List.map QCheck_alcotest.to_alcotest
      [ fifo; drain_is_dequeue; close_keeps_pending; interleaved ]
end

module Raw_defaults = struct
  let count = 200
  let closed_enqueue = `Raises
  let dispose _ = ()
end

module Props_spsc_linked =
  Mailbox_props
    (Q.Spsc_queue)
    (struct
      include Raw_defaults

      let name = "spsc-linked"
    end)

module Props_mpsc =
  Mailbox_props
    (Q.Mpsc_queue)
    (struct
      include Raw_defaults

      let name = "mpsc"
    end)

module Props_socket =
  Mailbox_props
    (Qs_remote.Socket_queue.As_mailbox)
    (struct
      let name = "socket"
      let count = 25 (* each iteration opens a socket pair *)
      let closed_enqueue = `Raises
      let dispose = Qs_remote.Socket_queue.destroy
    end)

(* The sharded MPMC queue at 1, 2 and 8 shards: producers pick a shard by
   domain, so these sequential (single-domain) properties exercise one
   shard's FIFO order at every shard count while still sweeping the
   rotate-all dequeue / drain / close paths over all shards. *)
module Props_sharded_1 =
  Mailbox_props
    (struct
      include Q.Sharded_mpmc

      let create () = create_sharded ~shards:1 ()
    end)
    (struct
      include Raw_defaults

      let name = "sharded-mpmc:1"
    end)

module Props_sharded_2 =
  Mailbox_props
    (struct
      include Q.Sharded_mpmc

      let create () = create_sharded ~shards:2 ()
    end)
    (struct
      include Raw_defaults

      let name = "sharded-mpmc:2"
    end)

module Props_sharded_8 =
  Mailbox_props
    (struct
      include Q.Sharded_mpmc

      let create () = create_sharded ~shards:8 ()
    end)
    (struct
      include Raw_defaults

      let name = "sharded-mpmc:8"
    end)

module Bq = Qs_sched.Bqueue

module Bq_defaults = struct
  let count = 100
  let closed_enqueue = `Drops
  let dispose _ = ()
end

module Props_bq_spsc_linked =
  Mailbox_props
    (Bq.Spsc)
    (struct
      include Bq_defaults

      let name = "bqueue:spsc-linked"
    end)

module Props_bq_mpsc =
  Mailbox_props
    (Bq.Mpsc)
    (struct
      include Bq_defaults

      let name = "bqueue:mpsc"
    end)

(* Both blocking queues stay usable as first-class [Mailbox.S] modules. *)
let test_mailbox_registry () =
  Sched.run (fun () ->
    List.iter
      (fun (name, (module M : Q.Mailbox.S)) ->
        let t = M.create () in
        for i = 1 to 10 do
          M.enqueue t i
        done;
        let buf = Array.make 4 0 in
        let n = M.drain t buf in
        check_int (name ^ " drain count") 4 n;
        check_list (name ^ " drain prefix") [ 1; 2; 3; 4 ]
          (Array.to_list buf);
        M.close t;
        let rest = ref [] in
        let continue_ = ref true in
        while !continue_ do
          match M.dequeue t with
          | Some v -> rest := v :: !rest
          | None -> continue_ := false
        done;
        check_list (name ^ " pending after close") [ 5; 6; 7; 8; 9; 10 ]
          (List.rev !rest))
      [
        ("bqueue:spsc", (module Bq.Spsc : Q.Mailbox.S));
        ("bqueue:mpsc", (module Bq.Mpsc : Q.Mailbox.S));
      ])

(* Cross-domain stress over the sharded MPMC queue: nothing lost, nothing
   duplicated, and per-producer FIFO (each producer's elements arrive in
   push order, the ordering contract the domain-stable shard choice
   preserves). *)
let test_sharded_mpmc_stress () =
  let q = Q.Sharded_mpmc.create_sharded ~shards:4 () in
  let producers = 3 and consumers = 3 and per = 2_000 in
  let total = producers * per in
  let consumed = Atomic.make 0 in
  let seen = Array.make total 0 in
  let order_ok = Atomic.make true in
  let ps =
    List.init producers (fun p ->
      Domain.spawn (fun () ->
        for i = 1 to per do
          Q.Sharded_mpmc.push q ((p * per) + i)
        done))
  in
  let cs =
    List.init consumers (fun _ ->
      Domain.spawn (fun () ->
        (* Per-producer FIFO: one producer's elements share a shard, so
           each consumer's subsequence of them must be ascending (the
           check is per consumer — cross-consumer recording would race). *)
        let last_of = Array.make producers 0 in
        let continue_ = ref true in
        while !continue_ do
          match Q.Sharded_mpmc.pop q with
          | Some v ->
            let p = (v - 1) / per in
            if last_of.(p) >= v then Atomic.set order_ok false;
            last_of.(p) <- v;
            seen.(v - 1) <- seen.(v - 1) + 1;
            if Atomic.fetch_and_add consumed 1 + 1 >= total then
              continue_ := false
          | None ->
            if Atomic.get consumed >= total then continue_ := false
            else Domain.cpu_relax ()
        done))
  in
  List.iter Domain.join ps;
  List.iter Domain.join cs;
  check_int "all consumed exactly once" total
    (Array.fold_left (fun acc c -> if c = 1 then acc + 1 else acc) 0 seen);
  Alcotest.(check bool) "per-producer order" true (Atomic.get order_ok)

let test_spinlock_mutual_exclusion () =
  let l = Q.Spinlock.create () in
  let counter = ref 0 in
  let n = 4 and per = 10_000 in
  let ds =
    List.init n (fun _ ->
      Domain.spawn (fun () ->
        for _ = 1 to per do
          Q.Spinlock.acquire l;
          counter := !counter + 1;
          Q.Spinlock.release l
        done))
  in
  List.iter Domain.join ds;
  check_int "no lost updates" (n * per) !counter

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "qs_queues"
    [
      ( "sequential",
        [
          Alcotest.test_case "spsc fifo" `Quick test_spsc_fifo;
          Alcotest.test_case "mpsc fifo" `Quick test_mpsc_fifo;
          Alcotest.test_case "sharded-mpmc fifo" `Quick test_sharded_mpmc_fifo;
          Alcotest.test_case "sharded-mpmc pop_from any start" `Quick
            test_sharded_mpmc_pop_from;
          Alcotest.test_case "treiber lifo" `Quick test_treiber_lifo;
          Alcotest.test_case "ws_deque owner" `Quick test_ws_deque_owner;
          Alcotest.test_case "ws_deque steal order" `Quick test_ws_deque_steal_order;
          Alcotest.test_case "spinlock" `Quick test_spinlock;
          Alcotest.test_case "treiber push+pop allocation" `Quick
            test_treiber_alloc;
        ] );
      ("promotion", no_promotion_cases);
      ( "properties",
        [
          qc prop_spsc;
          qc prop_mpsc;
          qc prop_sharded_mpmc;
          qc prop_treiber;
        ] );
      ( "mailbox",
        Props_spsc_linked.tests @ Props_mpsc.tests
        @ Props_sharded_1.tests @ Props_sharded_2.tests @ Props_sharded_8.tests
        @ Props_socket.tests
        @ Props_bq_spsc_linked.tests @ Props_bq_mpsc.tests
        @ [ Alcotest.test_case "bqueue registry" `Quick test_mailbox_registry ] );
      ( "parallel",
        [
          Alcotest.test_case "mpsc 4 producers" `Quick test_mpsc_producers;
          Alcotest.test_case "sharded-mpmc 3x3 stress" `Quick
            test_sharded_mpmc_stress;
          Alcotest.test_case "spsc pipeline order" `Quick test_spsc_parallel;
          Alcotest.test_case "ws_deque 2 thieves" `Quick test_ws_deque_thieves;
          Alcotest.test_case "spinlock mutual exclusion" `Quick
            test_spinlock_mutual_exclusion;
        ] );
    ]
