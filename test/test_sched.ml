(* Tests for the fiber scheduler and its synchronization primitives. *)

module S = Qs_sched.Sched
module Ivar = Qs_sched.Ivar
module Latch = Qs_sched.Latch
module Mutex = Qs_sched.Fiber_mutex
module Cond = Qs_sched.Fiber_cond
module Parfor = Qs_sched.Parfor

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- core scheduler --------------------------------------------------------- *)

let test_run_returns_value () =
  check_int "value" 42 (S.run (fun () -> 42))

let test_run_waits_for_spawned () =
  let hit = ref 0 in
  S.run (fun () ->
    for _ = 1 to 100 do
      S.spawn (fun () -> incr hit)
    done);
  check_int "all fibers ran" 100 !hit

let test_nested_spawn () =
  let hit = Atomic.make 0 in
  S.run ~domains:2 (fun () ->
    for _ = 1 to 10 do
      S.spawn (fun () ->
        Atomic.incr hit;
        for _ = 1 to 10 do
          S.spawn (fun () -> Atomic.incr hit)
        done)
    done);
  check_int "nested fibers" 110 (Atomic.get hit)

let test_live_counters () =
  (* Counters are readable mid-run from inside the scheduler, and only
     there; the final on_counters delivery is at least the live value. *)
  check_bool "none outside a scheduler" true (S.current_counters () = None);
  let live = ref None in
  let final = ref None in
  S.run ~on_counters:(fun c -> final := Some c) (fun () ->
    for _ = 1 to 50 do
      S.spawn (fun () -> S.yield ())
    done;
    S.yield ();
    live := S.current_counters ());
  match (!live, !final) with
  | Some l, Some f ->
    check_bool "dispatches visible mid-run" true (l.S.c_executed > 0);
    check_bool "monotone to the final value" true
      (l.S.c_executed <= f.S.c_executed && l.S.c_parks <= f.S.c_parks)
  | _ -> Alcotest.fail "live or final counters missing"

let test_obs_sink_records_sched_events () =
  let sink = Qs_obs.Sink.create () in
  S.run ~domains:2 ~obs:sink (fun () ->
    let latch = Latch.create 100 in
    for _ = 1 to 100 do
      S.spawn (fun () -> Latch.count_down latch)
    done;
    Latch.wait latch);
  let names =
    List.sort_uniq String.compare
      (List.map
         (fun (e : Qs_obs.Sink.event) -> e.name)
         (Qs_obs.Sink.events sink))
  in
  check_bool "dispatch spans recorded" true (List.mem "dispatch" names);
  check_bool "all events in the sched category" true
    (Qs_obs.Sink.fold
       (fun acc (e : Qs_obs.Sink.event) -> acc && e.cat = "sched")
       true sink)

let test_yield_interleaves () =
  let log = ref [] in
  S.run (fun () ->
    S.spawn (fun () ->
      log := `A1 :: !log;
      S.yield ();
      log := `A2 :: !log);
    S.spawn (fun () ->
      log := `B1 :: !log;
      S.yield ();
      log := `B2 :: !log));
  (* Yield sends fibers to the back of the global queue, so the two
     halves interleave rather than run back to back. *)
  check_bool "interleaved" true
    (match List.rev !log with
    | [ `A1; `B1; `A2; `B2 ] | [ `B1; `A1; `B2; `A2 ] -> true
    | _ -> false)

let test_suspend_resume () =
  let resumer = ref None in
  let result = ref 0 in
  S.run (fun () ->
    S.spawn (fun () ->
      S.suspend (fun resume -> resumer := Some resume);
      result := 1);
    S.spawn (fun () ->
      while !resumer = None do
        S.yield ()
      done;
      (Option.get !resumer) ()));
  check_int "resumed" 1 !result

let test_resume_idempotent () =
  S.run (fun () ->
    let r = ref None in
    S.spawn (fun () -> S.suspend (fun resume -> r := Some resume));
    S.spawn (fun () ->
      while !r = None do
        S.yield ()
      done;
      let resume = Option.get !r in
      resume ();
      resume ();
      resume ()))

let test_stall_detection () =
  Alcotest.check_raises "deadlock raises" (S.Stalled 1) (fun () ->
    S.run (fun () -> S.suspend (fun _ -> ())))

let test_stall_counts_fibers () =
  (try S.run (fun () ->
     S.spawn (fun () -> S.suspend (fun _ -> ()));
     S.spawn (fun () -> S.suspend (fun _ -> ())))
   with S.Stalled n -> check_int "two stuck" 2 n)

let test_exception_propagates () =
  Alcotest.check_raises "fiber exception" (Failure "boom") (fun () ->
    S.run (fun () -> failwith "boom"))

let test_spawned_exception_propagates () =
  Alcotest.check_raises "spawned exception" (Failure "child") (fun () ->
    S.run (fun () -> S.spawn (fun () -> failwith "child")))

let test_nested_run_rejected () =
  S.run (fun () ->
    check_bool "nested run raises" true
      (try
         ignore (S.run (fun () -> 0) : int);
         false
       with Invalid_argument _ -> true))

let test_multi_domain_sum () =
  let n = 1000 in
  let acc = Atomic.make 0 in
  S.run ~domains:4 (fun () ->
    let latch = Latch.create n in
    for i = 1 to n do
      S.spawn (fun () ->
        ignore (Atomic.fetch_and_add acc i : int);
        Latch.count_down latch)
    done;
    Latch.wait latch);
  check_int "sum" (n * (n + 1) / 2) (Atomic.get acc)

(* -- ivar -------------------------------------------------------------------- *)

let test_ivar_basic () =
  let v =
    S.run (fun () ->
      let iv = Ivar.create () in
      check_bool "not filled" false (Ivar.is_filled iv);
      S.spawn (fun () -> Ivar.fill iv 7);
      Ivar.read iv)
  in
  check_int "ivar value" 7 v

let test_ivar_many_readers () =
  let total =
    S.run ~domains:2 (fun () ->
      let iv = Ivar.create () in
      let acc = Atomic.make 0 in
      let latch = Latch.create 10 in
      for _ = 1 to 10 do
        S.spawn (fun () ->
          ignore (Atomic.fetch_and_add acc (Ivar.read iv) : int);
          Latch.count_down latch)
      done;
      S.spawn (fun () -> Ivar.fill iv 5);
      Latch.wait latch;
      Atomic.get acc)
  in
  check_int "all readers woke" 50 total

let test_ivar_double_fill () =
  S.run (fun () ->
    let iv = Ivar.create () in
    Ivar.fill iv 1;
    check_bool "try_fill fails" false (Ivar.try_fill iv 2);
    Alcotest.check_raises "fill raises"
      (Invalid_argument "Ivar.fill: already resolved") (fun () -> Ivar.fill iv 3);
    check_int "value unchanged" 1 (Ivar.read iv))

let test_ivar_peek () =
  S.run (fun () ->
    let iv = Ivar.create_full 9 in
    Alcotest.(check (option int)) "peek" (Some 9) (Ivar.peek iv))

(* The typed-completion half of a blocking query: the handler rejects
   the client's ivar, and the client re-raises. *)
let test_ivar_error () =
  S.run (fun () ->
    let iv : int Ivar.t = Ivar.create () in
    check_bool "error fill" true (Ivar.try_fill_error iv Exit);
    check_bool "second fill refused" false (Ivar.try_fill iv 1);
    (match Ivar.result iv with
    | Error (Exit, _) -> ()
    | _ -> Alcotest.fail "expected Error Exit");
    check_bool "read re-raises" true
      (try
         ignore (Ivar.read iv : int);
         false
       with Exit -> true))

(* A timed-out reader abandons the wait, never the work: the late fill
   still succeeds and a later reader sees its value. *)
let test_ivar_timeout_late_fill () =
  S.run (fun () ->
    let iv : int Ivar.t = Ivar.create () in
    check_bool "times out unfilled" true (Ivar.result_timeout iv 0.02 = None);
    check_bool "late fill lands" true (Ivar.try_fill iv 9);
    check_int "later read" 9 (Ivar.read iv))

(* One fresh ivar per round trip: across 4 domains, value and error
   fillers race for each one while blocking, timed and peeking readers
   wait on it.  Exactly one filler wins, and every reader observes the
   winner's outcome — never another round's. *)
let test_ivar_racing_fills () =
  let rounds = 300 in
  let wrong = Atomic.make 0 in
  S.run ~domains:4 (fun () ->
    for g = 0 to rounds - 1 do
      let iv : int Ivar.t = Ivar.create () in
      let wins = Atomic.make 0 in
      let resolved = Atomic.make 0 in
      Ivar.on_resolve iv (fun _ -> Atomic.incr resolved);
      let latch = Latch.create 5 in
      let expect = function
        | Ok v -> v = g || v = -g - 1
        | Error (Exit, _) -> true
        | Error _ -> false
      in
      (* every reader holds the very outcome the winner stored *)
      let agree outcome =
        match Ivar.peek_result iv with
        | Some stored when stored == outcome && expect outcome -> ()
        | _ -> Atomic.incr wrong
      in
      S.spawn (fun () ->
        agree (Ivar.result iv);
        Latch.count_down latch);
      S.spawn (fun () ->
        (match Ivar.result_timeout iv 5.0 with
        | Some outcome -> agree outcome
        | None -> Atomic.incr wrong);
        Latch.count_down latch);
      S.spawn (fun () ->
        if Ivar.try_fill iv g then Atomic.incr wins;
        Latch.count_down latch);
      S.spawn (fun () ->
        if Ivar.try_fill iv (-g - 1) then Atomic.incr wins;
        Latch.count_down latch);
      S.spawn (fun () ->
        if Ivar.try_fill_error iv Exit then Atomic.incr wins;
        Latch.count_down latch);
      Latch.wait latch;
      if Atomic.get wins <> 1 || Atomic.get resolved <> 1 then
        Atomic.incr wrong
    done);
  check_int "one winner per ivar, seen by every reader" 0 (Atomic.get wrong)

(* -- promise ------------------------------------------------------------------- *)

module Promise = Qs_sched.Promise

let test_promise_basic () =
  let v =
    S.run (fun () ->
      let p = Promise.create () in
      check_bool "not resolved" false (Promise.is_resolved p);
      Alcotest.(check (option int)) "peek empty" None (Promise.peek p);
      S.spawn (fun () -> Promise.fulfill p 7);
      let v = Promise.await p in
      check_bool "resolved" true (Promise.is_resolved p);
      v)
  in
  check_int "promise value" 7 v

let test_promise_try_read () =
  S.run (fun () ->
    let p = Promise.create () in
    Alcotest.(check (option int)) "pending" None (Promise.try_read p);
    Promise.fulfill p 3;
    Alcotest.(check (option int)) "resolved" (Some 3) (Promise.try_read p);
    Alcotest.(check (option int)) "of_value" (Some 9)
      (Promise.try_read (Promise.of_value 9)))

let test_promise_double_fulfill () =
  S.run (fun () ->
    let p = Promise.create () in
    Promise.fulfill p 1;
    check_bool "try_fulfill fails" false (Promise.try_fulfill p 2);
    check_int "value unchanged" 1 (Promise.await p))

let test_promise_force_hook () =
  S.run (fun () ->
    (* Ready at first observation: hook fires once with [true]. *)
    let fired = ref [] in
    let p = Promise.create ~on_force:(fun r -> fired := r :: !fired) () in
    Promise.fulfill p 1;
    check_int "await" 1 (Promise.await p);
    ignore (Promise.await p : int);
    Alcotest.(check (list bool)) "once, ready" [ true ] !fired;
    (* Peek never forces; try_read on a pending promise never forces. *)
    let fired2 = ref [] in
    let q = Promise.create ~on_force:(fun r -> fired2 := r :: !fired2) () in
    Alcotest.(check (option int)) "peek" None (Promise.peek q);
    Alcotest.(check (option int)) "try_read pending" None (Promise.try_read q);
    Alcotest.(check (list bool)) "not forced" [] !fired2;
    Promise.fulfill q 2;
    Alcotest.(check (option int)) "peek after fill" (Some 2) (Promise.peek q);
    Alcotest.(check (list bool)) "peek does not force" [] !fired2;
    ignore (Promise.try_read q : int option);
    Alcotest.(check (list bool)) "try_read forces" [ true ] !fired2);
  (* Blocked force: hook fires with [false]. *)
  let blocked =
    S.run (fun () ->
      let fired = ref None in
      let p = Promise.create ~on_force:(fun r -> fired := Some r) () in
      S.spawn (fun () -> Promise.fulfill p 5);
      ignore (Promise.await p : int);
      !fired)
  in
  Alcotest.(check (option bool)) "blocked force" (Some false) blocked

let test_promise_on_fulfill () =
  S.run (fun () ->
    let order = ref [] in
    let p = Promise.create () in
    Promise.on_fulfill p (fun v -> order := ("cb1", v) :: !order);
    Promise.fulfill p 4;
    (* Already resolved: runs immediately. *)
    Promise.on_fulfill p (fun v -> order := ("cb2", v) :: !order);
    Alcotest.(check (list (pair string int)))
      "both callbacks ran"
      [ ("cb2", 4); ("cb1", 4) ]
      !order)

let test_promise_combinators () =
  S.run (fun () ->
    let a = Promise.create () and b = Promise.create () in
    let pair = Promise.both a b in
    let doubled = Promise.map (fun x -> 2 * x) a in
    check_bool "pair pending" false (Promise.is_resolved pair);
    Promise.fulfill a 1;
    check_bool "pair still pending" false (Promise.is_resolved pair);
    check_int "map resolved eagerly" 2 (Promise.await doubled);
    Promise.fulfill b 2;
    Alcotest.(check (pair int int)) "both" (1, 2) (Promise.await pair);
    let ps = List.init 5 (fun _ -> Promise.create ()) in
    let every = Promise.all ps in
    List.iteri (fun i p -> Promise.fulfill p i) (List.rev ps);
    Alcotest.(check (list int)) "all preserves order" [ 0; 1; 2; 3; 4 ]
      (List.rev (Promise.await every));
    Alcotest.(check (list int)) "all []" [] (Promise.await (Promise.all [])))

let test_promise_all_propagates_force () =
  S.run (fun () ->
    let forced = Atomic.make 0 in
    let ps =
      List.init 3 (fun _ ->
        Promise.create ~on_force:(fun _ -> Atomic.incr forced) ())
    in
    let every = Promise.all ps in
    List.iteri (fun i p -> Promise.fulfill p i) ps;
    check_int "components not yet forced" 0 (Atomic.get forced);
    ignore (Promise.await every : int list);
    check_int "force propagated to every component" 3 (Atomic.get forced))

exception Boom

let test_promise_rejection () =
  S.run (fun () ->
    (* Awaiting a rejected promise re-raises; status is observable. *)
    let p = Promise.create () in
    check_bool "not rejected while pending" false (Promise.is_rejected p);
    S.spawn (fun () -> Promise.fulfill_error p Boom);
    (match Promise.await p with
    | (_ : int) -> Alcotest.fail "await must re-raise"
    | exception Boom -> ());
    check_bool "resolved" true (Promise.is_resolved p);
    check_bool "rejected" true (Promise.is_rejected p);
    (* try_read and peek re-raise on a rejected promise too. *)
    (match Promise.try_read p with
    | _ -> Alcotest.fail "try_read must re-raise"
    | exception Boom -> ());
    (match Promise.peek p with
    | _ -> Alcotest.fail "peek must re-raise"
    | exception Boom -> ());
    (* A rejected promise cannot be fulfilled afterwards. *)
    check_bool "try_fulfill fails" false (Promise.try_fulfill p 1);
    check_bool "try_fulfill_error fails" false
      (Promise.try_fulfill_error p Not_found))

let test_promise_rejection_force_hook () =
  (* The force hook fires on a rejecting await exactly as on a value. *)
  S.run (fun () ->
    let fired = ref [] in
    let p = Promise.create ~on_force:(fun r -> fired := r :: !fired) () in
    Promise.fulfill_error p Boom;
    (match Promise.await p with
    | (_ : int) -> Alcotest.fail "await must re-raise"
    | exception Boom -> ());
    (match Promise.await p with
    | (_ : int) -> Alcotest.fail "await must re-raise again"
    | exception Boom -> ());
    Alcotest.(check (list bool)) "once, ready" [ true ] !fired)

let test_promise_map_rejection () =
  S.run (fun () ->
    (* map propagates an upstream rejection... *)
    let a = Promise.create () in
    let b = Promise.map (fun x -> x + 1) a in
    Promise.fulfill_error a Boom;
    (match Promise.await b with
    | (_ : int) -> Alcotest.fail "mapped promise must reject"
    | exception Boom -> ());
    (* ...and a raising mapper rejects the downstream promise. *)
    let c = Promise.create () in
    let d = Promise.map (fun _ -> raise Boom) c in
    Promise.fulfill c 1;
    match Promise.await d with
    | _ -> Alcotest.fail "raising mapper must reject"
    | exception Boom -> ())

let test_promise_combinators_rejection () =
  S.run (fun () ->
    (* both: the rejection wins over the later value. *)
    let a = Promise.create () and b = Promise.create () in
    let pair = Promise.both a b in
    Promise.fulfill_error a Boom;
    Promise.fulfill b 2;
    (match Promise.await pair with
    | (_ : int * int) -> Alcotest.fail "both must reject"
    | exception Boom -> ());
    (* all: one rejection rejects the aggregate even with the rest Ok. *)
    let ps = List.init 4 (fun _ -> Promise.create ()) in
    let every = Promise.all ps in
    List.iteri
      (fun i p ->
        if i = 2 then Promise.fulfill_error p Boom else Promise.fulfill p i)
      ps;
    match Promise.await every with
    | (_ : int list) -> Alcotest.fail "all must reject"
    | exception Boom -> ())

let test_promise_multi_domain_readers () =
  (* Many readers on several domains force the same promise; one
     fulfiller wakes them all, and the force hook still fires once. *)
  let readers = 16 in
  let total, forces =
    S.run ~domains:4 (fun () ->
      let forced = Atomic.make 0 in
      let p = Promise.create ~on_force:(fun _ -> Atomic.incr forced) () in
      let acc = Atomic.make 0 in
      let latch = Latch.create readers in
      for _ = 1 to readers do
        S.spawn (fun () ->
          ignore (Atomic.fetch_and_add acc (Promise.await p) : int);
          Latch.count_down latch)
      done;
      S.spawn (fun () -> Promise.fulfill p 5);
      Latch.wait latch;
      (Atomic.get acc, Atomic.get forced))
  in
  check_int "all readers woke" (5 * readers) total;
  check_int "hook fired exactly once" 1 forces

(* -- latch -------------------------------------------------------------------- *)

let test_latch_zero () = S.run (fun () -> Latch.wait (Latch.create 0))

let test_latch_underflow () =
  S.run (fun () ->
    let l = Latch.create 1 in
    Latch.count_down l;
    Alcotest.check_raises "underflow"
      (Invalid_argument "Latch.count_down: already at zero") (fun () ->
        Latch.count_down l))

let test_latch_negative () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Latch.create: negative count") (fun () ->
      ignore (Latch.create (-1) : Latch.t))

(* -- fiber mutex / condition --------------------------------------------------- *)

let test_mutex_mutual_exclusion () =
  let counter = ref 0 in
  S.run ~domains:4 (fun () ->
    let m = Mutex.create () in
    let latch = Latch.create 8 in
    for _ = 1 to 8 do
      S.spawn (fun () ->
        for _ = 1 to 5_000 do
          Mutex.lock m;
          counter := !counter + 1;
          Mutex.unlock m
        done;
        Latch.count_down latch)
    done;
    Latch.wait latch);
  check_int "no lost updates" 40_000 !counter

let test_mutex_trylock () =
  S.run (fun () ->
    let m = Mutex.create () in
    check_bool "first" true (Mutex.try_lock m);
    check_bool "second" false (Mutex.try_lock m);
    Mutex.unlock m;
    check_bool "after unlock" true (Mutex.try_lock m);
    Mutex.unlock m)

let test_mutex_unlock_unlocked () =
  S.run (fun () ->
    let m = Mutex.create () in
    Alcotest.check_raises "unlock raises"
      (Invalid_argument "Fiber_mutex.unlock: not locked") (fun () ->
        Mutex.unlock m))

let test_with_lock_releases_on_exn () =
  S.run (fun () ->
    let m = Mutex.create () in
    (try Mutex.with_lock m (fun () -> failwith "x") with Failure _ -> ());
    check_bool "released" true (Mutex.try_lock m);
    Mutex.unlock m)

let test_cond_parity () =
  let final =
    S.run ~domains:2 (fun () ->
      let m = Mutex.create () in
      let c = Cond.create () in
      let x = ref 0 in
      let latch = Latch.create 4 in
      for w = 0 to 3 do
        S.spawn (fun () ->
          let parity = w mod 2 in
          for _ = 1 to 250 do
            Mutex.lock m;
            while !x mod 2 <> parity do
              Cond.wait c m
            done;
            incr x;
            Cond.broadcast c;
            Mutex.unlock m
          done;
          Latch.count_down latch)
      done;
      Latch.wait latch;
      !x)
  in
  check_int "alternating increments" 1000 final

let test_cond_signal_wakes_one () =
  S.run (fun () ->
    let m = Mutex.create () in
    let c = Cond.create () in
    let woken = ref 0 in
    let ready = ref 0 in
    for _ = 1 to 3 do
      S.spawn (fun () ->
        Mutex.lock m;
        incr ready;
        Cond.wait c m;
        incr woken;
        Mutex.unlock m)
    done;
    (* Let the three waiters park. *)
    while !ready < 3 do
      S.yield ()
    done;
    Mutex.lock m;
    Cond.signal c;
    Mutex.unlock m;
    S.yield ();
    S.yield ();
    check_int "exactly one woken" 1 !woken;
    Mutex.lock m;
    Cond.broadcast c;
    Mutex.unlock m)

(* -- parfor --------------------------------------------------------------------- *)

let test_parfor_covers_range () =
  let n = 1000 in
  let hits = Array.make n 0 in
  S.run ~domains:2 (fun () ->
    Parfor.for_each n (fun i -> hits.(i) <- hits.(i) + 1));
  check_bool "each index exactly once" true (Array.for_all (( = ) 1) hits)

let test_parfor_empty () =
  S.run (fun () -> Parfor.for_range 5 5 (fun _ _ -> Alcotest.fail "called"))

let test_parfor_reduce () =
  let n = 10_000 in
  let total =
    S.run ~domains:2 (fun () ->
      Parfor.reduce_range 0 n ~neutral:0
        ~chunk:(fun lo hi ->
          let acc = ref 0 in
          for i = lo to hi - 1 do
            acc := !acc + i
          done;
          !acc)
        ~combine:( + ))
  in
  check_int "reduce sum" (n * (n - 1) / 2) total

let test_parfor_single_chunk () =
  let calls = ref 0 in
  S.run (fun () ->
    Parfor.for_range ~chunks:1 0 10 (fun lo hi ->
      incr calls;
      check_int "lo" 0 lo;
      check_int "hi" 10 hi));
  check_int "one chunk" 1 !calls

(* -- blocking queues ---------------------------------------------------------------- *)

module Bq = Qs_sched.Bqueue

let test_bqueue_spsc_blocks () =
  let received =
    S.run (fun () ->
      let q = Bq.Spsc.create () in
      let log = ref [] in
      S.spawn (fun () ->
        (* Consumer parks on the empty queue. *)
        for _ = 1 to 5 do
          match Bq.Spsc.dequeue q with
          | Some v -> log := v :: !log
          | None -> Alcotest.fail "unexpected close"
        done);
      S.spawn (fun () ->
        for i = 1 to 5 do
          Bq.Spsc.enqueue q i;
          S.yield ()
        done);
      S.yield ();
      log)
  in
  Alcotest.(check (list int)) "fifo through parking" [ 1; 2; 3; 4; 5 ]
    (List.rev !received)

let test_bqueue_mpsc_close_drains () =
  S.run (fun () ->
    let q = Bq.Mpsc.create () in
    Bq.Mpsc.enqueue q 1;
    Bq.Mpsc.enqueue q 2;
    Bq.Mpsc.close q;
    check_bool "closed" true (Bq.Mpsc.is_closed q);
    Alcotest.(check (option int)) "first" (Some 1) (Bq.Mpsc.dequeue q);
    Alcotest.(check (option int)) "second" (Some 2) (Bq.Mpsc.dequeue q);
    Alcotest.(check (option int)) "drained" None (Bq.Mpsc.dequeue q))

let test_bqueue_mpsc_close_wakes_consumer () =
  let result =
    S.run (fun () ->
      let q : int Bq.Mpsc.t = Bq.Mpsc.create () in
      let got = ref (Some 99) in
      S.spawn (fun () -> got := Bq.Mpsc.dequeue q);
      S.spawn (fun () ->
        S.yield ();
        Bq.Mpsc.close q);
      got)
  in
  Alcotest.(check (option int)) "woken with None" None !result

let test_bqueue_mpsc_many_producers () =
  let total =
    S.run ~domains:3 (fun () ->
      let q = Bq.Mpsc.create () in
      let producers = 5 and per = 500 in
      let latch = Latch.create producers in
      for _ = 1 to producers do
        S.spawn (fun () ->
          for i = 1 to per do
            Bq.Mpsc.enqueue q i
          done;
          Latch.count_down latch)
      done;
      let acc = ref 0 in
      for _ = 1 to producers * per do
        match Bq.Mpsc.dequeue q with
        | Some v -> acc := !acc + v
        | None -> Alcotest.fail "unexpected close"
      done;
      Latch.wait latch;
      !acc)
  in
  check_int "every message delivered" (5 * (500 * 501 / 2)) total

(* -- property tests --------------------------------------------------------------- *)

let prop_parfor_partition =
  QCheck2.Test.make ~count:200 ~name:"split partitions the range"
    QCheck2.Gen.(pair (int_bound 500) (int_range 1 32))
    (fun (n, parts) ->
      let ranges = Qs_benchmarks.Bench_types.split n parts in
      let covered = List.concat_map (fun (lo, hi) -> List.init (hi - lo) (fun k -> lo + k)) ranges in
      covered = List.init n Fun.id)

let prop_spawn_all_run =
  QCheck2.Test.make ~count:50 ~name:"every spawned fiber completes"
    QCheck2.Gen.(int_range 0 200)
    (fun n ->
      let hits = Atomic.make 0 in
      S.run ~domains:2 (fun () ->
        for _ = 1 to n do
          S.spawn (fun () -> Atomic.incr hits)
        done);
      Atomic.get hits = n)

(* Write-once under contention: any number of fillers and readers,
   spawned in any order over 2 domains.  Exactly one fill succeeds, every
   reader reads the winning value, and fill callbacks fire once. *)
let prop_ivar_one_winner =
  QCheck2.Test.make ~count:50 ~name:"ivar: one fill wins, every reader sees it"
    QCheck2.Gen.(pair (int_range 1 8) (int_range 0 8))
    (fun (fillers, readers) ->
      S.run ~domains:2 (fun () ->
        let iv : int Ivar.t = Ivar.create () in
        let wins = Atomic.make 0 in
        let winner = Atomic.make (-1) in
        let fired = Atomic.make 0 in
        let read_ok = Atomic.make true in
        let seen = Array.make readers (-1) in
        Ivar.on_fill iv (fun _ -> Atomic.incr fired);
        let latch = Latch.create (fillers + readers) in
        for r = 0 to readers - 1 do
          S.spawn (fun () ->
            seen.(r) <- Ivar.read iv;
            Latch.count_down latch)
        done;
        for f = 0 to fillers - 1 do
          S.spawn (fun () ->
            if Ivar.try_fill iv f then begin
              Atomic.incr wins;
              Atomic.set winner f
            end;
            Latch.count_down latch)
        done;
        Latch.wait latch;
        Array.iter
          (fun v -> if v <> Atomic.get winner then Atomic.set read_ok false)
          seen;
        Atomic.get wins = 1 && Atomic.get fired = 1 && Atomic.get read_ok))

(* -- timers and timeouts ---------------------------------------------------- *)

(* CAS-append for collecting completion order from multiple domains. *)
let atomic_push acc x =
  let rec go () =
    let old = Atomic.get acc in
    if not (Atomic.compare_and_set acc old (x :: old)) then go ()
  in
  go ()

let test_sleep_basic () =
  let t0 = Unix.gettimeofday () in
  S.run (fun () -> S.sleep 0.03);
  let dt = Unix.gettimeofday () -. t0 in
  check_bool "slept at least the requested time" true (dt >= 0.03);
  check_bool "woke in bounded time" true (dt < 0.5)

let test_sleep_zero_is_yield () =
  (* sleep 0 must not arm a timer, just reschedule *)
  let final = ref None in
  S.run ~on_counters:(fun c -> final := Some c) (fun () -> S.sleep 0.0);
  match !final with
  | Some c -> check_int "no timer armed" 0 c.S.c_timer_arms
  | None -> Alcotest.fail "no counters"

let test_sleep_ordering_across_domains () =
  (* Fibers sleeping on different workers must complete in deadline order,
     not spawn order. *)
  let order = Atomic.make [] in
  S.run ~domains:2 (fun () ->
    List.iter
      (fun (dt, tag) -> S.spawn (fun () -> S.sleep dt; atomic_push order tag))
      [ (0.06, 3); (0.04, 2); (0.02, 1) ]);
  check_bool "deadline order" true (List.rev (Atomic.get order) = [ 1; 2; 3 ])

let test_sleep_keeps_dependents_alive () =
  (* All workers idle, one fiber asleep, another suspended waiting on it:
     the pending timer is a wake source, not a deadlock. *)
  let v =
    S.run (fun () ->
      let iv = Ivar.create () in
      S.spawn (fun () ->
        S.sleep 0.03;
        Ivar.fill iv 7);
      Ivar.read iv)
  in
  check_int "value after sleep" 7 v

let test_unexpired_timer_no_false_stall () =
  (* A timer armed far in the future must neither stall nor delay an
     otherwise-finished run. *)
  let t0 = Unix.gettimeofday () in
  S.run (fun () -> ignore (S.arm_timer ~delay:60.0 (fun () -> ()) : Qs_sched.Timer.handle));
  check_bool "returned immediately" true (Unix.gettimeofday () -. t0 < 1.0)

let test_stall_still_detected_after_timer () =
  (* Once the last timer has fired, a genuine deadlock must still raise. *)
  match
    S.run (fun () ->
      S.spawn (fun () -> S.suspend (fun _ -> ()));
      S.sleep 0.02)
  with
  | exception S.Stalled n -> check_int "one stuck fiber" 1 n
  | () -> Alcotest.fail "expected Stalled"

(* A field of this thread's procfs files, if the kernel exposes it.
   Per-thread [timerslack_ns] is not under /proc/thread-self on every
   kernel, but /proc/<tid>/ always reaches the thread itself. *)
let thread_proc_path name =
  match Unix.readlink "/proc/thread-self" with
  | exception Unix.Unix_error _ -> None
  | link ->
    List.find_opt Sys.file_exists
      [ "/proc/thread-self/" ^ name; "/proc/" ^ Filename.basename link ^ "/" ^ name ]

let test_workers_minimal_timer_slack () =
  (* Every worker domain lowers its kernel timer slack to 1 ns, so a
     timekeeper's sleep is not stretched by the 50 us default. *)
  match thread_proc_path "timerslack_ns" with
  | None -> Alcotest.skip ()
  | Some _ ->
    let seen =
      S.run ~domains:2 (fun () ->
        let seen = Array.make 2 None in
        let m = Stdlib.Mutex.create () in
        let record () =
          let path = Option.get (thread_proc_path "timerslack_ns") in
          let slack =
            In_channel.with_open_text path input_line |> String.trim |> int_of_string
          in
          Stdlib.Mutex.protect m (fun () -> seen.(S.self ()) <- Some slack)
        in
        record ();
        (* Busy fibers until the second worker has run one. *)
        let rounds = ref 0 in
        while Array.exists Option.is_none seen && !rounds < 500 do
          incr rounds;
          let l = Latch.create 4 in
          for _ = 1 to 4 do
            S.spawn (fun () ->
              let stop = Qs_obs.Clock.now_ns () + 200_000 in
              while Qs_obs.Clock.now_ns () < stop do
                Domain.cpu_relax ()
              done;
              record ();
              Latch.count_down l)
          done;
          Latch.wait l
        done;
        seen)
    in
    Array.iteri
      (fun wid v ->
        Alcotest.(check (option int)) (Printf.sprintf "worker %d slack" wid) (Some 1) v)
      seen

let test_sleep_overshoot_small () =
  (* On an idle runtime the parked timekeeper fires a sleep within a few
     microseconds of its deadline.  The kernel's default 50 us timer slack
     alone would put the median above the bound. *)
  let n = 200 and dt = 200e-6 in
  let late =
    S.run (fun () ->
      Array.init n (fun _ ->
        let t0 = Qs_obs.Clock.now_ns () in
        S.sleep dt;
        Qs_obs.Clock.now_ns () - t0 - Qs_obs.Clock.ns_of_s dt))
  in
  Array.sort compare late;
  let median = late.(n / 2) in
  check_bool "never early" true (late.(0) >= 0);
  if median >= 40_000 then
    Alcotest.failf "median sleep overshoot %d ns, want < 40000 ns" median

(* The thread's voluntary context switches so far: each one is a time
   the thread blocked or slept in the kernel. *)
let voluntary_switches path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
       match String.split_on_char ':' l with
       | [ "voluntary_ctxt_switches"; v ] -> Some (int_of_string (String.trim v))
       | _ -> None)
  |> Option.get

(* Write this thread's kernel timer slack in ns (0 = the thread's default);
   [false] where the kernel does not allow it. *)
let set_thread_slack ns =
  match thread_proc_path "timerslack_ns" with
  | None -> false
  | Some path -> (
    try
      Out_channel.with_open_text path (fun oc -> output_string oc (string_of_int ns));
      true
    with Sys_error _ -> false)

let test_block_admission_keeps_domain_running () =
  (* A [`Block]-admission client stuck behind a wedged handler waits by
     yielding, so a sibling fiber on the same (only) domain keeps running
     and the domain never sleeps.  A client that backed off with
     [Unix.sleepf] would put the thread to sleep about once per sibling
     yield, which the thread's voluntary context switches count.  The
     stretch runs at the kernel's default timer slack: under a worker's
     1 ns slack the kernel skips a 1 us sleep whose deadline has passed
     by the time it is armed, which would hide such a backoff. *)
  match thread_proc_path "status" with
  | None -> Alcotest.skip ()
  | Some _ ->
    let module R = Scoop.Runtime in
    let module Reg = Scoop.Registration in
    let module Cfg = Scoop.Config in
    let yields = 2000 and slack_set = ref false in
    let switches, served =
      R.run ~domains:1 ~config:Cfg.(all |> with_bound 1 |> with_overflow `Block)
        (fun rt ->
          let h = R.processor rt in
          let gate = Ivar.create () and wedged = Atomic.make false in
          let served = Atomic.make 0 in
          let done_ = Latch.create 2 in
          S.spawn (fun () ->
            R.separate rt h (fun reg ->
              (* The first call wedges the handler, the second fills the
                 bound, the third waits in admission. *)
              Reg.call reg (fun () ->
                Atomic.set wedged true;
                Ivar.read gate;
                Atomic.incr served);
              for _ = 1 to 2 do
                Reg.call reg (fun () -> Atomic.incr served)
              done);
            Latch.count_down done_);
          let switches = ref 0 in
          S.spawn (fun () ->
            while not (Atomic.get wedged) do
              S.yield ()
            done;
            (* Let the client reach its admission loop. *)
            for _ = 1 to 20 do
              S.yield ()
            done;
            let path = Option.get (thread_proc_path "status") in
            slack_set := set_thread_slack 0;
            let before = voluntary_switches path in
            for _ = 1 to yields do
              S.yield ()
            done;
            switches := voluntary_switches path - before;
            ignore (set_thread_slack 1 : bool);
            Ivar.fill gate ();
            Latch.count_down done_);
          Latch.wait done_;
          R.separate rt h (fun reg -> Reg.query reg (fun () -> ()));
          (!switches, Atomic.get served))
    in
    check_int "every call served" 3 served;
    if not !slack_set then Alcotest.skip ();
    if switches > yields / 10 then
      Alcotest.failf "domain slept %d times during %d sibling yields" switches yields

let test_suspend_timeout_resumed () =
  (* Resumed before the deadline: `Resumed, and the timer is cancelled
     (never fires). *)
  let final = ref None in
  let outcome = ref None in
  S.run ~on_counters:(fun c -> final := Some c) (fun () ->
    let cell = ref None in
    S.spawn (fun () ->
      let rec kick n =
        match !cell with
        | Some r -> r ()
        | None -> if n > 0 then (S.yield (); kick (n - 1))
      in
      kick 10_000);
    outcome := Some (S.suspend_timeout (fun resume -> cell := Some resume) 5.0));
  check_bool "resumed" true (!outcome = Some `Resumed);
  match !final with
  | Some c ->
    check_int "timer armed" 1 c.S.c_timer_arms;
    check_int "timer cancelled, not fired" 0 c.S.c_timer_fires
  | None -> Alcotest.fail "no counters"

let test_suspend_timeout_times_out () =
  let t0 = Unix.gettimeofday () in
  let v = S.run (fun () -> S.suspend_timeout (fun _ -> ()) 0.05) in
  let dt = Unix.gettimeofday () -. t0 in
  check_bool "timed out" true (v = `Timed_out);
  check_bool "after the deadline" true (dt >= 0.05);
  check_bool "within ~2x the deadline" true (dt <= 0.1 +. 0.05)

let test_timeout_race_exactly_once () =
  (* Fulfilment racing the deadline: whatever the winner, each waiter is
     resumed exactly once (a double resume would trip the one-shot
     continuation) and the verdicts are mutually exclusive by construction. *)
  let resumed = Atomic.make 0 and timed_out = Atomic.make 0 in
  S.run ~domains:2 (fun () ->
    for _ = 1 to 40 do
      S.spawn (fun () ->
        let cell = ref None in
        S.spawn (fun () ->
          S.sleep 0.005;
          match !cell with Some r -> r () | None -> ());
        match S.suspend_timeout (fun resume -> cell := Some resume) 0.005 with
        | `Resumed -> Atomic.incr resumed
        | `Timed_out -> Atomic.incr timed_out)
    done);
  check_int "every waiter got exactly one verdict" 40
    (Atomic.get resumed + Atomic.get timed_out)

let test_hot_slot_fairness () =
  (* Regression: a direct-handoff ping-pong pair keeps the hot slot full on
     every dispatch; the yielding main fiber (global inject queue) must
     still make progress via the periodic global check.  Before the fix the
     pair starved it until the round cap. *)
  let cap = 500_000 in
  let done_ = ref false in
  let rounds = ref 0 in
  S.run (fun () ->
    let slot_a = ref None and slot_b = ref None in
    let kick slot =
      match !slot with
      | Some r ->
        slot := None;
        r ()
      | None -> ()
    in
    S.spawn (fun () ->
      while (not !done_) && !rounds < cap do
        incr rounds;
        S.suspend (fun resume ->
          slot_a := Some resume;
          kick slot_b)
      done;
      kick slot_b);
    S.spawn (fun () ->
      while (not !done_) && !rounds < cap do
        S.suspend (fun resume ->
          slot_b := Some resume;
          kick slot_a)
      done;
      kick slot_a);
    for _ = 1 to 3 do
      S.yield ()
    done;
    done_ := true);
  check_bool "yielded fiber progressed before the round cap" true
    (!rounds < cap)

(* -- scheduler pools -------------------------------------------------------- *)

let test_pool_unknown_rejected () =
  check_bool "unknown pool" true
    (try
       S.run (fun () -> S.spawn_in "nope" (fun () -> ()));
       false
     with Invalid_argument _ -> true);
  check_bool "duplicate pool name" true
    (try
       S.run ~pools:[ "a"; "a" ] (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_pool_pinning () =
  (* A fiber spawned into a pool observes that pool at every execution
     slice — across yields, suspensions and resumptions — because only
     member workers of its pool ever run it.  Unpinned fibers stay in
     "default" likewise. *)
  let ok_hot = Atomic.make true and ok_def = Atomic.make true in
  let observe flag expected =
    if S.current_pool () <> expected then Atomic.set flag false
  in
  S.run ~domains:2 ~pools:[ "hot" ] (fun () ->
    let latch = Latch.create 40 in
    for _ = 1 to 20 do
      S.spawn_in "hot" (fun () ->
        observe ok_hot "hot";
        S.yield ();
        observe ok_hot "hot";
        S.sleep 0.001;
        observe ok_hot "hot";
        S.spawn (fun () ->
          (* children inherit the pool *)
          observe ok_hot "hot";
          Latch.count_down latch);
        Latch.count_down latch)
    done;
    check_int "spawner still in default" 0
      (if S.current_pool () = "default" then 0 else 1);
    Latch.wait latch;
    observe ok_def "default");
  check_bool "pinned fibers ran only in their pool" true (Atomic.get ok_hot);
  check_bool "main fiber stayed in default" true (Atomic.get ok_def)

let test_pool_absorbs_and_shrinks () =
  (* Autoscaling, observed deterministically with one worker: the worker
     starts in "default", migrates into "hot" when work floods it, and
     when "hot" runs dry it leaves for the waiting default work —
     shrinking the idle pool to zero members. *)
  let final = ref None in
  let observed = ref [] in
  S.run ~pools:[ "hot" ] ~on_counters:(fun c -> final := Some c) (fun () ->
    let latch = Latch.create 50 in
    for _ = 1 to 50 do
      S.spawn_in "hot" (fun () ->
        S.yield ();
        Latch.count_down latch)
    done;
    Latch.wait latch;
    (* The latch resumption brought the worker back to this (default)
       fiber, so "hot" has already lost its last member. *)
    observed := S.current_pool_counters ());
  let hot =
    match List.find_opt (fun p -> p.S.p_name = "hot") !observed with
    | Some p -> p
    | None -> Alcotest.fail "hot pool missing from pool_counters"
  in
  check_int "hot pool shrank to zero workers" 0 hot.S.p_workers;
  check_bool "hot pool recorded idle shrinks" true (hot.S.p_idle_shrinks >= 1);
  check_bool "hot pool drained its injections" true (hot.S.p_drains >= 50);
  match !final with
  | Some c ->
    check_bool "aggregate migrations counted" true (c.S.c_pool_migrations >= 2);
    check_bool "aggregate drains include hot" true
      (c.S.c_pool_drains >= hot.S.p_drains)
  | None -> Alcotest.fail "final counters missing"

let test_pool_multi_domain_flood () =
  (* Cross-domain pools under load: all fibers complete, pinning holds,
     and idle workers migrate into the flooded pool. *)
  let n = 2_000 in
  let hits = Atomic.make 0 in
  let ok = Atomic.make true in
  let final = ref None in
  S.run ~domains:4 ~pools:[ "hot"; "cold" ]
    ~on_counters:(fun c -> final := Some c)
    (fun () ->
      let latch = Latch.create n in
      for i = 1 to n do
        let pool = if i mod 4 = 0 then "cold" else "hot" in
        S.spawn_in pool (fun () ->
          if S.current_pool () <> pool then Atomic.set ok false;
          S.yield ();
          if S.current_pool () <> pool then Atomic.set ok false;
          Atomic.incr hits;
          Latch.count_down latch)
      done;
      Latch.wait latch);
  check_int "all pooled fibers ran" n (Atomic.get hits);
  check_bool "pinning held under load" true (Atomic.get ok);
  match !final with
  | Some c -> check_bool "workers migrated" true (c.S.c_pool_migrations > 0)
  | None -> Alcotest.fail "final counters missing"

let test_pool_counters_assoc_shape () =
  (* The flat view carries the aggregate keys (CI asserts on them) and a
     per-pool breakdown for every declared pool. *)
  let assoc = ref [] in
  S.run ~pools:[ "hot" ] (fun () ->
    S.spawn_in "hot" (fun () -> S.yield ());
    S.yield ();
    assoc := S.pool_counters_assoc (S.current_pool_counters ()));
  let has k = List.mem_assoc k !assoc in
  check_bool "pool_drains" true (has "pool_drains");
  check_bool "pool_migrations" true (has "pool_migrations");
  check_bool "pool_idle_shrinks" true (has "pool_idle_shrinks");
  check_bool "per-pool default" true (has "pool.default.drains");
  check_bool "per-pool hot" true (has "pool.hot.workers");
  check_bool "empty outside a scheduler" true (S.current_pool_counters () = [])

(* -- poller: fd readiness as a wake source ------------------------------- *)

let nonblock_pipe () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  (r, w)

let test_await_readable_wakes () =
  let r, w = nonblock_pipe () in
  S.run (fun () ->
    S.spawn (fun () ->
      S.sleep 0.02;
      ignore (Unix.write w (Bytes.of_string "x") 0 1 : int));
    S.await_readable r;
    let buf = Bytes.create 1 in
    check_int "byte arrived after the park" 1 (Unix.read r buf 0 1);
    check_bool "payload" true (Bytes.get buf 0 = 'x'));
  Unix.close r;
  Unix.close w

let test_await_writable_full_pipe () =
  let r, w = nonblock_pipe () in
  (* Fill the pipe until the kernel pushes back. *)
  let chunk = Bytes.make 4096 'z' in
  let filled = ref true in
  while !filled do
    match Unix.write w chunk 0 4096 with
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      filled := false
  done;
  S.run (fun () ->
    S.spawn (fun () ->
      S.sleep 0.02;
      (* Drain enough for a write to fit again. *)
      let buf = Bytes.create 65536 in
      ignore (Unix.read r buf 0 65536 : int));
    S.await_writable w;
    check_bool "write succeeds after the drain" true
      (Unix.write w chunk 0 1 = 1));
  Unix.close r;
  Unix.close w

let test_timer_fires_while_fd_parked () =
  (* A parked fd waiter must not starve the timer heap: the poller dozes
     only to the nearest deadline. *)
  let r, w = nonblock_pipe () in
  S.run (fun () ->
    S.spawn (fun () ->
      S.await_readable r;
      let buf = Bytes.create 1 in
      ignore (Unix.read r buf 0 1 : int));
    let t0 = Unix.gettimeofday () in
    S.sleep 0.03;
    let dt = Unix.gettimeofday () -. t0 in
    check_bool "sleep fired promptly despite the fd waiter" true (dt < 1.0);
    ignore (Unix.write w (Bytes.of_string "y") 0 1 : int));
  Unix.close r;
  Unix.close w

let test_closed_fd_unblocks_waiter () =
  (* Closing a descriptor out from under its waiter must resume it (the
     poller's EBADF sweep), not strand the scheduler. *)
  let r, w = nonblock_pipe () in
  let resumed = ref false in
  S.run (fun () ->
    S.spawn (fun () ->
      S.await_readable r;
      resumed := true);
    S.sleep 0.02;
    Unix.close r);
  check_bool "waiter resumed after close" true !resumed;
  Unix.close w

let test_many_fd_waiters_wake_independently () =
  let pipes = Array.init 4 (fun _ -> nonblock_pipe ()) in
  let woken = Array.make 4 false in
  S.run (fun () ->
    Array.iteri
      (fun i (r, _) ->
        S.spawn (fun () ->
          S.await_readable r;
          let buf = Bytes.create 1 in
          ignore (Unix.read r buf 0 1 : int);
          woken.(i) <- true))
      pipes;
    (* Release them one at a time, out of registration order. *)
    List.iter
      (fun i ->
        S.sleep 0.005;
        let _, w = pipes.(i) in
        ignore (Unix.write w (Bytes.of_string "k") 0 1 : int))
      [ 2; 0; 3; 1 ]);
  Array.iteri
    (fun i ok -> check_bool (Printf.sprintf "waiter %d woke" i) true ok)
    woken;
  Array.iter
    (fun (r, w) ->
      Unix.close r;
      Unix.close w)
    pipes

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "qs_sched"
    [
      ( "core",
        [
          Alcotest.test_case "run returns value" `Quick test_run_returns_value;
          Alcotest.test_case "run waits for spawned" `Quick test_run_waits_for_spawned;
          Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
          Alcotest.test_case "live counters" `Quick test_live_counters;
          Alcotest.test_case "obs sink records events" `Quick
            test_obs_sink_records_sched_events;
          Alcotest.test_case "yield interleaves" `Quick test_yield_interleaves;
          Alcotest.test_case "suspend/resume" `Quick test_suspend_resume;
          Alcotest.test_case "resume idempotent" `Quick test_resume_idempotent;
          Alcotest.test_case "stall detection" `Quick test_stall_detection;
          Alcotest.test_case "stall counts fibers" `Quick test_stall_counts_fibers;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "spawned exception propagates" `Quick
            test_spawned_exception_propagates;
          Alcotest.test_case "multi-domain sum" `Quick test_multi_domain_sum;
          Alcotest.test_case "nested run rejected" `Quick test_nested_run_rejected;
        ] );
      ( "pools",
        [
          Alcotest.test_case "unknown/duplicate rejected" `Quick
            test_pool_unknown_rejected;
          Alcotest.test_case "pinning across suspensions" `Quick
            test_pool_pinning;
          Alcotest.test_case "absorb and shrink to zero" `Quick
            test_pool_absorbs_and_shrinks;
          Alcotest.test_case "multi-domain flood" `Quick
            test_pool_multi_domain_flood;
          Alcotest.test_case "counters assoc shape" `Quick
            test_pool_counters_assoc_shape;
        ] );
      ( "timer",
        [
          Alcotest.test_case "sleep basic" `Quick test_sleep_basic;
          Alcotest.test_case "sleep zero is yield" `Quick test_sleep_zero_is_yield;
          Alcotest.test_case "sleep ordering across domains" `Quick
            test_sleep_ordering_across_domains;
          Alcotest.test_case "sleep keeps dependents alive" `Quick
            test_sleep_keeps_dependents_alive;
          Alcotest.test_case "unexpired timer, no false stall" `Quick
            test_unexpired_timer_no_false_stall;
          Alcotest.test_case "stall still detected after timer" `Quick
            test_stall_still_detected_after_timer;
          Alcotest.test_case "suspend_timeout resumed" `Quick
            test_suspend_timeout_resumed;
          Alcotest.test_case "suspend_timeout times out" `Quick
            test_suspend_timeout_times_out;
          Alcotest.test_case "timeout races fulfilment exactly once" `Quick
            test_timeout_race_exactly_once;
          Alcotest.test_case "hot-slot fairness regression" `Quick
            test_hot_slot_fairness;
          Alcotest.test_case "workers use minimal timer slack" `Quick
            test_workers_minimal_timer_slack;
          Alcotest.test_case "sleep overshoot stays small" `Quick
            test_sleep_overshoot_small;
        ] );
      ( "admission",
        [
          Alcotest.test_case "blocked client keeps the domain running" `Quick
            test_block_admission_keeps_domain_running;
        ] );
      ( "poller",
        [
          Alcotest.test_case "await_readable wakes" `Quick
            test_await_readable_wakes;
          Alcotest.test_case "await_writable on a full pipe" `Quick
            test_await_writable_full_pipe;
          Alcotest.test_case "timer fires while fd parked" `Quick
            test_timer_fires_while_fd_parked;
          Alcotest.test_case "closed fd unblocks waiter" `Quick
            test_closed_fd_unblocks_waiter;
          Alcotest.test_case "many waiters wake independently" `Quick
            test_many_fd_waiters_wake_independently;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "basic" `Quick test_ivar_basic;
          Alcotest.test_case "many readers" `Quick test_ivar_many_readers;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "peek" `Quick test_ivar_peek;
          Alcotest.test_case "error outcome" `Quick test_ivar_error;
          Alcotest.test_case "timed-out reader, late fill" `Quick
            test_ivar_timeout_late_fill;
          Alcotest.test_case "racing fills, multi-domain" `Quick
            test_ivar_racing_fills;
        ] );
      ( "promise",
        [
          Alcotest.test_case "basic" `Quick test_promise_basic;
          Alcotest.test_case "try_read" `Quick test_promise_try_read;
          Alcotest.test_case "double fulfill" `Quick test_promise_double_fulfill;
          Alcotest.test_case "force hook" `Quick test_promise_force_hook;
          Alcotest.test_case "on_fulfill" `Quick test_promise_on_fulfill;
          Alcotest.test_case "combinators" `Quick test_promise_combinators;
          Alcotest.test_case "all propagates force" `Quick
            test_promise_all_propagates_force;
          Alcotest.test_case "rejection" `Quick test_promise_rejection;
          Alcotest.test_case "rejection force hook" `Quick
            test_promise_rejection_force_hook;
          Alcotest.test_case "map rejection" `Quick test_promise_map_rejection;
          Alcotest.test_case "combinator rejection" `Quick
            test_promise_combinators_rejection;
          Alcotest.test_case "multi-domain readers" `Quick
            test_promise_multi_domain_readers;
        ] );
      ( "latch",
        [
          Alcotest.test_case "zero count" `Quick test_latch_zero;
          Alcotest.test_case "underflow" `Quick test_latch_underflow;
          Alcotest.test_case "negative" `Quick test_latch_negative;
        ] );
      ( "mutex/cond",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_mutex_mutual_exclusion;
          Alcotest.test_case "trylock" `Quick test_mutex_trylock;
          Alcotest.test_case "unlock unlocked" `Quick test_mutex_unlock_unlocked;
          Alcotest.test_case "with_lock releases on exn" `Quick
            test_with_lock_releases_on_exn;
          Alcotest.test_case "condition parity" `Quick test_cond_parity;
          Alcotest.test_case "signal wakes one" `Quick test_cond_signal_wakes_one;
        ] );
      ( "blocking queues",
        [
          Alcotest.test_case "spsc parks and wakes" `Quick test_bqueue_spsc_blocks;
          Alcotest.test_case "mpsc close drains" `Quick test_bqueue_mpsc_close_drains;
          Alcotest.test_case "mpsc close wakes" `Quick
            test_bqueue_mpsc_close_wakes_consumer;
          Alcotest.test_case "mpsc many producers" `Quick
            test_bqueue_mpsc_many_producers;
        ] );
      ( "parfor",
        [
          Alcotest.test_case "covers range" `Quick test_parfor_covers_range;
          Alcotest.test_case "empty range" `Quick test_parfor_empty;
          Alcotest.test_case "reduce" `Quick test_parfor_reduce;
          Alcotest.test_case "single chunk" `Quick test_parfor_single_chunk;
        ] );
      ( "properties",
        [
          qc prop_parfor_partition;
          qc prop_spawn_all_run;
          qc prop_ivar_one_winner;
        ] );
    ]
