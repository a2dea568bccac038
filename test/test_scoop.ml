(* Tests for the SCOOP/Qs runtime: the reasoning guarantees of paper §2.2
   under every optimization configuration, multi-reservation atomicity,
   deadlock detection, instrumentation, and API contracts. *)

module R = Scoop.Runtime
module Reg = Scoop.Registration
module Sh = Scoop.Shared
module Cfg = Scoop.Config
module S = Qs_sched.Sched
module Latch = Qs_sched.Latch
module Ivar = Qs_sched.Ivar

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let get = Qs_obs.Counter.get

(* A counter's value in a registry snapshot ([Scoop.Stats.assoc]); a
   name the registry does not know fails the test rather than reading 0. *)
let counter snap name =
  match List.assoc_opt name snap with
  | Some v -> v
  | None -> Alcotest.failf "no counter named %s" name

let all_configs = Cfg.presets @ [ Cfg.eve_base; Cfg.eve_qs ]

(* Run one test body under every configuration. *)
let per_config name body =
  List.map
    (fun config ->
      Alcotest.test_case
        (Printf.sprintf "%s [%s]" name config.Cfg.name)
        `Quick
        (fun () -> body config))
    all_configs

(* -- guarantee 2: per-client order, no interleaving ------------------------- *)

let test_order_single_client config =
  let log =
    R.run ~config (fun rt ->
      let h = R.processor rt in
      let log = Sh.create h (ref []) in
      R.separate rt h (fun reg ->
        for i = 1 to 50 do
          Sh.apply reg log (fun l -> l := i :: !l)
        done;
        Sh.get reg log (fun l -> List.rev !l)))
  in
  Alcotest.(check (list int)) "logged order" (List.init 50 (fun i -> i + 1)) log

(* Several clients log tagged calls; the handler's execution log must show
   each client's calls in order and contiguous per registration. *)
let test_no_interleaving config =
  let clients = 6 and per = 40 in
  let log =
    R.run ~domains:2 ~config (fun rt ->
      let h = R.processor rt in
      let log = Sh.create h (ref []) in
      let latch = Latch.create clients in
      for c = 0 to clients - 1 do
        S.spawn (fun () ->
          R.separate rt h (fun reg ->
            for i = 0 to per - 1 do
              Sh.apply reg log (fun l -> l := (c, i) :: !l)
            done);
          Latch.count_down latch)
      done;
      Latch.wait latch;
      R.separate rt h (fun reg -> Sh.get reg log (fun l -> List.rev !l)))
  in
  check_int "all calls executed" (clients * per) (List.length log);
  (* Contiguity: the log must decompose into runs of [per] entries, each
     run from a single client counting 0..per-1. *)
  let rec segments = function
    | [] -> ()
    | (c, 0) :: _ as l ->
      let seg = List.filteri (fun i _ -> i < per) l in
      let rest = List.filteri (fun i _ -> i >= per) l in
      List.iteri
        (fun i (c', i') ->
          check_int "client id stable" c c';
          check_int "in order" i i')
        seg;
      segments rest
    | (c, i) :: _ ->
      Alcotest.failf "registration starts mid-sequence: client %d at %d" c i
  in
  segments log

let test_query_sees_preceding_calls config =
  R.run ~config (fun rt ->
    let h = R.processor rt in
    let counter = Sh.create h (ref 0) in
    R.separate rt h (fun reg ->
      for expect = 1 to 20 do
        Sh.apply reg counter incr;
        check_int "query linearizes after calls" expect
          (Sh.get reg counter (fun r -> !r))
      done))

let test_read_synced config =
  R.run ~config (fun rt ->
    let h = R.processor rt in
    let arr = Sh.create h (Array.make 64 0) in
    R.separate rt h (fun reg ->
      for i = 0 to 63 do
        Sh.apply reg arr (fun a -> a.(i) <- i)
      done;
      let data = Sh.read_synced reg arr in
      check_int "synced data visible" (63 * 64 / 2) (Array.fold_left ( + ) 0 data);
      check_bool "registration synced" true (Reg.is_synced reg);
      (* An asynchronous call invalidates the synced status. *)
      Sh.apply reg arr (fun a -> a.(0) <- 100);
      check_bool "async invalidates" false (Reg.is_synced reg)))

(* -- multi-reservation (Fig. 5) ---------------------------------------------- *)

let test_multi_reservation_consistency config =
  let mismatches =
    R.run ~domains:2 ~config (fun rt ->
      let hx = R.processor rt and hy = R.processor rt in
      let x = Sh.create hx (ref 0) and y = Sh.create hy (ref 0) in
      let writers = 4 and rounds = 60 in
      let latch = Latch.create (writers + 1) in
      for c = 1 to writers do
        S.spawn (fun () ->
          for _ = 1 to rounds do
            R.separate2 rt hx hy (fun rx ry ->
              Sh.apply rx x (fun r -> r := c);
              Sh.apply ry y (fun r -> r := c))
          done;
          Latch.count_down latch)
      done;
      let bad = ref 0 in
      S.spawn (fun () ->
        for _ = 1 to 100 do
          R.separate2 rt hx hy (fun rx ry ->
            let vx = Sh.get rx x (fun r -> !r) in
            let vy = Sh.get ry y (fun r -> !r) in
            if vx <> vy then incr bad)
        done;
        Latch.count_down latch);
      Latch.wait latch;
      !bad)
  in
  check_int "colours always equal" 0 mismatches

let test_separate_list_order config =
  R.run ~config (fun rt ->
    let procs = R.processors rt 4 in
    R.separate_list rt procs (fun regs ->
      check_int "one registration per processor" 4 (List.length regs);
      List.iter2
        (fun p reg ->
          check_bool "same order as argument" true (Reg.processor reg == p))
        procs regs))

let test_separate_list_duplicate config =
  R.run ~config (fun rt ->
    let p = R.processor rt in
    let q = R.processor rt in
    Alcotest.check_raises "duplicate rejected"
      (Invalid_argument "Scoop.Separate: the same processor reserved twice")
      (fun () -> R.separate_list rt [ p; q; p ] (fun _ -> ())))

let test_separate_list_empty config =
  R.run ~config (fun rt ->
    check_int "empty reservation" 7 (R.separate_list rt [] (fun _ -> 7)))

(* -- deadlock (Fig. 6 with queries, §2.5) ------------------------------------ *)

let test_fig6_query_deadlock config =
  (* Force the cyclic queue configuration with ivar sequencing: client 1
     reserves x first, client 2 reserves y before client 1's inner block
     reserves it, and each queries its inner handler. *)
  let deadlocked =
    try
      R.run ~domains:1 ~config (fun rt ->
        let hx = R.processor rt and hy = R.processor rt in
        let a = Ivar.create () and b = Ivar.create () in
        let latch = Latch.create 2 in
        S.spawn (fun () ->
          R.separate rt hx (fun _rx ->
            Ivar.fill a ();
            Ivar.read b;
            R.separate rt hy (fun ry -> ignore (Reg.query ry (fun () -> 1))));
          Latch.count_down latch);
        S.spawn (fun () ->
          Ivar.read a;
          R.separate rt hy (fun _ry ->
            Ivar.fill b ();
            R.separate rt hx (fun rx -> ignore (Reg.query rx (fun () -> 2))));
          Latch.count_down latch);
        Latch.wait latch);
      false
    with S.Stalled _ -> true
  in
  check_bool "deadlock detected" true deadlocked

(* -- lifecycle and contracts -------------------------------------------------- *)

let test_registration_after_close config =
  R.run ~config (fun rt ->
    let h = R.processor rt in
    let escaped = ref None in
    R.separate rt h (fun reg -> escaped := Some reg);
    Alcotest.check_raises "escaped registration rejected"
      (Invalid_argument "Scoop.Registration: used outside its separate block")
      (fun () -> Reg.call (Option.get !escaped) (fun () -> ())))

let test_shared_wrong_block config =
  R.run ~config (fun rt ->
    let h1 = R.processor rt and h2 = R.processor rt in
    let obj = Sh.create h1 (ref 0) in
    R.separate rt h2 (fun reg ->
      let raised =
        try
          Sh.apply reg obj incr;
          false
        with Invalid_argument _ -> true
      in
      check_bool "ownership violation raises" true raised))

let test_handler_as_client config =
  (* A handler executing a call can itself open separate blocks (the
     threadring pattern). *)
  let v =
    R.run ~config (fun rt ->
      let h1 = R.processor rt and h2 = R.processor rt in
      let cell = Sh.create h2 (ref 0) in
      let done_ = Ivar.create () in
      R.separate rt h1 (fun reg ->
        Reg.call reg (fun () ->
          R.separate rt h2 (fun reg2 ->
            Sh.apply reg2 cell (fun r -> r := 41);
            Ivar.fill done_ (Sh.get reg2 cell (fun r -> !r + 1)))));
      Ivar.read done_)
  in
  check_int "nested handler client" 42 v

let test_sequential_blocks config =
  R.run ~config (fun rt ->
    let h = R.processor rt in
    let total = ref 0 in
    for _ = 1 to 100 do
      R.separate rt h (fun reg -> total := Reg.query reg (fun () -> !total + 1))
    done;
    check_int "hundred blocks" 100 !total)

(* -- instrumentation ----------------------------------------------------------- *)

(* -- mailbox structure and batch width -------------------------------------- *)

(* The bank-account result is identical whichever mailbox structure backs
   the handlers and whatever the drain batch width: the §2.2 guarantees
   are communication-structure independent. *)
let test_mailbox_batch_equivalence () =
  let tellers = 4 and deposits = 200 and initial = 100 in
  let expected = initial + (tellers * deposits) in
  List.iter
    (fun mailbox ->
      List.iter
        (fun batch ->
          let final =
            R.run ~domains:2
              ~config:Cfg.(all |> with_mailbox mailbox |> with_batch batch)
              (fun rt ->
              let account = R.processor rt in
              let balance = Sh.create account (ref initial) in
              let latch = Latch.create tellers in
              for _ = 1 to tellers do
                S.spawn (fun () ->
                  for _ = 1 to deposits do
                    R.separate rt account (fun reg ->
                      Sh.apply reg balance (fun b -> b := !b + 1))
                  done;
                  Latch.count_down latch)
              done;
              Latch.wait latch;
              R.separate rt account (fun reg -> Sh.get reg balance (fun b -> !b)))
          in
          check_int
            (Printf.sprintf "balance [%s, batch %d]"
               (match mailbox with `Qoq -> "qoq" | `Direct -> "direct")
               batch)
            expected final)
        [ 1; 4; 64 ])
    [ `Qoq; `Direct ]

(* The bank workload gives the same balance and the same request-path
   stats at one and at two domains: the worker count reroutes
   scheduling, never requests. *)
let test_domains_equivalence () =
  let tellers = 4 and deposits = 150 and initial = 100 in
  let expected = initial + (tellers * deposits) in
  let run ~domains =
    R.run ~domains ~config:Cfg.all (fun rt ->
      let account = R.processor rt in
      let balance = Sh.create account (ref initial) in
      let latch = Latch.create tellers in
      for _ = 1 to tellers do
        S.spawn (fun () ->
          for _ = 1 to deposits do
            R.separate rt account (fun reg ->
              Sh.apply reg balance (fun b -> b := !b + 1))
          done;
          Latch.count_down latch)
      done;
      Latch.wait latch;
      let final =
        R.separate rt account (fun reg -> Sh.get reg balance (fun b -> !b))
      in
      (final, Scoop.Stats.assoc (R.stats rt)))
  in
  let final_one, s_one = run ~domains:1 in
  let final_two, s_two = run ~domains:2 in
  check_int "balance at one domain" expected final_one;
  check_int "balance at two domains" expected final_two;
  let picture s =
    List.map (counter s)
      [ "calls"; "queries"; "reservations"; "handler_failures" ]
  in
  check_bool "same request-path stats" true (picture s_one = picture s_two)

(* Batched drain amortizes wakeups: a call-heavy workload under QoQ with
   batch > 1 delivers more than one request per handler wakeup, while
   batch 1 reproduces the old one-request-per-park loop exactly. *)
let test_mean_batch () =
  let run ~batch =
    R.run ~domains:2 ~config:Cfg.(qoq |> with_batch batch) (fun rt ->
      let buffer = R.processor rt in
      let queue = Sh.create buffer (Queue.create ()) in
      let producers = 4 and per = 100 in
      let latch = Latch.create producers in
      for i = 1 to producers do
        S.spawn (fun () ->
          for k = 1 to per do
            R.separate rt buffer (fun reg ->
              Sh.apply reg queue (fun q -> Queue.push ((i * per) + k) q);
              Sh.apply reg queue (fun q -> ignore (Queue.pop q : int)))
          done;
          Latch.count_down latch)
      done;
      Latch.wait latch;
      (* The producers never wait for the handler; queue-of-queues FIFO
         order means this query's sync round trip returns only after every
         earlier registration has been drained, so the counters are
         settled when the snapshot is taken. *)
      ignore
        (R.separate rt buffer (fun reg -> Sh.get reg queue Queue.length) : int);
      Scoop.Stats.assoc (R.stats rt))
  in
  let batched = run ~batch:16 in
  check_bool
    (Printf.sprintf "mean batch %.2f > 1 at batch 16"
       (Scoop.Stats.mean_batch batched))
    true
    (Scoop.Stats.mean_batch batched > 1.0);
  check_bool "ends counted" true (counter batched "ends_drained" > 0);
  let serial = run ~batch:1 in
  check_bool "mean batch = 1 at batch 1" true
    (Scoop.Stats.mean_batch serial = 1.0)

let test_stats_queries () =
  let snap config =
    R.run ~config (fun rt ->
      let h = R.processor rt in
      let x = Sh.create h (ref 5) in
      R.separate rt h (fun reg ->
        for _ = 1 to 10 do
          ignore (Sh.get reg x (fun r -> !r) : int)
        done);
      Scoop.Stats.assoc (R.stats rt))
  in
  let none = snap Cfg.none in
  check_int "none: packaged" 10 (counter none "packaged_queries");
  check_int "none: no syncs" 0 (counter none "syncs_sent");
  let dyn = snap Cfg.dynamic in
  check_int "dynamic: one sync" 1 (counter dyn "syncs_sent");
  check_int "dynamic: nine elided" 9 (counter dyn "syncs_elided");
  check_int "dynamic: none packaged" 0 (counter dyn "packaged_queries");
  let st = snap Cfg.static_ in
  check_int "static: ten syncs (no dynamic elision)" 10
    (counter st "syncs_sent")

let test_stats_eve_lookups () =
  let s =
    R.run ~config:Cfg.eve_qs (fun rt ->
      let h = R.processor rt in
      let x = Sh.create h (ref 0) in
      R.separate rt h (fun reg ->
        for _ = 1 to 5 do
          Sh.apply reg x incr
        done);
      Scoop.Stats.assoc (R.stats rt))
  in
  check_bool "eve lookups charged" true (counter s "eve_lookups" >= 5)

let test_stats_reservations () =
  let s =
    R.run (fun rt ->
      let ps = R.processors rt 3 in
      R.separate_list rt ps (fun _ -> ());
      R.separate rt (List.hd ps) (fun _ -> ());
      Scoop.Stats.assoc (R.stats rt))
  in
  check_int "processors" 3 (counter s "processors");
  check_int "reservations" 2 (counter s "reservations");
  check_int "multi reservations" 1 (counter s "multi_reservations")

(* -- wait conditions (precondition-as-wait semantics) -------------------------- *)

let test_wait_condition_basic config =
  R.run ~domains:2 ~config (fun rt ->
    let h = R.processor rt in
    let flag = Sh.create h (ref false) in
    let got = ref 0 in
    let latch = Latch.create 2 in
    S.spawn (fun () ->
      got :=
        R.separate_when rt h
          ~pred:(fun reg -> Sh.get reg flag (fun r -> !r))
          (fun reg -> Reg.query reg (fun () -> 99));
      Latch.count_down latch);
    S.spawn (fun () ->
      (* Give the waiter a chance to fail at least once, then enable. *)
      S.yield ();
      R.separate rt h (fun reg -> Sh.apply reg flag (fun r -> r := true));
      Latch.count_down latch);
    Latch.wait latch;
    check_int "body ran after condition" 99 !got)

let test_wait_condition_atomic_with_body config =
  (* The classic check-then-act race: with [separate_when] the condition
     and the decrement run under one registration, so the counter can
     never go negative even with many competing takers. *)
  let negative =
    R.run ~domains:2 ~config (fun rt ->
      let h = R.processor rt in
      let stock = Sh.create h (ref 20) in
      let takers = 8 in
      let latch = Latch.create takers in
      let negative = Atomic.make false in
      for _ = 1 to takers do
        S.spawn (fun () ->
          for _ = 1 to 5 do
            R.separate_when rt h
              ~pred:(fun reg -> Sh.get reg stock (fun r -> !r > 0))
              (fun reg ->
                Sh.apply reg stock (fun r ->
                  decr r;
                  if !r < 0 then Atomic.set negative true))
          done;
          Latch.count_down latch)
      done;
      (* Keep restocking so everyone finishes. *)
      S.spawn (fun () ->
        for _ = 1 to 40 do
          R.separate rt h (fun reg -> Sh.apply reg stock (fun r -> r := !r + 1));
          S.yield ()
        done);
      Latch.wait latch;
      Atomic.get negative)
  in
  check_bool "stock never negative" false negative

let test_wait_condition_multi config =
  (* Wait on a joint condition over two handlers. *)
  R.run ~domains:2 ~config (fun rt ->
    let ha = R.processor rt and hb = R.processor rt in
    let a = Sh.create ha (ref 0) and b = Sh.create hb (ref 0) in
    let latch = Latch.create 2 in
    let sum = ref 0 in
    S.spawn (fun () ->
      sum :=
        R.separate_list_when rt [ ha; hb ]
          ~pred:(fun regs ->
            match regs with
            | [ ra; rb ] ->
              Sh.get ra a (fun r -> !r) + Sh.get rb b (fun r -> !r) >= 10
            | _ -> assert false)
          (fun regs ->
            match regs with
            | [ ra; rb ] -> Sh.get ra a (fun r -> !r) + Sh.get rb b (fun r -> !r)
            | _ -> assert false);
      Latch.count_down latch);
    S.spawn (fun () ->
      for _ = 1 to 5 do
        R.separate rt ha (fun reg -> Sh.apply reg a incr);
        R.separate rt hb (fun reg -> Sh.apply reg b incr);
        S.yield ()
      done;
      Latch.count_down latch);
    Latch.wait latch;
    check_bool "condition held at body" true (!sum >= 10))

let test_wait_retries_counted () =
  let retries =
    R.run (fun rt ->
      let h = R.processor rt in
      let flag = Sh.create h (ref false) in
      S.spawn (fun () ->
        for _ = 1 to 3 do
          S.yield ()
        done;
        R.separate rt h (fun reg -> Sh.apply reg flag (fun r -> r := true)));
      ignore
        (R.separate_when rt h
           ~pred:(fun reg -> Sh.get reg flag (fun r -> !r))
           (fun _ -> ()));
      get (R.stats rt).Scoop.Stats.wait_retries)
  in
  check_bool "retries recorded" true (retries >= 1)

(* A failed condition parks until a reserved handler ends a registration
   that may have changed its state: one enabling block 20 ms later costs
   one failed evaluation, however long the enabler sleeps. *)
let test_wait_parks_until_change config =
  let retries =
    R.run ~config (fun rt ->
      let h = R.processor rt in
      let flag = Sh.create h (ref false) in
      S.spawn (fun () ->
        S.sleep 0.02;
        R.separate rt h (fun reg -> Sh.apply reg flag (fun r -> r := true)));
      R.separate_when rt h
        ~pred:(fun reg -> Sh.get reg flag (fun r -> !r))
        (fun _ -> ());
      get (R.stats rt).Scoop.Stats.wait_retries)
  in
  check_bool
    (Printf.sprintf "1 to 2 failed evaluations (got %d)" retries)
    true
    (retries >= 1 && retries <= 2)

(* A wait over two handlers is woken by a change to either of them. *)
let test_wait_multi_wakes_on_either config =
  R.run ~config (fun rt ->
    let ha = R.processor rt and hb = R.processor rt in
    let a = Sh.create ha (ref 0) and b = Sh.create hb (ref 0) in
    let read reg x = Sh.get reg x (fun r -> !r) in
    let wait_until target =
      R.separate_list_when rt [ ha; hb ]
        ~pred:(fun regs ->
          match regs with
          | [ ra; rb ] -> read ra a + read rb b >= target
          | _ -> assert false)
        (fun _ -> ())
    in
    List.iter
      (fun (h, x) ->
        S.spawn (fun () ->
          S.sleep 0.02;
          R.separate rt h (fun reg -> Sh.apply reg x incr));
        wait_until (1 + R.separate2 rt ha hb (fun ra rb -> read ra a + read rb b)))
      [ (hb, b); (ha, a) ];
    check_bool "both changes seen" true
      (R.separate2 rt ha hb (fun ra rb -> read ra a + read rb b) = 2))

(* Stopping a reserved handler releases a parked waiter with
   [Processor.Aborted]: no registration can change the handler any
   more. *)
let test_wait_released_by_stop stop () =
  R.run (fun rt ->
    let h = R.processor rt in
    let outcome = Ivar.create () in
    S.spawn (fun () ->
      Ivar.fill outcome
        (match R.separate_when rt h ~pred:(fun _ -> false) (fun _ -> ()) with
        | () -> None
        | exception Scoop.Processor.Aborted id -> Some id));
    S.sleep 0.02;
    stop rt;
    match Ivar.read outcome with
    | Some id -> check_int "names the stopped handler" (Scoop.Processor.id h) id
    | None -> Alcotest.fail "an unsatisfiable condition let the body run")

(* Nothing can ever wake an untimed, unsatisfiable wait: the parked
   waiter is a deadlock the scheduler reports, not a spin. *)
let test_wait_unsatisfiable_stalls () =
  match
    R.run (fun rt ->
      let h = R.processor rt in
      R.separate_when rt h ~pred:(fun _ -> false) (fun _ -> ()))
  with
  | () -> Alcotest.fail "an unsatisfiable condition let the body run"
  | exception S.Stalled _ -> ()

(* -- tracing (§7 instrumentation) ------------------------------------------------ *)

let test_trace_disabled_by_default () =
  R.run (fun rt -> check_bool "no trace" true (R.trace rt = None))

let test_trace_through_supplied_sink () =
  (* Tracing has one switch, [Config.with_trace]; a caller-supplied
     [~obs] sink turns it on as well, and the trace records into that
     very sink. *)
  let sink = Qs_obs.Sink.create () in
  R.run ~obs:sink (fun rt ->
    check_bool "config leaves tracing off" false (R.config rt).Cfg.trace;
    check_bool "runtime uses the supplied sink" true
      (match R.obs rt with Some s -> s == sink | None -> false);
    let tr = Option.get (R.trace rt) in
    check_bool "trace views the supplied sink" true (Scoop.Trace.sink tr == sink);
    let h = R.processor rt in
    let cell = Sh.create h (ref 0) in
    R.separate rt h (fun reg -> Sh.apply reg cell incr);
    check_bool "reservation recorded" true
      (List.exists
         (fun e -> e.Scoop.Trace.kind = Scoop.Trace.Reserved)
         (Scoop.Trace.events (Scoop.Trace.of_sink sink))))

(* [Trace.events] of a traced run, checked to name processor [h] only. *)
let events_of rt h =
  let events = Scoop.Trace.events (Option.get (R.trace rt)) in
  check_bool "every event names the one processor" true
    (List.for_all (fun e -> e.Scoop.Trace.proc = Scoop.Processor.id h) events);
  events

let count_kind events pred =
  List.length (List.filter (fun e -> pred e.Scoop.Trace.kind) events)

let test_trace_records_operations () =
  let evs =
    R.run ~config:Cfg.(all |> with_trace true) (fun rt ->
      let h = R.processor rt in
      let cell = Sh.create h (ref 0) in
      R.separate rt h (fun reg ->
        for _ = 1 to 10 do
          Sh.apply reg cell incr
        done;
        for _ = 1 to 5 do
          ignore (Sh.get reg cell (fun r -> !r) : int)
        done);
      events_of rt h)
  in
  let open Scoop.Trace in
  check_int "reservations" 1 (count_kind evs (( = ) Reserved));
  check_int "calls" 10 (count_kind evs (( = ) Call_logged));
  let latencies =
    List.filter_map
      (fun e -> match e.kind with Call_executed d -> Some d | _ -> None)
      evs
  in
  check_int "every call's latency recorded" 10 (List.length latencies);
  check_bool "latencies non-negative" true
    (List.for_all (fun d -> d >= 0.0) latencies);
  (* With dynamic coalescing: first query syncs, four elided. *)
  check_int "one sync" 1
    (count_kind evs (function Sync_round_trip _ -> true | _ -> false));
  check_int "four elided" 4 (count_kind evs (( = ) Sync_elided))

let test_trace_packaged_queries () =
  let evs =
    R.run ~config:Cfg.(none |> with_trace true) (fun rt ->
      let h = R.processor rt in
      let cell = Sh.create h (ref 3) in
      R.separate rt h (fun reg ->
        for _ = 1 to 7 do
          ignore (Sh.get reg cell (fun r -> !r) : int)
        done);
      events_of rt h)
  in
  let open Scoop.Trace in
  check_int "query round trips" 7
    (count_kind evs (function Query_round_trip _ -> true | _ -> false));
  check_int "no syncs" 0
    (count_kind evs (function Sync_round_trip _ -> true | _ -> false))

let test_trace_event_order () =
  R.run ~config:Cfg.(all |> with_trace true) (fun rt ->
    let h = R.processor rt in
    let cell = Sh.create h (ref 0) in
    R.separate rt h (fun reg ->
      Sh.apply reg cell incr;
      ignore (Sh.get reg cell (fun r -> !r) : int));
    let tr = Option.get (R.trace rt) in
    let events = Scoop.Trace.events tr in
    check_bool "timestamps monotone" true
      (let rec mono = function
         | a :: (b :: _ as rest) ->
           a.Scoop.Trace.at <= b.Scoop.Trace.at && mono rest
         | _ -> true
       in
       mono events);
    check_bool "reserved first" true
      (match events with
      | e :: _ -> e.Scoop.Trace.kind = Scoop.Trace.Reserved
      | [] -> false))

(* -- pipelined queries (promise-pipelined deferred rendezvous) ---------------- *)

let test_query_async_order config =
  (* Each promise must see exactly the calls logged before it: requests
     execute in logging order, pipelined or not. *)
  let vals =
    R.run ~domains:2 ~config (fun rt ->
      let h = R.processor rt in
      let r = ref 0 in
      R.separate rt h (fun reg ->
        let ps =
          List.init 10 (fun _ ->
            Reg.call reg (fun () -> incr r);
            Reg.query_async reg (fun () -> !r))
        in
        List.map (fun p -> Scoop.Promise.await p) ps))
  in
  Alcotest.(check (list int))
    "each promise sees its prefix"
    (List.init 10 (fun i -> i + 1))
    vals

let test_query_async_synced config =
  R.run ~config (fun rt ->
    let h = R.processor rt in
    let r = ref 0 in
    R.separate rt h (fun reg ->
      Reg.call reg (fun () -> incr r);
      let p = Reg.query_async reg (fun () -> !r) in
      check_bool "pending promise invalidates synced" false (Reg.is_synced reg);
      check_int "forced value" 1 (Scoop.Promise.await p);
      check_bool "force re-establishes synced" true (Reg.is_synced reg);
      Reg.call reg (fun () -> incr r);
      check_bool "call invalidates again" false (Reg.is_synced reg);
      (* A request logged between issue and force blocks the upgrade:
         the handler may still be busy with it when the force returns. *)
      let q = Reg.query_async reg (fun () -> !r) in
      Reg.call reg (fun () -> incr r);
      ignore (Scoop.Promise.await q : int);
      check_bool "stale force does not mark synced" false (Reg.is_synced reg)))

let test_query_async_after_close config =
  (* The promise outlives the separate block; forcing it afterwards
     still returns the value (but no longer updates the registration). *)
  R.run ~config (fun rt ->
    let h = R.processor rt in
    let r = ref 41 in
    let p =
      R.separate rt h (fun reg -> Reg.query_async reg (fun () -> !r + 1))
    in
    check_int "forced after block close" 42 (Scoop.Promise.await p))

let test_stats_promises () =
  (* Single domain: the handler cannot run between issue and force, so
     the ready/blocked split is deterministic. *)
  let s =
    R.run ~config:Cfg.qoq (fun rt ->
      let h = R.processor rt in
      let r = ref 0 in
      R.separate rt h (fun reg ->
        (* Forced immediately: the client blocks on the rendezvous. *)
        let p1 =
          Reg.query_async reg (fun () ->
            incr r;
            !r)
        in
        check_int "p1" 1 (Scoop.Promise.await p1);
        (* Forced after a blocking query has drained the queue past it:
           already resolved on first poll. *)
        let p2 =
          Reg.query_async reg (fun () ->
            incr r;
            !r)
        in
        check_int "blocking query drains" 2 (Reg.query reg (fun () -> !r));
        check_int "p2" 2 (Scoop.Promise.await p2));
      Scoop.Stats.assoc (R.stats rt))
  in
  check_int "created" 2 (counter s "promises_created");
  check_int "fulfilled" 2 (counter s "promises_fulfilled");
  check_int "ready on first poll" 1 (counter s "promises_ready_on_first_poll");
  check_int "forced blocking" 1 (counter s "promises_forced_blocking");
  Alcotest.(check (float 0.001)) "overlap ratio" 0.5 (Scoop.Stats.overlap_ratio s)

let test_trace_pipelined_queries () =
  let events =
    R.run ~config:Cfg.(qoq |> with_trace true) (fun rt ->
      let h = R.processor rt in
      let r = ref 0 in
      R.separate rt h (fun reg ->
        let ps =
          List.init 6 (fun _ ->
            Reg.query_async reg (fun () ->
              incr r;
              !r))
        in
        ignore (Scoop.Promise.await (Scoop.Promise.all ps) : int list));
      events_of rt h)
  in
  let durations =
    List.filter_map
      (fun e ->
        match e.Scoop.Trace.kind with
        | Scoop.Trace.Query_pipelined d -> Some d
        | _ -> None)
      events
  in
  check_int "pipelined spans" 6 (List.length durations);
  check_bool "durations non-negative" true
    (List.for_all (fun d -> d >= 0.0) durations)

(* -- failure semantics (typed completions, dirty-processor rule) --------------- *)

(* The observable failure behaviour must be identical under every preset
   and both mailbox structures: run each scenario over the full matrix. *)
let per_preset_mailbox name body =
  List.concat_map
    (fun config ->
      List.map
        (fun (mname, mailbox) ->
          Alcotest.test_case
            (Printf.sprintf "%s [%s/%s]" name config.Cfg.name mname)
            `Quick
            (fun () -> body config mailbox))
        [ ("qoq", `Qoq); ("direct", `Direct) ])
    Cfg.presets

let test_failing_query_reraises config mailbox =
  (* A raising blocking query re-raises the original exception on the
     client — under both query flavours — and, having a rendezvous, does
     not poison the registration. *)
  R.run ~config:(Cfg.with_mailbox mailbox config) (fun rt ->
    let h = R.processor rt in
    let cell = Sh.create h (ref 0) in
    R.separate rt h (fun reg ->
      Sh.apply reg cell incr;
      (match Reg.query reg (fun () -> failwith "boom") with
      | _ -> Alcotest.fail "raising query must re-raise"
      | exception Failure _ -> ());
      check_int "registration still serves" 1 (Sh.get reg cell (fun r -> !r))))

let test_failing_call_poisons config mailbox =
  (* A raising asynchronous call poisons the registration: the failure
     surfaces at the next sync point, later operations fail at issue, and
     the block exit re-raises; the handler itself survives. *)
  R.run ~config:(Cfg.with_mailbox mailbox config) (fun rt ->
    let h = R.processor rt in
    let cell = Sh.create h (ref 0) in
    let at_exit = ref false in
    (try
       R.separate rt h (fun reg ->
         Reg.call reg (fun () -> failwith "boom");
         (* The query's rendezvous guarantees the failing call has been
            served, so the poison check here is deterministic. *)
         (match Sh.get reg cell (fun r -> !r) with
         | _ -> Alcotest.fail "sync point must surface the poison"
         | exception Scoop.Handler_failure (_, Failure _) -> ());
         match Reg.call reg (fun () -> ()) with
         | () -> Alcotest.fail "poisoned registration must fail at issue"
         | exception Scoop.Handler_failure (_, Failure _) -> ())
     with Scoop.Handler_failure (_, Failure _) -> at_exit := true);
    check_bool "block exit re-raises the poison" true !at_exit;
    R.separate rt h (fun reg ->
      Sh.apply reg cell incr;
      check_int "handler survives for fresh registrations" 1
        (Sh.get reg cell (fun r -> !r))))

let test_failing_query_async_rejects config mailbox =
  (* A raising pipelined query rejects its promise; forcing re-raises on
     the client and the registration stays clean. *)
  R.run ~config:(Cfg.with_mailbox mailbox config) (fun rt ->
    let h = R.processor rt in
    let cell = Sh.create h (ref 0) in
    R.separate rt h (fun reg ->
      Sh.apply reg cell incr;
      let p = Reg.query_async reg (fun () -> failwith "boom") in
      (match Scoop.Promise.await p with
      | _ -> Alcotest.fail "forcing a rejected promise must raise"
      | exception Failure _ -> ());
      check_bool "rejection does not poison" false (Reg.is_poisoned reg);
      check_int "registration still serves" 1 (Sh.get reg cell (fun r -> !r))))

(* -- processor lifecycle ------------------------------------------------------- *)

let test_shutdown_graceful () =
  R.run (fun rt ->
    let h = R.processor rt in
    let r = ref 0 in
    let cell = Sh.create h r in
    R.separate rt h (fun reg ->
      for _ = 1 to 100 do
        Sh.apply reg cell incr
      done);
    R.shutdown rt;
    (* The handler fiber has exited: the backing ref is safe to read
       directly, and every logged call was served first. *)
    check_int "drained before exit" 100 !r;
    check_bool "stopped" true
      (Scoop.Processor.lifecycle h = Scoop.Processor.Stopped);
    R.shutdown rt;
    check_bool "second shutdown is a no-op" true
      (Scoop.Processor.lifecycle h = Scoop.Processor.Stopped))

let test_abort_discards_pending () =
  let s =
    R.run (fun rt ->
      let h = R.processor rt in
      let r = ref 0 in
      let cell = Sh.create h r in
      (* Single domain: the handler fiber gets no cycles between the
         block and the abort, so all ten calls are still pending. *)
      R.separate rt h (fun reg ->
        for _ = 1 to 10 do
          Sh.apply reg cell incr
        done);
      R.abort rt;
      check_int "pending calls discarded unexecuted" 0 !r;
      check_bool "stopped (abort is not a failure)" true
        (Scoop.Processor.lifecycle h = Scoop.Processor.Stopped);
      Scoop.Stats.assoc (R.stats rt))
  in
  check_int "aborted requests counted" 10 (counter s "aborted_requests");
  check_int "end marker still drained" 1 (counter s "ends_drained")

let test_failed_lifecycle () =
  R.run (fun rt ->
    let h = R.processor rt in
    (* The poison may or may not surface at block exit depending on
       scheduling; either way the handler records the failure. *)
    (try R.separate rt h (fun reg -> Reg.call reg (fun () -> failwith "boom"))
     with Scoop.Handler_failure (_, Failure _) -> ());
    R.shutdown rt;
    check_bool "failed" true
      (Scoop.Processor.lifecycle h = Scoop.Processor.Failed))

let test_failure_counters () =
  let s =
    R.run (fun rt ->
      let h = R.processor rt in
      let cell = Sh.create h (ref 0) in
      (try
         R.separate rt h (fun reg ->
           let p = Reg.query_async reg (fun () -> failwith "reject") in
           (match Scoop.Promise.await p with
           | _ -> Alcotest.fail "must reject"
           | exception Failure _ -> ());
           Reg.call reg (fun () -> failwith "poison");
           match Sh.get reg cell (fun r -> !r) with
           | _ -> Alcotest.fail "must be poisoned"
           | exception Scoop.Handler_failure (_, Failure _) -> ())
       with Scoop.Handler_failure (_, Failure _) -> ());
      Scoop.Stats.assoc (R.stats rt))
  in
  check_int "handler failures" 2 (counter s "handler_failures");
  check_int "rejected promises" 1 (counter s "rejected_promises");
  check_int "poisoned registrations" 1 (counter s "poisoned_registrations");
  check_int "no aborted requests" 0 (counter s "aborted_requests")

(* -- deadlines & backpressure ------------------------------------------------- *)

(* Acceptance: a query against a deliberately wedged handler (a logged
   call that sleeps far longer than the deadline) raises [Scoop.Timeout]
   no earlier than the deadline and within ~2x of it.  Exercised under
   both query flavours (packaged in [none], client-executed in [all])
   and both mailboxes. *)
let test_wedged_query_timeout config mailbox =
  let dt =
    R.run ~config:(Cfg.with_mailbox mailbox config) (fun rt ->
      let h = R.processor rt in
      R.separate rt h (fun reg ->
        Reg.call reg (fun () -> S.sleep 0.4);
        let t0 = Unix.gettimeofday () in
        (match Reg.query ~timeout:0.1 reg (fun () -> 1) with
        | _ -> Alcotest.fail "wedged query must time out"
        | exception Scoop.Timeout -> ());
        Unix.gettimeofday () -. t0))
  in
  check_bool "not before the deadline" true (dt >= 0.09);
  check_bool "within ~2x the deadline" true (dt <= 0.2)

let test_timeout_does_not_poison () =
  R.run (fun rt ->
    let h = R.processor rt in
    let r = ref 0 in
    R.separate rt h (fun reg ->
      Reg.call reg (fun () ->
        S.sleep 0.15;
        incr r);
      (match Reg.query ~timeout:0.02 reg (fun () -> !r) with
      | _ -> Alcotest.fail "must time out"
      | exception Scoop.Timeout -> ());
      check_bool "not poisoned" false (Reg.is_poisoned reg);
      (* The same registration still serves: an unbounded query now
         rendezvouses after the slow call completes. *)
      check_int "later query sees the slow call" 1 (Reg.query reg (fun () -> !r)));
    let st = R.stats rt in
    check_bool "timeout counted" true (get st.Scoop.Stats.timeouts_fired >= 1);
    check_bool "deadline_exceeded counted" true
      (get st.Scoop.Stats.deadline_exceeded >= 1);
    check_int "no poisoning" 0 (get st.Scoop.Stats.poisoned_registrations))

let test_default_deadline () =
  (* [with_deadline] makes every blocking query implicitly timed. *)
  R.run ~config:Cfg.(all |> with_deadline 0.05) (fun rt ->
    let h = R.processor rt in
    R.separate rt h (fun reg ->
      Reg.call reg (fun () -> S.sleep 0.2);
      match Reg.query reg (fun () -> 1) with
      | _ -> Alcotest.fail "default deadline must apply"
      | exception Scoop.Timeout -> ()))

let test_promise_await_timeout () =
  R.run (fun rt ->
    let h = R.processor rt in
    R.separate rt h (fun reg ->
      Reg.call reg (fun () -> S.sleep 0.15);
      let p = Reg.query_async reg (fun () -> 42) in
      (match Scoop.Promise.await ~timeout:0.02 p with
      | _ -> Alcotest.fail "pipelined force must time out"
      | exception Scoop.Timeout -> ());
      (* A timed-out force is not a rendezvous: the promise remains
         forceable and later completes normally. *)
      check_int "later force succeeds" 42 (Scoop.Promise.await p)))

let test_wait_condition_timeout () =
  R.run (fun rt ->
    let h = R.processor rt in
    let t0 = Unix.gettimeofday () in
    (match
       R.separate_when ~timeout:0.05 rt h ~pred:(fun _ -> false) (fun _ -> ())
     with
    | () -> Alcotest.fail "unsatisfiable wait condition must time out"
    | exception Scoop.Timeout -> ());
    check_bool "timed out promptly" true (Unix.gettimeofday () -. t0 < 1.0);
    let st = R.stats rt in
    check_bool "retried before the deadline" true
      (get st.Scoop.Stats.wait_retries >= 1);
    check_bool "deadline_exceeded counted" true
      (get st.Scoop.Stats.deadline_exceeded >= 1))

let test_lock_reservation_timeout () =
  (* Lock mode: a reservation against a held handler lock times out, the
     timed-out waiter is skipped by the FIFO hand-off, and a later
     reservation still succeeds. *)
  R.run ~config:Cfg.(all |> with_mailbox `Direct) (fun rt ->
    let h = R.processor rt in
    let entered = Ivar.create () in
    S.spawn (fun () ->
      R.separate rt h (fun _reg ->
        Ivar.fill entered ();
        S.sleep 0.2));
    Ivar.read entered;
    (match R.separate ~timeout:0.02 rt h (fun _ -> ()) with
    | () -> Alcotest.fail "reservation against a held lock must time out"
    | exception Scoop.Timeout -> ());
    (* Blocks until the holder wakes and releases — the hand-off must
       not have been consumed by the dead timed-out waiter. *)
    R.separate rt h (fun _ -> ());
    check_bool "deadline_exceeded counted" true
      (get (R.stats rt).Scoop.Stats.deadline_exceeded >= 1);
    (* Multi-reservation takes the locks in id order, so with the
       higher-id handler held it holds the lower-id lock when its
       deadline passes: the timed-out reservation must release it. *)
    let reserve_both =
      [
        ( "separate_list",
          fun lo hi -> R.separate_list ~timeout:0.02 rt [ hi; lo ] ignore );
        ( "separate2",
          fun lo hi -> R.separate2 ~timeout:0.02 rt lo hi (fun _ _ -> ()) );
      ]
    in
    List.iter
      (fun (name, reserve) ->
        let lo = R.processor rt in
        let hi = R.processor rt in
        let entered = Ivar.create () in
        S.spawn (fun () ->
          R.separate rt hi (fun _reg ->
            Ivar.fill entered ();
            S.sleep 0.2));
        Ivar.read entered;
        (match reserve lo hi with
        | () -> Alcotest.failf "%s: reservation of a held handler must time out" name
        | exception Scoop.Timeout -> ());
        match R.separate ~timeout:0.01 rt lo (fun _ -> ()) with
        | () -> ()
        | exception Scoop.Timeout ->
          Alcotest.failf "%s: the timed-out reservation kept the lower-id lock"
            name)
      reserve_both)

let test_shutdown_grace_escalates () =
  let s =
    R.run (fun rt ->
      let h = R.processor rt in
      let r = ref 0 in
      let cell = Sh.create h r in
      R.separate rt h (fun reg ->
        for _ = 1 to 10 do
          Sh.apply reg cell (fun r ->
            S.sleep 0.05;
            incr r)
        done);
      let t0 = Unix.gettimeofday () in
      R.shutdown ~grace:0.08 rt;
      let dt = Unix.gettimeofday () -. t0 in
      (* Full drain would take ~0.5s; the grace period aborts the backlog
         after ~0.08s plus at most one in-flight call. *)
      check_bool "escalated well before full drain" true (dt < 0.4);
      check_bool "served some of the backlog first" true (!r >= 1);
      Scoop.Stats.assoc (R.stats rt))
  in
  check_bool "backlog aborted" true (counter s "aborted_requests" > 0)

let test_backpressure_block () =
  (* [`Block] admission: clients yield at the bound until the handler
     drains, so everything completes — even on one domain, where the
     admission loop must hand the domain to the handler fiber. *)
  R.run ~config:Cfg.(all |> with_bound 2 |> with_overflow `Block) (fun rt ->
    let h = R.processor rt in
    let r = ref 0 in
    let cell = Sh.create h r in
    R.separate rt h (fun reg ->
      for _ = 1 to 10 do
        Sh.apply reg cell incr
      done;
      check_int "all calls served" 10 (Sh.get reg cell (fun r -> !r)));
    check_int "nothing shed" 0 (get (R.stats rt).Scoop.Stats.shed_requests))

let test_backpressure_fail () =
  (* [`Fail] admission: the bound refuses the third in-flight call at
     issue with [Scoop.Overloaded]. *)
  let s =
    R.run ~config:Cfg.(all |> with_bound 2 |> with_overflow `Fail) (fun rt ->
      let h = R.processor rt in
      let r = ref 0 in
      let cell = Sh.create h r in
      let overloaded = ref false in
      R.separate rt h (fun reg ->
        try
          (* Single domain: the handler gets no cycles while we log, so
             the backlog crosses the bound deterministically. *)
          for _ = 1 to 10 do
            Sh.apply reg cell incr
          done
        with Scoop.Overloaded _ -> overloaded := true);
      check_bool "admission refused at the bound" true !overloaded;
      Scoop.Stats.assoc (R.stats rt))
  in
  check_bool "refusals counted" true (counter s "shed_requests" >= 1)

let test_backpressure_shed_oldest () =
  (* [`Shed_oldest]: every admission past the bound sheds the oldest
     pending request; the shed calls fail with [Overloaded], which
     poisons the registration like any failed call. *)
  let s =
    R.run
      ~config:Cfg.(all |> with_bound 2 |> with_overflow `Shed_oldest)
      (fun rt ->
      let h = R.processor rt in
      let r = ref 0 in
      let cell = Sh.create h r in
      let surfaced = ref false in
      (try
         R.separate rt h (fun reg ->
           for _ = 1 to 6 do
             Sh.apply reg cell incr
           done;
           match Sh.get reg cell (fun r -> !r) with
           | _ -> ()
           | exception Scoop.Handler_failure (_, Scoop.Overloaded _) ->
             surfaced := true)
       with Scoop.Handler_failure (_, Scoop.Overloaded _) -> surfaced := true);
      check_bool "shedding surfaced as Overloaded poison" true !surfaced;
      check_bool "the newest calls survived" true (!r >= 1 && !r < 6);
      Scoop.Stats.assoc (R.stats rt))
  in
  check_int "four of six calls shed" 4 (counter s "shed_requests")

(* Poisoning is per-registration: one chaos client injecting failures
   never loses other clients' effects, and after an awaited shutdown the
   request accounting balances — every batched request is exactly one
   call, packaged query, pipelined query, sync, or end marker. *)
let prop_poisoning_isolated config =
  QCheck2.Test.make ~count:15
    ~name:(Printf.sprintf "poisoning is per-registration [%s]" config.Cfg.name)
    QCheck2.Gen.(list_size (int_range 2 5) (int_range 1 15))
    (fun client_rounds ->
      let ok = Atomic.make true in
      let s =
        R.run ~domains:2 ~config (fun rt ->
          let h = R.processor rt in
          let cell = Sh.create h (ref 0) in
          let latch = Latch.create (List.length client_rounds) in
          List.iteri
            (fun i rounds ->
              S.spawn (fun () ->
                for _ = 1 to rounds do
                  try
                    R.separate rt h (fun reg ->
                      Sh.apply reg cell incr;
                      if i = 0 then Reg.call reg (fun () -> failwith "chaos"))
                  with Scoop.Handler_failure (_, Failure _) -> ()
                done;
                Latch.count_down latch))
            client_rounds;
          Latch.wait latch;
          let total =
            R.separate rt h (fun reg -> Sh.get reg cell (fun r -> !r))
          in
          if total <> List.fold_left ( + ) 0 client_rounds then
            Atomic.set ok false;
          R.shutdown rt;
          Scoop.Stats.assoc (R.stats rt))
      in
      let accounted =
        counter s "calls" + counter s "packaged_queries"
        + counter s "promises_created" + counter s "syncs_sent"
        + counter s "ends_drained"
      in
      Atomic.get ok
      && counter s "batched_requests" = accounted
      && counter s "handler_failures"
         >= counter s "poisoned_registrations"
      && counter s "poisoned_registrations" > 0)

let test_config_by_name () =
  List.iter
    (fun c ->
      match Cfg.by_name c.Cfg.name with
      | Some found -> check_bool c.Cfg.name true (found = c)
      | None -> Alcotest.failf "missing preset %s" c.Cfg.name)
    all_configs;
  check_bool "unknown" true (Cfg.by_name "bogus" = None)

(* -- property: random programs match the sequential model ---------------------- *)

type op = Add of int | Query

let op_gen =
  QCheck2.Gen.(oneof [ map (fun i -> Add (1 + (i mod 9))) small_int; return Query ])

let prog_gen = QCheck2.Gen.(list_size (int_bound 6) (list_size (int_bound 15) op_gen))

let prop_random_programs config =
  QCheck2.Test.make ~count:30
    ~name:(Printf.sprintf "random client programs [%s]" config.Cfg.name)
    prog_gen
    (fun clients ->
      let expected =
        List.fold_left
          (fun acc ops ->
            acc
            + List.fold_left (fun a -> function Add n -> a + n | Query -> a) 0 ops)
          0 clients
      in
      let monotone = ref true in
      let final =
        R.run ~domains:2 ~config (fun rt ->
          let h = R.processor rt in
          let counter = Sh.create h (ref 0) in
          let latch = Latch.create (List.length clients) in
          List.iter
            (fun ops ->
              S.spawn (fun () ->
                R.separate rt h (fun reg ->
                  let last = ref (-1) in
                  List.iter
                    (function
                      | Add n -> Sh.apply reg counter (fun r -> r := !r + n)
                      | Query ->
                        let v = Sh.get reg counter (fun r -> !r) in
                        (* Within one registration the counter can only
                           grow (other clients cannot interleave). *)
                        if v < !last then monotone := false;
                        last := v)
                    ops);
                Latch.count_down latch))
            clients;
          Latch.wait latch;
          R.separate rt h (fun reg -> Sh.get reg counter (fun r -> !r)))
      in
      final = expected && !monotone)

(* query_async + force must be observationally equivalent to a blocking
   query issued at the same point: each flavour returns the prefix sum of
   the client's own adds at its issue point.  One private handler per
   client keeps the expected value deterministic; [PForceLater] promises
   are forced only after the whole program ran, exercising long-deferred
   rendezvous. *)
type pop = PAdd of int | PQuery | PForceNow | PForceLater

let pop_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun i -> PAdd (1 + (i mod 9))) small_int);
        (1, return PQuery);
        (1, return PForceNow);
        (1, return PForceLater);
      ])

let pprog_gen =
  QCheck2.Gen.(list_size (int_range 1 4) (list_size (int_bound 20) pop_gen))

let prop_query_async_equiv config =
  QCheck2.Test.make ~count:25
    ~name:
      (Printf.sprintf "query_async equivalent to blocking query [%s]"
         config.Cfg.name)
    pprog_gen
    (fun clients ->
      let ok = Atomic.make true in
      let expect_or_fail v expect =
        if v <> expect then Atomic.set ok false
      in
      R.run ~domains:2 ~config (fun rt ->
        let latch = Latch.create (List.length clients) in
        List.iter
          (fun ops ->
            S.spawn (fun () ->
              let h = R.processor rt in
              let r = ref 0 in
              R.separate rt h (fun reg ->
                let sum = ref 0 in
                let deferred = ref [] in
                List.iter
                  (function
                    | PAdd n ->
                      sum := !sum + n;
                      Reg.call reg (fun () -> r := !r + n)
                    | PQuery -> expect_or_fail (Reg.query reg (fun () -> !r)) !sum
                    | PForceNow ->
                      let expect = !sum in
                      expect_or_fail
                        (Scoop.Promise.await (Reg.query_async reg (fun () -> !r)))
                        expect
                    | PForceLater ->
                      deferred :=
                        (Reg.query_async reg (fun () -> !r), !sum) :: !deferred)
                  ops;
                List.iter
                  (fun (p, expect) ->
                    expect_or_fail (Scoop.Promise.await p) expect)
                  !deferred);
              Latch.count_down latch))
          clients;
        Latch.wait latch);
      Atomic.get ok)

(* A generous deadline must be semantically invisible: the same random
   client programs as [prop_query_async_equiv], but with every blocking
   operation (reservation, query, promise force) carrying a [?timeout]
   far larger than any real wait.  Runs across every preset and both
   mailboxes — the deadline plumbing must not perturb either request
   path. *)
let prop_generous_timeout_equiv config mailbox =
  QCheck2.Test.make ~count:15
    ~name:
      (Printf.sprintf "generous timeout is invisible [%s/%s]" config.Cfg.name
         (match mailbox with `Qoq -> "qoq" | `Direct -> "direct"))
    pprog_gen
    (fun clients ->
      let ok = Atomic.make true in
      let expect_or_fail v expect = if v <> expect then Atomic.set ok false in
      R.run ~domains:2 ~config:(Cfg.with_mailbox mailbox config) (fun rt ->
        let latch = Latch.create (List.length clients) in
        List.iter
          (fun ops ->
            S.spawn (fun () ->
              let h = R.processor rt in
              let r = ref 0 in
              R.separate ~timeout:60.0 rt h (fun reg ->
                let sum = ref 0 in
                let deferred = ref [] in
                List.iter
                  (function
                    | PAdd n ->
                      sum := !sum + n;
                      Reg.call reg (fun () -> r := !r + n)
                    | PQuery ->
                      expect_or_fail
                        (Reg.query ~timeout:60.0 reg (fun () -> !r))
                        !sum
                    | PForceNow ->
                      let expect = !sum in
                      expect_or_fail
                        (Scoop.Promise.await ~timeout:60.0
                           (Reg.query_async reg (fun () -> !r)))
                        expect
                    | PForceLater ->
                      deferred :=
                        (Reg.query_async reg (fun () -> !r), !sum) :: !deferred)
                  ops;
                List.iter
                  (fun (p, expect) ->
                    expect_or_fail (Scoop.Promise.await ~timeout:60.0 p) expect)
                  !deferred);
              Latch.count_down latch))
          clients;
        Latch.wait latch);
      Atomic.get ok)

(* -- the request path ---------------------------------------------------------- *)

(* One mixed workload: calls, shared-object accesses, blocking queries
   and pipelined queries.  Returns the observable outcome — final value
   plus every query result — and the number of requests served per
   class, so traced and untraced runs can be compared request for
   request. *)
let request_workload ~traced config =
  R.run ~domains:2 ~config:(Cfg.with_trace traced config) (fun rt ->
    let h = R.processor rt in
    let r = ref 0 in
    let obj = Sh.create h (ref 0) in
    let results = ref [] in
    let keep v = results := v :: !results in
    R.separate rt h (fun reg ->
      for i = 1 to 40 do
        Reg.call reg (fun () -> r := !r + 1);
        Sh.apply reg obj (fun c -> c := !c + i);
        keep (Reg.query reg (fun () -> !r));
        keep (Sh.get reg obj (fun c -> !c + 100));
        Sh.set reg obj (ref i);
        let p = Reg.query_async reg (fun () -> !r) in
        keep (Scoop.Promise.await p)
      done);
    let final = R.separate rt h (fun reg -> Reg.query reg (fun () -> !r)) in
    let stats = R.stats rt in
    let served name =
      (Qs_obs.Histogram.dist (Scoop.Stats.histograms stats) name)
        .Qs_obs.Histogram.total
    in
    let mix =
      [
        ("calls", Qs_obs.Counter.value (Scoop.Stats.assoc stats) "calls");
        ("queries", Qs_obs.Counter.value (Scoop.Stats.assoc stats) "queries");
        ("call_local_ns", served "call_local_ns");
        ("query_local_ns", served "query_local_ns");
        ("pipelined_local_ns", served "pipelined_local_ns");
      ]
    in
    (final, List.rev !results, mix))

(* Tracing observes the request path without changing it: a traced run
   issues and serves the same requests, per kind, as an untraced one. *)
let test_traced_same_requests config =
  let f_plain, rs_plain, mix_plain = request_workload ~traced:false config in
  let f_traced, rs_traced, mix_traced = request_workload ~traced:true config in
  check_int "same final value" f_plain f_traced;
  Alcotest.(check (list int)) "same query results" rs_plain rs_traced;
  Alcotest.(check (list (pair string int)))
    "same request mix per kind" mix_plain mix_traced;
  check_int "every call served" 120 (List.assoc "call_local_ns" mix_plain)

let test_call_flood config =
  (* Flood asynchronous calls without ever syncing: every one is logged
     and served, in order, with nothing lost. *)
  let n = 2_000 in
  let total =
    R.run ~config (fun rt ->
      let h = R.processor rt in
      let r = ref 0 in
      R.separate rt h (fun reg ->
        for _ = 1 to n do
          Reg.call reg (fun () -> incr r)
        done;
        Reg.query reg (fun () -> !r)))
  in
  check_int "every call served" n total

let test_timeout_abandons_wait config =
  (* A timed-out query abandons the wait, never the work: the handler
     still runs it, and later round trips through the same registration
     still succeed.  Only packaged-flavour queries round-trip through
     the handler (under [client_query] the body runs on the client
     fiber, which would self-deadlock on the gate). *)
  if not config.Cfg.client_query then begin
    let after =
      R.run ~domains:2 ~config (fun rt ->
        let h = R.processor rt in
        let gate = Atomic.make false in
        let r = ref 0 in
        R.separate rt h (fun reg ->
          (match
             Reg.query ~timeout:0.02 reg (fun () ->
               while not (Atomic.get gate) do
                 Domain.cpu_relax ()
               done;
               incr r;
               !r)
           with
          | (_ : int) -> Alcotest.fail "expected Timeout"
          | exception Qs_sched.Timer.Timeout -> ());
          Atomic.set gate true;
          for _ = 1 to 50 do
            ignore (Reg.query reg (fun () -> !r) : int)
          done;
          Reg.query reg (fun () -> !r)))
    in
    check_int "abandoned query still executed" 1 after
  end

let test_round_trips_own_results config =
  (* Every request is its own block with its own completion: across many
     rounds of calls, blocking queries and pipelined queries forced out
     of issue order, each query returns the value at its own issue point
     and the counters account for every request. *)
  let rounds = 300 in
  let results, calls, queries =
    R.run ~domains:2 ~config (fun rt ->
      let h = R.processor rt in
      let r = ref 0 in
      let results =
        R.separate rt h (fun reg ->
          List.init rounds (fun _ ->
            Reg.call reg (fun () -> incr r);
            let p1 = Reg.query_async reg (fun () -> !r) in
            Reg.call reg (fun () -> incr r);
            let p2 = Reg.query_async reg (fun () -> !r) in
            let v2 = Scoop.Promise.await p2 in
            let v1 = Scoop.Promise.await p1 in
            (v1, v2, Reg.query reg (fun () -> !r))))
      in
      let counters = Scoop.Stats.assoc (R.stats rt) in
      ( results,
        Qs_obs.Counter.value counters "calls",
        Qs_obs.Counter.value counters "queries" ))
  in
  List.iteri
    (fun i (v1, v2, v3) ->
      check_int "first pipelined" ((2 * i) + 1) v1;
      check_int "second pipelined" ((2 * i) + 2) v2;
      check_int "blocking" ((2 * i) + 2) v3)
    results;
  check_int "calls counted" (2 * rounds) calls;
  check_int "queries counted" (3 * rounds) queries

let test_rejected_promise_unsynced config =
  (* Only a fulfilled promise re-establishes synced status: a rejected
     one may come from shedding or abort, which drain nothing, so the
     next sync is a real one and the next query sees every earlier call. *)
  R.run ~config (fun rt ->
    let h = R.processor rt in
    let r = ref 0 in
    R.separate rt h (fun reg ->
      Reg.call reg (fun () -> incr r);
      let p = Reg.query_async reg (fun () -> failwith "reject") in
      (match Scoop.Promise.await p with
      | (_ : int) -> Alcotest.fail "must reject"
      | exception Failure _ -> ());
      check_bool "rejected force leaves unsynced" false (Reg.is_synced reg);
      check_int "later query sees the call" 1 (Reg.query reg (fun () -> !r));
      check_bool "the query's round trip syncs" true (Reg.is_synced reg)))

let test_handler_elision_pipelined () =
  (* The handler-side drained hint: pipelined query fulfilled at the
     tail of a drained batch + watermark-clean force ⇒ the sync that
     would re-establish the synced state is elided. *)
  let s =
    R.run ~config:Cfg.all (fun rt ->
      let h = R.processor rt in
      let r = ref 0 in
      R.separate rt h (fun reg ->
        for _ = 1 to 30 do
          Reg.call reg (fun () -> incr r);
          let p = Reg.query_async reg (fun () -> !r) in
          ignore (Scoop.Promise.await p : int);
          (* synced was re-established by the force; this read needs no
             round trip *)
          Reg.sync reg
        done);
      Scoop.Stats.assoc (R.stats rt))
  in
  check_bool "syncs elided" true (counter s "syncs_elided" > 0)

(* -- config builders and the endpoint grammar ----------------------------- *)

let test_builder_chain () =
  let c =
    Cfg.qoq
    |> Cfg.with_name "tuned"
    |> Cfg.with_batch 4
    |> Cfg.with_mailbox `Direct
    |> Cfg.with_deadline 0.5
    |> Cfg.with_bound 64
    |> Cfg.with_overflow `Fail
    |> Cfg.with_trace true
  in
  check_bool "name" true (c.Cfg.name = "tuned");
  check_int "batch" 4 c.Cfg.batch;
  check_bool "mailbox" true (c.Cfg.mailbox = `Direct);
  check_bool "deadline" true (c.Cfg.default_deadline = Some 0.5);
  check_int "bound" 64 c.Cfg.bound;
  check_bool "overflow" true (c.Cfg.overflow = `Fail);
  check_bool "trace" true c.Cfg.trace;
  (* The source preset is untouched: builders are functional. *)
  check_int "preset batch unchanged" Cfg.default_batch Cfg.qoq.Cfg.batch;
  check_bool "no-deadline undoes with_deadline" true
    ((c |> Cfg.with_no_deadline).Cfg.default_deadline = None)

let test_builder_validation () =
  let rejects name f =
    check_bool name true
      (match f () with
      | (_ : Cfg.t) -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "batch 0" (fun () -> Cfg.with_batch 0 Cfg.qoq);
  rejects "deadline 0" (fun () -> Cfg.with_deadline 0.0 Cfg.qoq);
  rejects "negative bound" (fun () -> Cfg.with_bound (-1) Cfg.qoq)

let test_addr_string_round_trip () =
  let round a =
    check_bool
      ("round trip " ^ Cfg.addr_to_string a)
      true
      (Cfg.addr_of_string (Cfg.addr_to_string a) = Some a)
  in
  round (Cfg.Unix_sock "/tmp/qs.sock");
  round (Cfg.Tcp ("localhost", 7070));
  round (Cfg.Tcp ("::1", 7070));
  let bad s =
    check_bool ("rejects " ^ s) true (Cfg.addr_of_string s = None)
  in
  bad "";
  bad "unix:";
  bad "tcp:nohost";
  bad "tcp:host:0";
  bad "tcp:host:notaport";
  bad "quic:host:1"

let test_by_name_remote () =
  (match Cfg.by_name "connect:unix:/tmp/a.sock,tcp:db:9000" with
  | None -> Alcotest.fail "connect form not recognized"
  | Some c ->
    check_bool "shard map in argument order" true
      (c.Cfg.endpoint
      = Cfg.Connect [ Cfg.Unix_sock "/tmp/a.sock"; Cfg.Tcp ("db", 9000) ]));
  (match Cfg.by_name "listen:tcp:0.0.0.0:7070" with
  | None -> Alcotest.fail "listen form not recognized"
  | Some c ->
    check_bool "node preset" true
      (c.Cfg.endpoint = Cfg.Listen (Cfg.Tcp ("0.0.0.0", 7070)));
    check_bool "node is qoq" true (c.Cfg.mailbox = `Qoq));
  check_bool "malformed connect rejected" true
    (Cfg.by_name "connect:unix:/a,bogus" = None);
  check_bool "empty connect rejected" true (Cfg.by_name "connect:" = None)

(* An empty shard map is refused when the config is built: routing a
   processor takes its id mod the number of addresses. *)
let test_remote_empty_rejected () =
  Alcotest.check_raises "no node addresses"
    (Invalid_argument "Config.remote: at least one node address required")
    (fun () -> ignore (Cfg.remote [] : Cfg.t))

let test_pp_endpoint () =
  let str c = Format.asprintf "%a" Cfg.pp c in
  check_bool "in-process configs print bare" true (str Cfg.qoq = "qoq");
  check_bool "remote configs print name@endpoint" true
    (str (Cfg.remote [ Cfg.Unix_sock "/tmp/a" ])
    = "remote@connect:unix:/tmp/a");
  check_bool "node configs print the listen address" true
    (str (Cfg.node (Cfg.Tcp ("h", 1234))) = "node@listen:tcp:h:1234")

let test_config_builder_chain () =
  (* The builder chain is the one way to derive a configuration: the
     runtime must run with exactly the chained fields. *)
  R.run
    ~config:
      Cfg.(
        qoq |> with_batch 3 |> with_mailbox `Direct |> with_bound 32
        |> with_overflow `Fail)
    (fun rt ->
      let c = R.config rt in
      check_int "batch" 3 c.Cfg.batch;
      check_bool "mailbox" true (c.Cfg.mailbox = `Direct);
      check_int "bound" 32 c.Cfg.bound;
      check_bool "overflow" true (c.Cfg.overflow = `Fail))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "scoop"
    [
      ("order", per_config "single client order" test_order_single_client);
      ("interleaving", per_config "no interleaving" test_no_interleaving);
      ("queries", per_config "query linearization" test_query_sees_preceding_calls);
      ("read_synced", per_config "read_synced" test_read_synced);
      ( "multi-reservation",
        per_config "fig5 consistency" test_multi_reservation_consistency
        @ per_config "list order" test_separate_list_order
        @ per_config "duplicate" test_separate_list_duplicate
        @ per_config "empty" test_separate_list_empty );
      ("deadlock", per_config "fig6 with queries" test_fig6_query_deadlock);
      ( "wait conditions",
        per_config "basic" test_wait_condition_basic
        @ per_config "atomic with body" test_wait_condition_atomic_with_body
        @ per_config "multi-handler" test_wait_condition_multi
        @ [ Alcotest.test_case "retries counted" `Quick test_wait_retries_counted ]
        @ List.map
            (fun config ->
              Alcotest.test_case
                ("parks until a change [" ^ config.Cfg.name ^ "]")
                `Quick
                (fun () -> test_wait_parks_until_change config))
            [ Cfg.qoq; Cfg.none ]
        @ per_config "multi-handler wakes on either"
            test_wait_multi_wakes_on_either
        @ [
            Alcotest.test_case "shutdown releases a parked waiter" `Quick
              (test_wait_released_by_stop (fun rt -> R.shutdown rt));
            Alcotest.test_case "abort releases a parked waiter" `Quick
              (test_wait_released_by_stop R.abort);
            Alcotest.test_case "unsatisfiable wait stalls" `Quick
              test_wait_unsatisfiable_stalls;
          ] );
      ( "contracts",
        per_config "registration after close" test_registration_after_close
        @ per_config "shared ownership" test_shared_wrong_block
        @ per_config "handler as client" test_handler_as_client
        @ per_config "sequential blocks" test_sequential_blocks );
      ( "request path",
        per_config "traced = untraced" test_traced_same_requests
        @ per_config "call flood served" test_call_flood
        @ per_config "timeout abandons the wait" test_timeout_abandons_wait
        @ per_config "round trips get their own results"
            test_round_trips_own_results
        @ per_config "rejected promise stays unsynced"
            test_rejected_promise_unsynced
        @ [
            Alcotest.test_case "handler-side elision" `Quick
              test_handler_elision_pipelined;
          ] );
      ( "mailbox",
        [
          Alcotest.test_case "qoq/direct x batch equivalence" `Quick
            test_mailbox_batch_equivalence;
          Alcotest.test_case "one vs two domains equivalence" `Quick
            test_domains_equivalence;
          Alcotest.test_case "batched drain amortizes wakeups" `Quick
            test_mean_batch;
        ] );
      ( "pipelined queries",
        per_config "promise order" test_query_async_order
        @ per_config "synced status" test_query_async_synced
        @ per_config "force after close" test_query_async_after_close
        @ [
            Alcotest.test_case "promise accounting" `Quick test_stats_promises;
            Alcotest.test_case "trace pipelined spans" `Quick
              test_trace_pipelined_queries;
          ] );
      ( "config builders",
        [
          Alcotest.test_case "chain" `Quick test_builder_chain;
          Alcotest.test_case "validation" `Quick test_builder_validation;
          Alcotest.test_case "addr round trip" `Quick
            test_addr_string_round_trip;
          Alcotest.test_case "by_name remote forms" `Quick test_by_name_remote;
          Alcotest.test_case "remote without addresses" `Quick
            test_remote_empty_rejected;
          Alcotest.test_case "pp endpoint" `Quick test_pp_endpoint;
          Alcotest.test_case "config builder chain" `Quick
            test_config_builder_chain;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "query accounting" `Quick test_stats_queries;
          Alcotest.test_case "eve lookups" `Quick test_stats_eve_lookups;
          Alcotest.test_case "reservations" `Quick test_stats_reservations;
          Alcotest.test_case "config lookup" `Quick test_config_by_name;
          Alcotest.test_case "trace disabled by default" `Quick
            test_trace_disabled_by_default;
          Alcotest.test_case "trace through a supplied sink" `Quick
            test_trace_through_supplied_sink;
          Alcotest.test_case "trace records operations" `Quick
            test_trace_records_operations;
          Alcotest.test_case "trace packaged queries" `Quick
            test_trace_packaged_queries;
          Alcotest.test_case "trace event order" `Quick test_trace_event_order;
        ] );
      ( "failure semantics",
        per_preset_mailbox "raising query re-raises" test_failing_query_reraises
        @ per_preset_mailbox "raising call poisons" test_failing_call_poisons
        @ per_preset_mailbox "raising pipelined query rejects"
            test_failing_query_async_rejects
        @ [
            Alcotest.test_case "failure counters" `Quick test_failure_counters;
          ] );
      ( "lifecycle",
        [
          Alcotest.test_case "graceful shutdown drains" `Quick
            test_shutdown_graceful;
          Alcotest.test_case "abort discards pending" `Quick
            test_abort_discards_pending;
          Alcotest.test_case "failed handler reported" `Quick
            test_failed_lifecycle;
        ] );
      ( "deadlines",
        List.concat_map
          (fun config ->
            List.map
              (fun (mname, mailbox) ->
                Alcotest.test_case
                  (Printf.sprintf "wedged query times out [%s/%s]"
                     config.Cfg.name mname)
                  `Quick
                  (fun () -> test_wedged_query_timeout config mailbox))
              [ ("qoq", `Qoq); ("direct", `Direct) ])
          [ Cfg.none; Cfg.all ]
        @ [
            Alcotest.test_case "timeout does not poison" `Quick
              test_timeout_does_not_poison;
            Alcotest.test_case "default deadline" `Quick test_default_deadline;
            Alcotest.test_case "promise force timeout" `Quick
              test_promise_await_timeout;
            Alcotest.test_case "wait-condition timeout" `Quick
              test_wait_condition_timeout;
            Alcotest.test_case "lock reservation timeout" `Quick
              test_lock_reservation_timeout;
            Alcotest.test_case "shutdown grace escalates" `Quick
              test_shutdown_grace_escalates;
          ] );
      ( "backpressure",
        [
          Alcotest.test_case "block completes" `Quick test_backpressure_block;
          Alcotest.test_case "fail refuses at bound" `Quick
            test_backpressure_fail;
          Alcotest.test_case "shed_oldest sheds backlog" `Quick
            test_backpressure_shed_oldest;
        ] );
      ( "properties",
        List.map (fun c -> qc (prop_random_programs c)) Cfg.presets
        @ List.map (fun c -> qc (prop_query_async_equiv c)) Cfg.presets
        @ List.map (fun c -> qc (prop_poisoning_isolated c)) Cfg.presets
        @ List.concat_map
            (fun c ->
              List.map
                (fun m -> qc (prop_generous_timeout_equiv c m))
                [ `Qoq; `Direct ])
            Cfg.presets );
    ]
