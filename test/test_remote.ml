(* Tests for the socket-backed message queue (the §7 transport
   exploration): framing, FIFO order, partial reads/writes on messages
   larger than the socket buffer, multiple producers, close semantics. *)

module Sq = Qs_remote.Socket_queue
module S = Qs_sched.Sched
module Latch = Qs_sched.Latch

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_queue f =
  S.run (fun () ->
    let q = Sq.create () in
    Fun.protect ~finally:(fun () -> Sq.destroy q) (fun () -> f q))

let test_fifo () =
  with_queue (fun q ->
    let received = ref [] in
    S.spawn (fun () ->
      for i = 1 to 100 do
        Sq.enqueue q i
      done;
      Sq.close_writer q);
    let rec drain () =
      match Sq.dequeue q with
      | Some v ->
        received := v :: !received;
        drain ()
      | None -> ()
    in
    drain ();
    Alcotest.(check (list int)) "fifo through the socket"
      (List.init 100 (fun i -> i + 1))
      (List.rev !received))

let test_frame_counters () =
  with_queue (fun q ->
    let n = 100 in
    S.spawn (fun () ->
      for i = 1 to n do
        Sq.enqueue q i
      done;
      Sq.close_writer q);
    let rec drain () =
      match Sq.dequeue q with Some _ -> drain () | None -> ()
    in
    drain ();
    let c = Sq.counters q in
    let v = Qs_obs.Counter.value c in
    check_int "one frame per message sent" n (v "frames_sent");
    check_int "every frame received" n (v "frames_received");
    check_int "both directions saw the same bytes" (v "bytes_sent")
      (v "bytes_received");
    (* Each frame is an 8-byte header plus a marshalled int. *)
    check_bool "bytes cover the headers" true (v "bytes_sent" >= 8 * n))

let test_structured_messages () =
  with_queue (fun q ->
    S.spawn (fun () ->
      Sq.enqueue q (`Row (3, [| 1.5; 2.5 |]));
      Sq.enqueue q (`Done "worker-7");
      Sq.close_writer q);
    (match Sq.dequeue q with
    | Some (`Row (i, a)) ->
      check_int "row index" 3 i;
      check_bool "payload intact" true (a = [| 1.5; 2.5 |])
    | _ -> Alcotest.fail "expected Row");
    (match Sq.dequeue q with
    | Some (`Done who) -> Alcotest.(check string) "who" "worker-7" who
    | _ -> Alcotest.fail "expected Done");
    check_bool "drained" true (Sq.dequeue q = None))

let test_large_messages () =
  (* Bigger than any default socket buffer: exercises partial writes on
     the producer and reassembly on the consumer. *)
  with_queue (fun q ->
    let big = Array.init 200_000 (fun i -> i) in
    S.spawn (fun () ->
      Sq.enqueue q big;
      Sq.enqueue q (Array.map (fun x -> -x) big);
      Sq.close_writer q);
    (match Sq.dequeue q with
    | Some a -> check_bool "first intact" true (a = big)
    | None -> Alcotest.fail "missing first");
    (match Sq.dequeue q with
    | Some a -> check_bool "second intact" true (a.(7) = -7)
    | None -> Alcotest.fail "missing second"))

let test_copy_semantics () =
  (* Marshalling copies: mutating the sender's array after enqueue must
     not affect the received message — the "expanded class" copying the
     transport gives for free. *)
  with_queue (fun q ->
    let payload = [| 1; 2; 3 |] in
    S.spawn (fun () ->
      Sq.enqueue q payload;
      payload.(0) <- 99;
      Sq.close_writer q);
    match Sq.dequeue q with
    | Some a -> check_int "receiver kept the copy" 1 a.(0)
    | None -> Alcotest.fail "missing message")

let test_multiple_producers () =
  with_queue (fun q ->
    let producers = 4 and per = 200 in
    let latch = Latch.create producers in
    for p = 1 to producers do
      S.spawn (fun () ->
        for i = 1 to per do
          Sq.enqueue q ((p * 1000) + i)
        done;
        Latch.count_down latch)
    done;
    S.spawn (fun () ->
      Latch.wait latch;
      Sq.close_writer q);
    let count = ref 0 and sum = ref 0 in
    let rec drain () =
      match Sq.dequeue q with
      | Some v ->
        incr count;
        sum := !sum + v;
        drain ()
      | None -> ()
    in
    drain ();
    check_int "all frames arrived" (producers * per) !count;
    let expected =
      List.fold_left ( + ) 0
        (List.concat_map
           (fun p -> List.init per (fun i -> (p * 1000) + i + 1))
           [ 1; 2; 3; 4 ])
    in
    check_int "no frame corruption" expected !sum)

let test_enqueue_after_close () =
  with_queue (fun q ->
    Sq.enqueue q 1;
    Sq.close_writer q;
    check_bool "raises" true
      (try
         Sq.enqueue q 2;
         false
       with Sq.Closed -> true);
    check_bool "pending delivered" true (Sq.dequeue q = Some 1);
    check_bool "then eof" true (Sq.dequeue q = None))

let test_ping_pong () =
  (* Two socket queues as a bidirectional channel between fibers. *)
  with_queue (fun there ->
    let back = Sq.create () in
    Fun.protect ~finally:(fun () -> Sq.destroy back) (fun () ->
      S.spawn (fun () ->
        let rec serve () =
          match Sq.dequeue there with
          | Some v ->
            Sq.enqueue back (v * 2);
            serve ()
          | None -> Sq.close_writer back
        in
        serve ());
      for i = 1 to 50 do
        Sq.enqueue there i
      done;
      Sq.close_writer there;
      let acc = ref 0 in
      let rec drain () =
        match Sq.dequeue back with
        | Some v ->
          acc := !acc + v;
          drain ()
        | None -> ()
      in
      drain ();
      check_int "round trips" (2 * (50 * 51 / 2)) !acc))

let write_raw fd bytes =
  let len = Bytes.length bytes in
  let rec go off =
    if off < len then
      match Unix.write fd bytes off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        S.yield ();
        go off
  in
  go 0

let test_truncated_frame () =
  (* A writer that dies mid-frame must surface as [Truncated_frame], not
     as a clean end-of-stream: send one good message, then a frame header
     promising more bytes than will ever arrive, then close the write
     side. *)
  with_queue (fun q ->
    let _, write_fd = Sq.fds q in
    S.spawn (fun () ->
      Sq.enqueue q 42;
      (* The torn bytes must land behind the frame, not ahead of a
         buffered one. *)
      Sq.flush q;
      let torn = Bytes.create 10 in
      Bytes.set_int64_le torn 0 1000L (* header: 1000-byte payload *);
      write_raw write_fd torn (* ...but only 2 bytes of it follow *);
      Sq.close_writer q);
    check_bool "good frame still delivered" true (Sq.dequeue q = Some 42);
    check_bool "torn frame raises" true
      (try
         ignore (Sq.dequeue q : int option);
         false
       with Sq.Truncated_frame -> true);
    let v = Qs_obs.Counter.value (Sq.counters q) in
    check_int "counted once" 1 (v "truncated_frames");
    check_bool "raises again on retry" true
      (try
         ignore (Sq.dequeue q : int option);
         false
       with Sq.Truncated_frame -> true);
    check_int "still counted once" 1 (v "truncated_frames"))

let test_header_only_truncation () =
  (* The smallest torn stream: EOF after a few header bytes. *)
  with_queue (fun q ->
    let _, write_fd = Sq.fds q in
    S.spawn (fun () ->
      write_raw write_fd (Bytes.make 3 'x');
      Sq.close_writer q);
    check_bool "raises" true
      (try
         ignore (Sq.dequeue q : int option);
         false
       with Sq.Truncated_frame -> true))

let test_burst_coalesced () =
  (* The flush rule: a lone frame is written inside [enqueue]; the rest
     of the same dispatch share one write, made by the deferred flush
     once the sender parks (here: in [dequeue]) or by [flush]. *)
  with_queue (fun q ->
    let writes () = Qs_obs.Counter.value (Sq.counters q) "writes" in
    Sq.enqueue q 0;
    check_int "lone frame written at once" 1 (writes ());
    for i = 1 to 31 do
      Sq.enqueue q i
    done;
    check_int "rest of the dispatch buffered" 1 (writes ());
    let got = List.init 32 (fun _ -> Sq.dequeue q) in
    Alcotest.(check (list (option int))) "fifo across the flush"
      (List.init 32 Option.some) got;
    check_int "deferred flush: one write for 31 frames" 2 (writes ());
    Sq.enqueue q 32;
    Sq.enqueue q 33;
    Sq.flush q;
    check_int "explicit flush" 4 (writes ());
    check_int "every frame counted" 34
      (Qs_obs.Counter.value (Sq.counters q) "frames_sent");
    check_bool "in order" true (Sq.dequeue q = Some 32 && Sq.dequeue q = Some 33))

let test_deferred_flush_failure () =
  (* A deferred flush runs in a fiber of its own, so a dead peer cannot
     raise to the sender: it closes the queue instead, and nothing
     escapes the scheduler. *)
  with_queue (fun q ->
    let read_fd, _ = Sq.fds q in
    Sq.enqueue q 1;
    (* The reader stops receiving: further writes fail with EPIPE. *)
    Unix.shutdown read_fd Unix.SHUTDOWN_RECEIVE;
    Sq.enqueue q 2 (* buffered behind the written frame *);
    let rec wait n =
      if (not (Sq.is_closed q)) && n > 0 then begin
        S.yield ();
        wait (n - 1)
      end
    in
    wait 1000;
    check_bool "failed flush closed the queue" true (Sq.is_closed q);
    check_bool "later senders get Closed" true
      (try
         Sq.enqueue q 3;
         false
       with Sq.Closed -> true))

let prop_any_payload =
  QCheck2.Test.make ~count:50 ~name:"arbitrary int lists survive the socket"
    QCheck2.Gen.(list (list small_int))
    (fun messages ->
      S.run (fun () ->
        let q = Sq.create () in
        Fun.protect ~finally:(fun () -> Sq.destroy q) (fun () ->
          S.spawn (fun () ->
            List.iter (Sq.enqueue q) messages;
            Sq.close_writer q);
          let rec drain acc =
            match Sq.dequeue q with
            | Some v -> drain (v :: acc)
            | None -> List.rev acc
          in
          drain [] = messages)))


(* -- Distributed runtime: remote processors over the socket transport --

   Node and client run in one test process but across two schedulers on
   two domains, talking through a real unix-domain socket — the same
   code path as the two-process deployment.  Handler state lives in
   module-level globals: shipped closures reference globals by symbol
   (Marshal.Closures), which is the distributed runtime's state
   discipline. *)

module Proto = Scoop.Internal.Remote_proto

let remote_counter = Atomic.make 0

let next_sock =
  let n = Atomic.make 0 in
  fun () ->
    Printf.sprintf "%s/qs_rt_%d_%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ())
      (Atomic.fetch_and_add n 1)

(* Host a node on a fresh unix socket in its own domain; [f addr] runs
   client-side and must ask the node to shut down before returning
   (the [with_client] helper does). *)
let with_node f =
  let path = next_sock () in
  let addr = Scoop.Config.Unix_sock path in
  let node = Domain.spawn (fun () -> Scoop.Remote.listen addr) in
  Fun.protect ~finally:(fun () -> Domain.join node) (fun () -> f addr)

let with_client addr f =
  Scoop.Runtime.run
    ~config:(Scoop.Remote.connect [ addr ])
    (fun rt ->
      Fun.protect
        ~finally:(fun () -> Scoop.Runtime.shutdown_nodes rt)
        (fun () -> f rt))

let test_remote_round_trip () =
  with_node (fun addr ->
    with_client addr (fun rt ->
      Atomic.set remote_counter 0;
      let p = Scoop.Runtime.processor rt in
      check_bool "runtime knows it is remote" true (Scoop.Runtime.is_remote rt);
      let total =
        Scoop.Runtime.separate rt p (fun reg ->
          for _ = 1 to 100 do
            Scoop.Registration.call reg (fun () -> Atomic.incr remote_counter)
          done;
          Scoop.Registration.sync reg;
          Scoop.Registration.query reg (fun () -> Atomic.get remote_counter))
      in
      check_int "100 remote calls served before the query" 100 total;
      let s = Scoop.Stats.snapshot (Scoop.Runtime.stats rt) in
      check_bool "remote requests counted" true
        (s.Scoop.Stats.s_remote_requests >= 102);
      check_bool "remote replies counted" true
        (s.Scoop.Stats.s_remote_replies >= 2);
      check_int "no failures" 0 s.Scoop.Stats.s_remote_failures))

let test_remote_poison () =
  (* The dirty-processor rule across the connection: a failing remote
     call poisons the registration; the next sync point surfaces
     [Handler_failure] carrying the node's rendering of the original. *)
  with_node (fun addr ->
    with_client addr (fun rt ->
      let p = Scoop.Runtime.processor rt in
      let observed =
        try
          Scoop.Runtime.separate rt p (fun reg ->
            Scoop.Registration.call reg (fun () -> failwith "boom");
            ignore (Scoop.Registration.query reg (fun () -> 1) : int);
            `No_failure)
        with
        | Scoop.Handler_failure (_, Scoop.Remote_error msg) -> `Poisoned msg
        | Scoop.Handler_failure (_, e) -> `Wrong_payload (Printexc.to_string e)
      in
      match observed with
      | `Poisoned msg ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        check_bool "carries the original failure text" true (contains msg "boom")
      | `No_failure -> Alcotest.fail "poison never surfaced"
      | `Wrong_payload e -> Alcotest.fail ("unexpected payload: " ^ e)))

let test_remote_query_failure_no_poison () =
  (* A raising query producer rejects only its own rendezvous. *)
  with_node (fun addr ->
    with_client addr (fun rt ->
      let p = Scoop.Runtime.processor rt in
      let v =
        Scoop.Runtime.separate rt p (fun reg ->
          (match Scoop.Registration.query reg (fun () -> failwith "q") with
          | (_ : int) -> Alcotest.fail "query should have raised"
          | exception Scoop.Remote_error _ -> ());
          Scoop.Registration.query reg (fun () -> 41 + 1))
      in
      check_int "registration survives a failed query" 42 v))

let test_remote_pipelined () =
  with_node (fun addr ->
    with_client addr (fun rt ->
      let p = Scoop.Runtime.processor rt in
      let ok =
        Scoop.Runtime.separate rt p (fun reg ->
          let promises =
            List.init 16 (fun i ->
              Scoop.Registration.query_async reg (fun () -> i * i))
          in
          List.mapi
            (fun i pr -> Scoop.Promise.await pr = i * i)
            promises
          |> List.for_all Fun.id)
      in
      check_bool "16 pipelined remote queries" true ok))

let test_remote_timeout () =
  with_node (fun addr ->
    with_client addr (fun rt ->
      let p = Scoop.Runtime.processor rt in
      let late =
        Scoop.Runtime.separate rt p (fun reg ->
          Scoop.Registration.call reg (fun () -> Unix.sleepf 0.3);
          (match Scoop.Registration.query ~timeout:0.05 reg (fun () -> 0) with
          | (_ : int) -> Alcotest.fail "expected Timeout"
          | exception Scoop.Timeout -> ());
          (* The abandoned request is still served; the registration
             stays usable and an unbounded query completes. *)
          Scoop.Registration.query reg (fun () -> 7))
      in
      check_int "registration usable after a remote timeout" 7 late))

let test_remote_disconnect_mid_query () =
  (* A peer that dies with a query outstanding must produce a typed
     rejection, not a hang: the rogue node accepts, swallows a few
     bytes, and slams the connection. *)
  let path = next_sock () in
  let addr = Scoop.Config.Unix_sock path in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let rogue =
    Domain.spawn (fun () ->
      let fd, _ = Unix.accept lfd in
      let buf = Bytes.create 64 in
      ignore (Unix.read fd buf 0 64 : int);
      Unix.close fd;
      Unix.close lfd)
  in
  Scoop.Runtime.run
    ~config:(Scoop.Remote.connect [ addr ])
    (fun rt ->
      let p = Scoop.Runtime.processor rt in
      let ok =
        try
          Scoop.Runtime.separate rt p (fun reg ->
            ignore (Scoop.Registration.query reg (fun () -> 1) : int);
            false)
        with
        | Scoop.Connection_lost _ -> true
        | Scoop.Handler_failure (_, Scoop.Connection_lost _) -> true
      in
      check_bool "typed rejection, not a hang" true ok;
      let s = Scoop.Stats.snapshot (Scoop.Runtime.stats rt) in
      check_bool "connection loss counted" true
        (s.Scoop.Stats.s_remote_failures >= 1));
  Domain.join rogue;
  try Unix.unlink path with Unix.Unix_error _ -> ()

(* Wait conditions on a remote processor: no local handler announces
   changes, so the wait polls with fiber-level pauses.  It runs once
   another block enables it, and times out when nothing does. *)
let remote_flag = Atomic.make false

let test_remote_wait_condition () =
  with_node (fun addr ->
    with_client addr (fun rt ->
      Atomic.set remote_flag false;
      let p = Scoop.Runtime.processor rt in
      let flag reg = Scoop.Registration.query reg (fun () -> Atomic.get remote_flag) in
      let enabled = Qs_sched.Ivar.create () in
      S.spawn (fun () ->
        S.sleep 0.02;
        Scoop.Runtime.separate rt p (fun reg ->
          Scoop.Registration.call reg (fun () -> Atomic.set remote_flag true));
        Qs_sched.Ivar.fill enabled ());
      let v =
        Scoop.Runtime.separate_when rt p ~pred:flag (fun reg ->
          Scoop.Registration.query reg (fun () -> 7))
      in
      check_int "body ran once enabled" 7 v;
      Qs_sched.Ivar.read enabled;
      match
        Scoop.Runtime.separate_when ~timeout:0.05 rt p
          ~pred:(fun reg -> not (flag reg))
          (fun _ -> ())
      with
      | () -> Alcotest.fail "unsatisfiable remote wait must time out"
      | exception Scoop.Timeout -> ()))

let test_remote_node_survives_garbage () =
  (* Truncated-frame recovery, node side: a peer that handshakes then
     dies mid-frame must cost the node that connection only — the next
     client gets normal service. *)
  with_node (fun addr ->
    S.run (fun () ->
      let fd = Proto.connect_to addr in
      let sq : Proto.client_msg Sq.t =
        Sq.of_fds ~flags:[ Marshal.Closures ] ~read_fd:fd ~write_fd:fd ()
      in
      Sq.enqueue sq (Proto.hello ());
      Sq.flush sq;
      (* Frame header promising 1000 bytes, followed by 3 and EOF. *)
      let torn = Bytes.create 11 in
      Bytes.set_int64_le torn 0 1000L;
      write_raw fd torn;
      Unix.close fd);
    with_client addr (fun rt ->
      let p = Scoop.Runtime.processor rt in
      let v =
        Scoop.Runtime.separate rt p (fun reg ->
          Scoop.Registration.query reg (fun () -> 2026))
      in
      check_int "node still serving after a torn peer" 2026 v))

(* The cases below drive [Remote_client] directly, which exposes the
   connection's send queue and so its transport counters. *)
module RC = Scoop.Internal.Remote_client

let with_raw_client addr f =
  S.run (fun () ->
    let rc = RC.connect ~stats:(Scoop.Stats.create ()) [ addr ] in
    let conn = rc.RC.conns.(0) in
    Fun.protect
      ~finally:(fun () ->
        RC.shutdown_nodes rc;
        RC.close rc)
      (fun () -> f conn (RC.open_reg conn ~proc:0)))

let sent conn name = Qs_obs.Counter.value (Sq.counters conn.RC.send_q) name

let test_remote_write_counts () =
  with_node (fun addr ->
    with_raw_client addr (fun conn px ->
      px.Scoop.Processor.px_sync ~timeout:None;
      (* A lone blocking query: one write, made before the client parks. *)
      let w0 = sent conn "writes" in
      let v = px.px_query ~timeout:None (fun () -> Obj.repr 7) in
      check_int "query answered" 7 (Obj.obj v);
      check_int "lone blocking query: exactly one write" 1
        (sent conn "writes" - w0);
      (* 32 pipelined queries issued in one dispatch. *)
      let w0 = sent conn "writes" and f0 = sent conn "frames_sent" in
      let ps =
        Array.init 32 (fun i ->
          px.px_query_async (fun () -> Obj.repr (i * i)) ~on_force:ignore)
      in
      Array.iteri
        (fun i p -> check_int "pipelined result" (i * i) (Obj.obj (Scoop.Promise.await p)))
        ps;
      check_int "32 frames sent" 32 (sent conn "frames_sent" - f0);
      let w = sent conn "writes" - w0 in
      check_bool (Printf.sprintf "burst of 32 in 1..2 writes (got %d)" w) true
        (w >= 1 && w <= 2)))

let test_remote_poison_before_completion () =
  (* Coalescing keeps per-direction FIFO order: the node reports the
     poisoning ahead of every completion it guards, so each rejected
     promise resolves after the registration was poisoned. *)
  with_node (fun addr ->
    with_raw_client addr (fun _ px ->
      let poisoned = ref false and ordered = ref true in
      px.Scoop.Processor.px_on_poison (fun _ _ -> poisoned := true);
      px.px_call (fun () -> failwith "boom");
      let ps =
        Array.init 32 (fun _ ->
          let p = px.px_query_async (fun () -> Obj.repr 1) ~on_force:ignore in
          Scoop.Promise.on_resolve p (fun _ -> if not !poisoned then ordered := false);
          p)
      in
      Array.iter
        (fun p ->
          match Scoop.Promise.await p with
          | _ -> Alcotest.fail "query on a poisoned registration succeeded"
          | exception Scoop.Remote_error _ -> ())
        ps;
      check_bool "poisoned" true !poisoned;
      check_bool "Rpoisoned arrived ahead of every completion" true !ordered))

(* Node globals for the backpressure case: the first call parks the
   handler until [bp_release]; the flood behind it only counts. *)
let bp_release = Atomic.make false
let bp_served = Atomic.make 0
let bp_wedge () = while not (Atomic.get bp_release) do S.sleep 0.001 done
let bp_call () = Atomic.incr bp_served

let test_remote_backpressure () =
  (* A bounded node mailbox stops the serve fiber reading, the kernel
     buffers fill, and the client's flood must then block — with its
     unsent bytes capped, not piling up in a user-space buffer. *)
  Atomic.set bp_release false;
  Atomic.set bp_served 0;
  let addr = Scoop.Config.Unix_sock (next_sock ()) in
  let config = Scoop.Config.(qoq |> with_bound 4) in
  let node = Domain.spawn (fun () -> Scoop.Remote.listen ~config addr) in
  Fun.protect ~finally:(fun () -> Domain.join node) (fun () ->
    with_raw_client addr (fun conn px ->
      px.Scoop.Processor.px_sync ~timeout:None;
      px.px_call bp_wedge;
      let b0 = sent conn "bytes_sent" in
      let frame =
        8
        + Bytes.length
            (Marshal.to_bytes (Proto.Rcall { reg = 0; f = bp_call }) [ Marshal.Closures ])
      in
      let issued = Atomic.make 0 and stop = Atomic.make false in
      let flooder = Qs_sched.Ivar.create () in
      (* The flood is finite, so a client that never blocks fails the
         case instead of growing without bound. *)
      S.spawn (fun () ->
        while (not (Atomic.get stop)) && Atomic.get issued < 100_000 do
          px.px_call bp_call;
          Atomic.incr issued
        done;
        Qs_sched.Ivar.fill flooder ());
      (* Blocked = no progress over three 20 ms polls. *)
      let rec settle last still polls =
        if still < 3 && polls > 0 then begin
          S.sleep 0.02;
          let n = Atomic.get issued in
          settle n (if n = last && n > 0 then still + 1 else 0) (polls - 1)
        end
        else still >= 3
      in
      let blocked = settle (-1) 0 500 in
      let finished = Qs_sched.Ivar.peek flooder <> None in
      (* Frames issued plus the one in flight, minus what the kernel took. *)
      let unsent = ((Atomic.get issued + 1) * frame) - (sent conn "bytes_sent" - b0) in
      (* Release the node before judging, so a failure cannot wedge the
         teardown. *)
      Atomic.set stop true;
      Atomic.set bp_release true;
      Qs_sched.Ivar.read flooder;
      px.px_sync ~timeout:None;
      check_bool "flooding client blocks" true (blocked && not finished);
      let cap = 128 * 1024 in
      check_bool (Printf.sprintf "unsent bytes %d under %d" unsent cap) true
        (unsent <= cap);
      check_int "every issued call served" (Atomic.get issued)
        (Atomic.get bp_served)))

let test_remote_peer_dies_mid_burst () =
  (* The peer dies while a burst sits in the buffer: the deferred flush
     fails, and every waiter gets the typed [Connection_lost]. *)
  let path = next_sock () in
  let addr = Scoop.Config.Unix_sock path in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let rogue =
    Domain.spawn (fun () ->
      let fd, _ = Unix.accept lfd in
      ignore (Unix.read fd (Bytes.create 4096) 0 4096 : int);
      Unix.close fd;
      Unix.close lfd)
  in
  let outcomes =
    S.run (fun () ->
      let stats = Scoop.Stats.create () in
      let rc = RC.connect ~stats [ addr ] in
      (* Still in the connecting dispatch: the Hello went out at once,
         everything after it is buffered behind it. *)
      Domain.join rogue;
      let typed = function Scoop.Connection_lost _ -> true | _ -> false in
      let r =
        match RC.open_reg rc.RC.conns.(0) ~proc:0 with
        | exception e -> [ typed e ]
        | px ->
          Array.init 8 (fun _ ->
            px.Scoop.Processor.px_query_async (fun () -> Obj.repr 1) ~on_force:ignore)
          |> Array.to_list
          |> List.map (fun p ->
               match Scoop.Promise.await p with
               | _ -> false
               | exception e -> typed e)
      in
      RC.close rc;
      (r, (Scoop.Stats.snapshot stats).Scoop.Stats.s_remote_failures))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let r, failures = outcomes in
  check_bool "every waiter rejected with Connection_lost" true (List.for_all Fun.id r);
  check_bool "connection loss counted" true (failures >= 1)

(* Two shard-mapped nodes: processor id routes to node id mod 2, and the
   same workload spreads across both without client changes. *)
let test_remote_shard_map () =
  let path1 = next_sock () and path2 = next_sock () in
  let a1 = Scoop.Config.Unix_sock path1
  and a2 = Scoop.Config.Unix_sock path2 in
  let n1 = Domain.spawn (fun () -> Scoop.Remote.listen a1) in
  let n2 = Domain.spawn (fun () -> Scoop.Remote.listen a2) in
  Fun.protect
    ~finally:(fun () ->
      Domain.join n1;
      Domain.join n2)
    (fun () ->
      Scoop.Runtime.run
        ~config:(Scoop.Remote.connect [ a1; a2 ])
        (fun rt ->
          Fun.protect
            ~finally:(fun () -> Scoop.Runtime.shutdown_nodes rt)
            (fun () ->
              let procs = Scoop.Runtime.processors rt 4 in
              let vs =
                List.mapi
                  (fun i p ->
                    Scoop.Runtime.separate rt p (fun reg ->
                      Scoop.Registration.query reg (fun () -> i * 10)))
                  procs
              in
              Alcotest.(check (list int))
                "all four processors answer across two nodes"
                [ 0; 10; 20; 30 ] vs)))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_mixed_reservation_rejected () =
  (* Atomic multi-reservation is a local protocol (the wait/release pair
     spans handler queues the client enqueues into directly) and remote
     proxies cannot take part.  Passing one must fail with a typed
     [Scoop.Remote_error] naming the offending processors — raised
     before anything local is reserved, so neither side is left
     wedged. *)
  with_node (fun addr ->
    with_client addr (fun rt ->
      let remote_p = Scoop.Runtime.processor rt in
      let local_rt = Scoop.Runtime.create () in
      let local_p = Scoop.Runtime.processor local_rt in
      Fun.protect
        ~finally:(fun () -> Scoop.Runtime.shutdown local_rt)
        (fun () ->
          (match
             Scoop.Runtime.separate_list rt [ local_p; remote_p ] (fun _ ->
               `Reserved)
           with
          | `Reserved -> Alcotest.fail "mixed reservation must be refused"
          | exception Scoop.Remote_error msg ->
            check_bool "names the remote processor" true
              (contains msg (string_of_int (Scoop.Processor.id remote_p))));
          (* nothing was left reserved on either side *)
          let v =
            Scoop.Runtime.separate local_rt local_p (fun reg ->
              Scoop.Registration.query reg (fun () -> 7))
          in
          check_int "local processor still serves" 7 v;
          let w =
            Scoop.Runtime.separate rt remote_p (fun reg ->
              Scoop.Registration.query reg (fun () -> 8))
          in
          check_int "remote processor still serves" 8 w;
          (* an all-remote pair is refused the same way *)
          let remote_p2 = Scoop.Runtime.processor rt in
          match
            Scoop.Runtime.separate2 rt remote_p remote_p2 (fun _ _ ->
              `Reserved)
          with
          | `Reserved -> Alcotest.fail "all-remote pair must be refused"
          | exception Scoop.Remote_error msg ->
            check_bool "names both remote processors" true
              (contains msg (string_of_int (Scoop.Processor.id remote_p))
              && contains msg (string_of_int (Scoop.Processor.id remote_p2))))))

let prop_remote_timeout_equiv =
  QCheck2.Test.make ~count:6
    ~name:"generous timeout = no timeout over the remote preset"
    QCheck2.Gen.(list_size (int_range 0 16) small_int)
    (fun xs ->
      with_node (fun addr ->
        with_client addr (fun rt ->
          let p = Scoop.Runtime.processor rt in
          Scoop.Runtime.separate rt p (fun reg ->
            let sum xs = List.fold_left ( + ) 0 xs in
            let a = Scoop.Registration.query reg (fun () -> sum xs) in
            let b =
              Scoop.Registration.query ~timeout:10.0 reg (fun () -> sum xs)
            in
            a = b && a = sum xs))))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "qs_remote"
    [
      ( "socket queue",
        [
          Alcotest.test_case "fifo" `Quick test_fifo;
          Alcotest.test_case "frame counters" `Quick test_frame_counters;
          Alcotest.test_case "structured messages" `Quick test_structured_messages;
          Alcotest.test_case "large messages" `Quick test_large_messages;
          Alcotest.test_case "copy semantics" `Quick test_copy_semantics;
          Alcotest.test_case "multiple producers" `Quick test_multiple_producers;
          Alcotest.test_case "enqueue after close" `Quick test_enqueue_after_close;
          Alcotest.test_case "ping pong" `Quick test_ping_pong;
          Alcotest.test_case "truncated frame" `Quick test_truncated_frame;
          Alcotest.test_case "header-only truncation" `Quick
            test_header_only_truncation;
          Alcotest.test_case "burst coalesced" `Quick test_burst_coalesced;
          Alcotest.test_case "deferred flush failure" `Quick
            test_deferred_flush_failure;
        ] );
      ( "distributed runtime",
        [
          Alcotest.test_case "remote round trip" `Quick test_remote_round_trip;
          Alcotest.test_case "remote poison" `Quick test_remote_poison;
          Alcotest.test_case "failed query does not poison" `Quick
            test_remote_query_failure_no_poison;
          Alcotest.test_case "pipelined remote queries" `Quick
            test_remote_pipelined;
          Alcotest.test_case "remote timeout" `Quick test_remote_timeout;
          Alcotest.test_case "remote wait condition" `Quick
            test_remote_wait_condition;
          Alcotest.test_case "disconnect mid-query" `Quick
            test_remote_disconnect_mid_query;
          Alcotest.test_case "node survives torn peer" `Quick
            test_remote_node_survives_garbage;
          Alcotest.test_case "write counts" `Quick test_remote_write_counts;
          Alcotest.test_case "poison before completion" `Quick
            test_remote_poison_before_completion;
          Alcotest.test_case "backpressure" `Quick test_remote_backpressure;
          Alcotest.test_case "peer dies mid-burst" `Quick
            test_remote_peer_dies_mid_burst;
          Alcotest.test_case "static shard map" `Quick test_remote_shard_map;
          Alcotest.test_case "mixed local/remote reservation rejected" `Quick
            test_mixed_reservation_rejected;
        ] );
      ("properties", [ qc prop_any_payload; qc prop_remote_timeout_equiv ]);
    ]
