(* Tests for the Go-style channels: buffered/unbuffered semantics, close
   behaviour, fan-in/fan-out, wait groups. *)

module Ch = Qs_chan.Channel
module Sched = Qs_sched.Sched
module Latch = Qs_sched.Latch

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_buffered_fifo () =
  Sched.run (fun () ->
    let c = Ch.create ~capacity:10 () in
    for i = 1 to 10 do
      Ch.send c i
    done;
    for i = 1 to 10 do
      check_int "fifo" i (Ch.recv c)
    done)

let test_buffered_blocks_at_capacity () =
  Sched.run (fun () ->
    let c = Ch.create ~capacity:2 () in
    let progress = ref 0 in
    Sched.spawn (fun () ->
      for i = 1 to 4 do
        Ch.send c i;
        progress := i
      done);
    (* Let the sender run: it must stop after filling the buffer. *)
    Sched.yield ();
    Sched.yield ();
    check_int "sender blocked at capacity" 2 !progress;
    check_int "first" 1 (Ch.recv c);
    check_int "second" 2 (Ch.recv c);
    check_int "third" 3 (Ch.recv c);
    check_int "fourth" 4 (Ch.recv c))

let test_rendezvous_blocks () =
  Sched.run (fun () ->
    let c = Ch.create () in
    let sent = ref false in
    Sched.spawn (fun () ->
      Ch.send c 1;
      sent := true);
    Sched.yield ();
    Sched.yield ();
    check_bool "unbuffered send waits for receiver" false !sent;
    check_int "value" 1 (Ch.recv c);
    Sched.yield ();
    check_bool "sender released" true !sent)

let test_try_recv () =
  Sched.run (fun () ->
    let c = Ch.create ~capacity:1 () in
    check_bool "empty" true (Ch.try_recv c = None);
    Ch.send c 3;
    check_bool "full" true (Ch.try_recv c = Some 3))

let test_close_drains () =
  Sched.run (fun () ->
    let c = Ch.create ~capacity:4 () in
    Ch.send c 1;
    Ch.send c 2;
    Ch.close c;
    check_bool "closed" true (Ch.is_closed c);
    check_bool "pending survive close" true (Ch.recv_opt c = Some 1);
    check_bool "pending survive close" true (Ch.recv_opt c = Some 2);
    check_bool "then none" true (Ch.recv_opt c = None);
    Alcotest.check_raises "recv raises" Ch.Closed (fun () ->
      ignore (Ch.recv c : int)))

let test_send_on_closed () =
  Sched.run (fun () ->
    let c = Ch.create ~capacity:1 () in
    Ch.close c;
    Alcotest.check_raises "send raises" Ch.Closed (fun () -> Ch.send c 1))

let test_close_wakes_blocked_receivers () =
  Sched.run (fun () ->
    let c : int Ch.t = Ch.create () in
    let results = ref [] in
    let latch = Latch.create 3 in
    for _ = 1 to 3 do
      Ch.go (fun () ->
        results := Ch.recv_opt c :: !results;
        Latch.count_down latch)
    done;
    Sched.yield ();
    Ch.close c;
    Latch.wait latch;
    check_bool "all woke with None" true (List.for_all (( = ) None) !results))

let test_close_wakes_blocked_rendezvous_sender () =
  Sched.run (fun () ->
    let c = Ch.create () in
    let outcome = ref `Pending in
    Ch.go (fun () ->
      match Ch.send c 1 with
      | () -> outcome := `Sent
      | exception Ch.Closed -> outcome := `Closed);
    Sched.yield ();
    Sched.yield ();
    Ch.close c;
    (* run returns after the sender fiber finished *)
    ());
  ()

let test_fan_in_out () =
  let produced = 8 * 500 in
  let total =
    Sched.run ~domains:2 (fun () ->
      let work = Ch.create ~capacity:64 () in
      let results = Ch.create ~capacity:64 () in
      let wg = Ch.Wait_group.create 4 in
      for _ = 1 to 4 do
        Ch.go (fun () ->
          let rec loop () =
            match Ch.recv_opt work with
            | Some v ->
              Ch.send results (v * 2);
              loop ()
            | None -> Ch.Wait_group.done_ wg
          in
          loop ())
      done;
      Ch.go (fun () ->
        for _ = 1 to 8 do
          for i = 1 to 500 do
            Ch.send work i
          done
        done;
        Ch.close work);
      let acc = ref 0 in
      for _ = 1 to produced do
        acc := !acc + Ch.recv results
      done;
      Ch.Wait_group.wait wg;
      !acc)
  in
  check_int "all work doubled" (8 * 2 * (500 * 501 / 2)) total

let test_rendezvous_accounting () =
  (* Each receive releases exactly one blocked rendezvous sender. *)
  Sched.run (fun () ->
    let c = Ch.create () in
    let completed = ref 0 in
    for i = 1 to 4 do
      Ch.go (fun () ->
        Ch.send c i;
        incr completed)
    done;
    for k = 1 to 4 do
      ignore (Ch.recv c : int);
      (* Let the released sender run. *)
      Sched.yield ();
      Sched.yield ();
      check_int "one sender per receive" k !completed
    done)

let test_negative_capacity_rejected () =
  Sched.run (fun () ->
    Alcotest.check_raises "negative capacity"
      (Invalid_argument "Channel.create: negative capacity") (fun () ->
        ignore (Ch.create ~capacity:(-1) () : int Ch.t)))

(* A buffered channel that always holds one element, over [n] send+recv
   steps with a minor GC every 4096: the channel is promoted by the
   opening [Gc.minor ()], and so is the buffered cell at every later
   one.  If a received cell kept its successor link, that promoted cell
   would root every cell sent after it, and each GC would promote the
   whole chain (3 words an element).  Promoted words are read in a window
   bracketed by [Gc.minor ()], as in test_queues' "promotion" group. *)
let test_consumed_cells_do_not_promote () =
  Sched.run (fun () ->
    let n = 100_000 in
    let c = Ch.create ~capacity:4 () in
    Ch.send c 0;
    Gc.minor ();
    let p0 = (Gc.quick_stat ()).Gc.promoted_words in
    for i = 1 to n do
      Ch.send c i;
      if Ch.recv c <> i - 1 then Alcotest.fail "recv lost an element";
      if i land 4095 = 0 then Gc.minor ()
    done;
    Gc.minor ();
    let per =
      ((Gc.quick_stat ()).Gc.promoted_words -. p0) /. float_of_int n
    in
    check_bool
      (Printf.sprintf "%.2f promoted words/element < 0.5" per)
      true (per < 0.5))

let prop_pipeline_preserves_sum =
  QCheck2.Test.make ~count:30 ~name:"channel pipeline preserves the sum"
    QCheck2.Gen.(pair (int_range 0 100) (int_range 0 8))
    (fun (n, capacity) ->
      let total =
        Sched.run ~domains:2 (fun () ->
          let c = Ch.create ~capacity () in
          Ch.go (fun () ->
            for i = 1 to n do
              Ch.send c i
            done;
            Ch.close c);
          let acc = ref 0 in
          let rec drain () =
            match Ch.recv_opt c with
            | Some v ->
              acc := !acc + v;
              drain ()
            | None -> ()
          in
          drain ();
          !acc)
      in
      total = n * (n + 1) / 2)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "qs_chan"
    [
      ( "buffered",
        [
          Alcotest.test_case "fifo" `Quick test_buffered_fifo;
          Alcotest.test_case "blocks at capacity" `Quick
            test_buffered_blocks_at_capacity;
          Alcotest.test_case "try_recv" `Quick test_try_recv;
          Alcotest.test_case "consumed cells do not promote" `Quick
            test_consumed_cells_do_not_promote;
        ] );
      ( "rendezvous",
        [
          Alcotest.test_case "send waits for receiver" `Quick test_rendezvous_blocks;
          Alcotest.test_case "rendezvous accounting" `Quick
            test_rendezvous_accounting;
          Alcotest.test_case "negative capacity" `Quick
            test_negative_capacity_rejected;
          Alcotest.test_case "close wakes blocked sender" `Quick
            test_close_wakes_blocked_rendezvous_sender;
        ] );
      ( "close",
        [
          Alcotest.test_case "drains pending" `Quick test_close_drains;
          Alcotest.test_case "send on closed" `Quick test_send_on_closed;
          Alcotest.test_case "wakes receivers" `Quick
            test_close_wakes_blocked_receivers;
        ] );
      ("patterns", [ Alcotest.test_case "fan in/out" `Quick test_fan_in_out ]);
      ("properties", [ qc prop_pipeline_preserves_sum ]);
    ]
