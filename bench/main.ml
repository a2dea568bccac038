(* Regenerates every table and figure of the paper's evaluation:

     table1 / fig16  — optimization comparison, parallel tasks (§4.2)
     table2 / fig17  — optimization comparison, concurrent tasks (§4.3)
     table3          — language characteristics (§5.1)
     table4 / fig18  — language comparison, parallel tasks (§5.2.1)
     fig19           — speedup curves (§5.2.2; simulated, see DESIGN.md)
     table5 / fig20  — language comparison, concurrent tasks (§5.3)
     summary         — geometric means (§4.4, §5.4)
     eve             — EVE retrofit (§4.5)
     micro           — Bechamel micro-benchmarks of the runtime primitives

   Measured rows run at a container-sized scale (see --scale/--nr/...);
   paper rows are printed alongside for shape comparison. *)

module H = Qs_benchmarks.Harness
module Report = Qs_benchmarks.Report
module PD = Qs_benchmarks.Paper_data
module Counter = Qs_obs.Counter

let all_artifacts =
  [
    "table1"; "fig16"; "table2"; "fig17"; "table3"; "table4"; "fig18";
    "fig19"; "table5"; "fig20"; "summary"; "eve"; "switches"; "micro";
    "pipeline"; "timeout"; "pools"; "alloc"; "conformance"; "remote"; "load";
  ]

(* §4.3 attributes the QoQ gains to "fewer context switches, since the
   private queues require only one context switch to wait for a query to
   return" vs three for the lock-based runtime.  The scheduler counters
   measure this directly: run a query-heavy workload under each
   configuration and report fiber dispatches and handoffs per query. *)
(* The query-heavy workload behind the context-switch accounting and the
   instrumented probe: [clients] fibers each doing [rounds] command+query
   rounds against one handler. *)
let query_workload rt ~rounds ~clients =
  let h = Scoop.Runtime.processor rt in
  let cell = Scoop.Shared.create h (ref 0) in
  let latch = Qs_sched.Latch.create clients in
  for _ = 1 to clients do
    Qs_sched.Sched.spawn (fun () ->
      for _ = 1 to rounds do
        Scoop.Runtime.separate rt h (fun reg ->
          Scoop.Shared.apply reg cell incr;
          ignore (Scoop.Shared.get reg cell (fun r -> !r) : int))
      done;
      Qs_sched.Latch.count_down latch)
  done;
  Qs_sched.Latch.wait latch

let switches (s : H.scale) =
  print_newline ();
  print_endline
    "§4.3 — context-switch accounting: scheduler counters for a \
     query-heavy workload (per query round)";
  print_endline (String.make 72 '-');
  Printf.printf "%-10s %12s %12s %12s %12s\n" "config" "dispatches" "handoffs"
    "steals" "parks";
  let rounds = max 200 (s.H.m / 4) and clients = 8 in
  List.iter
    (fun config ->
      let captured = ref None in
      Scoop.Runtime.run ~domains:s.H.domains ~config
        ~on_counters:(fun c -> captured := Some c)
        (fun rt -> query_workload rt ~rounds ~clients);
      match !captured with
      | Some c ->
        let per = float_of_int (clients * rounds) in
        Printf.printf "%-10s %12.2f %12.2f %12.2f %12.2f\n"
          config.Scoop.Config.name
          (float_of_int c.Qs_sched.Sched.c_executed /. per)
          (float_of_int c.Qs_sched.Sched.c_handoffs /. per)
          (float_of_int c.Qs_sched.Sched.c_steals /. per)
          (float_of_int c.Qs_sched.Sched.c_parks /. per)
      | None -> ())
    Scoop.Config.presets

let fig19 () =
  print_newline ();
  print_endline
    "Fig. 19 — speedup over single-core performance (simulated from the \
     calibrated model; 1 physical core here, see DESIGN.md)";
  print_endline (String.make 72 '-');
  let cores = [ 1; 2; 4; 8; 16; 32 ] in
  List.iter
    (fun task ->
      Printf.printf "%s:\n" task;
      List.iter
        (fun lang ->
          match Qs_sim.Model.speedups ~task ~lang ~cores () with
          | None -> ()
          | Some curve ->
            Printf.printf "  %-8s" lang;
            List.iter (fun (c, s) -> Printf.printf "  %2d:%5.1fx" c s) curve;
            print_newline ())
        PD.languages;
      (* compute-only curves, as in the paper's figure *)
      List.iter
        (fun lang ->
          match
            Qs_sim.Model.speedups ~variant:`Compute ~task ~lang ~cores ()
          with
          | None -> ()
          | Some curve ->
            Printf.printf "  %-8s" (lang ^ " (C)");
            List.iter (fun (c, s) -> Printf.printf "  %2d:%5.1fx" c s) curve;
            print_newline ())
        PD.languages)
    PD.parallel_tasks

let table4_simulated () =
  print_newline ();
  print_endline
    "Fig. 18 / Table 4 — simulated 32-core totals from the calibrated model";
  print_endline (String.make 72 '-');
  Printf.printf "%-22s" "";
  List.iter (fun l -> Printf.printf "%10s" l) PD.languages;
  print_newline ();
  List.iter
    (fun task ->
      Printf.printf "%-22s" task;
      List.iter
        (fun lang ->
          match Qs_sim.Model.predict ~task ~lang ~cores:32 () with
          | Some t -> Printf.printf "%10.2f" t
          | None -> Printf.printf "%10s" "-")
        PD.languages;
      print_newline ())
    PD.parallel_tasks

(* The batched handler loop's efficiency, measured rather than timed: how
   many requests each mailbox structure delivers per handler wakeup on a
   prodcons-style workload.  Mean batch 1.00 is the old
   one-request-per-park loop; larger amortizes park/unpark transitions. *)
let mailbox_batching () =
  print_newline ();
  print_endline
    "mailbox drain batching: requests delivered per handler wakeup \
     (prodcons-style, 4 producers x 200 registrations)";
  print_endline (String.make 72 '-');
  Printf.printf "%-24s %10s %10s %12s\n" "mailbox" "wakeups" "requests"
    "mean batch";
  List.map
    (fun (mailbox, batch) ->
      let s =
        Scoop.Runtime.run ~domains:2
          ~config:
            Scoop.Config.(qoq |> with_mailbox mailbox |> with_batch batch)
          (fun rt ->
          let buffer = Scoop.Runtime.processor rt in
          let queue = Scoop.Shared.create buffer (Queue.create ()) in
          let producers = 4 and per = 200 in
          let latch = Qs_sched.Latch.create producers in
          for i = 1 to producers do
            Qs_sched.Sched.spawn (fun () ->
              for k = 1 to per do
                Scoop.Runtime.separate rt buffer (fun reg ->
                  Scoop.Shared.apply reg queue (fun q ->
                    Queue.push ((i * per) + k) q);
                  Scoop.Shared.apply reg queue (fun q ->
                    ignore (Queue.pop q : int)))
              done;
              Qs_sched.Latch.count_down latch)
          done;
          Qs_sched.Latch.wait latch;
          (* Sync so every prior registration is drained before reading. *)
          ignore
            (Scoop.Runtime.separate rt buffer (fun reg ->
               Scoop.Shared.get reg queue Queue.length)
              : int);
          Scoop.Stats.assoc (Scoop.Runtime.stats rt))
      in
      let name =
        match mailbox with `Qoq -> "qoq" | `Direct -> "direct"
      in
      Printf.printf "%-24s %10d %10d %12.2f\n"
        (Printf.sprintf "%s batch=%d" name batch)
        (Counter.value s "handler_wakeups")
        (Counter.value s "batched_requests")
        (Scoop.Stats.mean_batch s);
      (name, batch, s))
    [ (`Qoq, 1); (`Qoq, 16); (`Qoq, 64); (`Direct, 1); (`Direct, 16);
      (`Direct, 64) ]

(* -- promise-pipelining ablation -------------------------------------------- *)

(* The same fan-in pulls issued as sequential blocking queries vs as
   [query_async] promises forced after the fan-out.  Blocking pulls
   serialize the handlers: handler i+1's pull does not even start until
   handler i's answer is back.  The pipelined variant logs all k queries
   first, so the handlers compute their answers concurrently and the
   client pays for the slowest one once.  Runs on at least 2 domains so
   the overlap is physical, not just interleaved. *)
let pipeline (s : H.scale) =
  let module BT = Qs_benchmarks.Bench_types in
  let module CW = Qs_workloads.Cowichan in
  let handlers = max 2 (min 8 s.H.workers) in
  let domains = max 2 s.H.domains in
  let config = Scoop.Config.all in
  let rounds = max 20 (s.H.m / 16) in
  let items = 256 in
  (* prodcons fan-in: k handler-owned queues are filled by asynchronous
     calls; the client repeatedly pulls a checksum of every queue. *)
  let prodcons ~pipelined () =
    Scoop.Runtime.run ~domains ~config (fun rt ->
      let stats = Scoop.Runtime.stats rt in
      let before = Scoop.Stats.assoc stats in
      let hs = Scoop.Runtime.processors rt handlers in
      let queues = List.map (fun h -> (h, Queue.create ())) hs in
      List.iter
        (fun (h, q) ->
          Scoop.Runtime.separate rt h (fun reg ->
            for i = 1 to items do
              Scoop.Registration.call reg (fun () -> Queue.push i q)
            done))
        queues;
      let checksum = ref 0 in
      let pull q () = Queue.fold (fun a x -> a + (x * x)) 0 q in
      for _ = 1 to rounds do
        Scoop.Runtime.separate_list rt hs (fun regs ->
          if pipelined then
            List.map2
              (fun reg (_, q) -> Scoop.Registration.query_async reg (pull q))
              regs queues
            |> List.iter (fun p ->
                 checksum := !checksum + Scoop.Promise.await p)
          else
            List.iter2
              (fun reg (_, q) ->
                checksum := !checksum + Scoop.Registration.query reg (pull q))
              regs queues)
      done;
      (!checksum, Counter.diff (Scoop.Stats.assoc stats) before))
  in
  (* Cowichan chain fragment (examples/pipeline.ml writ large): workers
     generate matrix chunks behind asynchronous calls, the client pulls
     per-chunk histograms and reduces them to the thresh threshold. *)
  let cowichan ~pipelined () =
    Scoop.Runtime.run ~domains ~config (fun rt ->
      let stats = Scoop.Runtime.stats rt in
      let before = Scoop.Stats.assoc stats in
      let nr = s.H.nr and seed = s.H.seed in
      let chunks =
        List.map
          (fun (lo, hi) ->
            let proc = Scoop.Runtime.processor rt in
            (proc, lo, hi, Array.make ((hi - lo) * nr) 0))
          (BT.split nr handlers)
      in
      List.iter
        (fun (proc, lo, hi, arr) ->
          Scoop.Runtime.separate rt proc (fun reg ->
            Scoop.Registration.call reg (fun () ->
              CW.randmat_chunk ~seed ~nr ~lo ~hi arr)))
        chunks;
      let hist = Array.make CW.modulus 0 in
      let merge h = Array.iteri (fun v n -> hist.(v) <- hist.(v) + n) h in
      if pipelined then
        List.map
          (fun (proc, lo, hi, arr) ->
            Scoop.Runtime.separate rt proc (fun reg ->
              Scoop.Registration.query_async reg (fun () ->
                CW.thresh_hist ~nr arr ~lo:0 ~hi:(hi - lo))))
          chunks
        |> List.iter (fun p -> merge (Scoop.Promise.await p))
      else
        List.iter
          (fun (proc, lo, hi, arr) ->
            Scoop.Runtime.separate rt proc (fun reg ->
              merge
                (Scoop.Registration.query reg (fun () ->
                   CW.thresh_hist ~nr arr ~lo:0 ~hi:(hi - lo)))))
          chunks;
      ( CW.thresh_threshold ~hist ~total:(nr * nr) ~p:s.H.p,
        Counter.diff (Scoop.Stats.assoc stats) before ))
  in
  (* Dynamic sync elision (§3.4.1, handler side): one handler, one call
     plus one result pull per round, the pull forced {e inside} the
     block.  Blocking mode pays the full query round trip every round.
     Pipelined mode issues [query_async] and forces immediately: the
     handler reaches the pipelined request with the registration's log
     drained, marks the promise, and the force doubles as the sync —
     counted under [syncs_elided] (asserted nonzero by CI). *)
  let elision ~pipelined () =
    Scoop.Runtime.run ~domains ~config (fun rt ->
      let stats = Scoop.Runtime.stats rt in
      let before = Scoop.Stats.assoc stats in
      let h = Scoop.Runtime.processor rt in
      let r = ref 0 in
      let total = ref 0 in
      for _ = 1 to rounds do
        Scoop.Runtime.separate rt h (fun reg ->
          Scoop.Registration.call reg (fun () -> incr r);
          if pipelined then begin
            let p = Scoop.Registration.query_async reg (fun () -> !r) in
            total := !total + Scoop.Promise.await p
          end
          else total := !total + Scoop.Registration.query reg (fun () -> !r))
      done;
      (!total, Counter.diff (Scoop.Stats.assoc stats) before))
  in
  print_newline ();
  Printf.printf
    "promise pipelining: blocking queries vs query_async fan-out (%d \
     handlers, %d domains, median of %d)\n"
    handlers domains (max 1 s.H.reps);
  print_endline (String.make 72 '-');
  Printf.printf "%-10s %-10s %10s %10s %8s %8s %8s %8s\n" "workload" "mode"
    "seconds" "promises" "ready" "blocked" "overlap" "elided";
  let bench name workload =
    let variant pipelined mode =
      let runs =
        List.init (max 1 s.H.reps) (fun _ ->
          let (value, snap), secs = BT.timed (workload ~pipelined) in
          (secs, value, snap))
      in
      let secs = BT.median (List.map (fun (t, _, _) -> t) runs) in
      (* Counters come from the first rep; every rep does identical work. *)
      let _, value, snap = List.hd runs in
      let count = Counter.value snap in
      Printf.printf "%-10s %-10s %10.4f %10d %8d %8d %8.2f %8d\n" name mode
        secs (count "promises_created")
        (count "promises_ready_on_first_poll")
        (count "promises_forced_blocking")
        (Scoop.Stats.overlap_ratio snap) (count "syncs_elided");
      (value, (name, mode, secs, snap))
    in
    let vb, row_b = variant false "blocking" in
    let vp, row_p = variant true "pipelined" in
    if vb <> vp then
      Printf.printf "  WARNING: %s blocking/pipelined results differ (%d vs %d)\n"
        name vb vp;
    [ row_b; row_p ]
  in
  let prodcons_rows = bench "prodcons" prodcons in
  let cowichan_rows = bench "cowichan" cowichan in
  let elision_rows = bench "elision" elision in
  prodcons_rows @ cowichan_rows @ elision_rows

(* -- timeout & backpressure ablation ---------------------------------------- *)

(* Three questions about the time-aware request path:

   1. What does a deadline cost when nothing ever times out?  The same
      call+query round trip with and without a generous [?timeout] — the
      timed variant arms a per-round timer and cancels it on fulfilment.
   2. Do the timeout and shedding paths actually fire under overload?  A
      wedged handler behind a bounded [`Shed_oldest] mailbox: the timed
      query must expire and the flood must shed (CI asserts the probe's
      [timeouts_fired]/[shed_requests]/[timer_arms] are nonzero).
   3. What does the socket transport allocate per message after the
      in-place decode (no [Bytes.sub] staging copy)? *)
let timeout_ablation (s : H.scale) =
  let module BT = Qs_benchmarks.Bench_types in
  print_newline ();
  print_endline
    "timeout ablation: deadline overhead, forced-overload probe, transport \
     allocation";
  print_endline (String.make 72 '-');
  let rounds = max 500 s.H.m in
  let round_trip ?timeout () =
    Scoop.Runtime.run ~domains:1 (fun rt ->
      let h = Scoop.Runtime.processor rt in
      let r = ref 0 in
      Scoop.Runtime.separate rt h (fun reg ->
        for _ = 1 to rounds do
          Scoop.Registration.call reg (fun () -> incr r);
          ignore (Scoop.Registration.query ?timeout reg (fun () -> !r) : int)
        done))
  in
  let med f =
    BT.median (List.init (max 1 s.H.reps) (fun _ -> snd (BT.timed f)))
  in
  let plain = med (fun () -> round_trip ()) in
  let timed = med (fun () -> round_trip ~timeout:60.0 ()) in
  let ns secs = secs *. 1e9 /. float_of_int rounds in
  Printf.printf "%-36s %10.0f ns/round\n" "call+query, no deadline" (ns plain);
  Printf.printf "%-36s %10.0f ns/round\n" "call+query, generous deadline"
    (ns timed);
  Printf.printf "%-36s %10.0f ns/round\n" "deadline arm+cancel overhead"
    (ns (timed -. plain));
  let probe =
    Scoop.Runtime.run ~domains:2
      ~config:Scoop.Config.(qoq |> with_bound 4 |> with_overflow `Shed_oldest)
      (fun rt ->
      let h = Scoop.Runtime.processor rt in
      (try
         Scoop.Runtime.separate rt h (fun reg ->
           (* Wedge the handler, then let a short deadline expire. *)
           Scoop.Registration.call reg (fun () -> Qs_sched.Sched.sleep 0.05);
           (match Scoop.Registration.query ~timeout:0.005 reg (fun () -> 0) with
           | _ -> ()
           | exception Scoop.Timeout -> ());
           (* Flood the bounded mailbox: admissions past the bound shed
              the oldest backlog (and the shed failures poison the
              registration, caught below). *)
           for _ = 1 to 64 do
             Scoop.Registration.call reg (fun () -> ())
           done;
           (* Sync so the handler drains (and sheds) the whole flood
              before the stats are read; the shed poison surfaces here. *)
           Scoop.Registration.sync reg)
       with
      | Scoop.Handler_failure (_, Scoop.Overloaded _) | Scoop.Overloaded _ ->
        ());
      Scoop.Stats.assoc (Scoop.Runtime.stats rt))
  in
  let pv = Counter.value probe in
  Printf.printf
    "overload probe: %d timer arms, %d timeouts fired, %d deadlines \
     exceeded, %d shed requests\n"
    (pv "timer_arms") (pv "timeouts_fired") (pv "deadline_exceeded")
    (pv "shed_requests");
  let alloc_per_msg =
    Qs_sched.Sched.run ~domains:1 (fun () ->
      let q = Qs_remote.Socket_queue.create () in
      Fun.protect
        ~finally:(fun () -> Qs_remote.Socket_queue.destroy q)
        (fun () ->
          let n = 2000 in
          let payload = Array.init 64 Fun.id in
          let w0 = Gc.minor_words () in
          Qs_sched.Sched.spawn (fun () ->
            for _ = 1 to n do
              Qs_remote.Socket_queue.enqueue q payload
            done;
            Qs_remote.Socket_queue.close_writer q);
          let rec drain k =
            match Qs_remote.Socket_queue.dequeue q with
            | Some (_ : int array) -> drain (k + 1)
            | None -> k
          in
          let received = drain 0 in
          let words = Gc.minor_words () -. w0 in
          assert (received = n);
          words /. float_of_int n))
  in
  Printf.printf "%-36s %10.0f minor words/msg (64-int payload)\n"
    "socket transport allocation" alloc_per_msg;
  (ns plain, ns timed, probe, alloc_per_msg)

(* -- scheduler injection ablation ------------------------------------------ *)

(* Two questions about the scheduler's sharded injection path (the rows
   keep their historical "pools:" names):

   1. Injection contention: the same cross-domain push/pop flood through
      the sharded MPMC at one shard (every producer funnels into a single
      queue — the old global-inject shape) vs eight shards (the
      per-worker layout the scheduler runs).  Identical code, only the
      shard count moves, so the row pair isolates the sharding itself.
   2. What does a handler call cost on a 2-domain runtime? *)
let pools_ablation (s : H.scale) =
  let module BT = Qs_benchmarks.Bench_types in
  print_newline ();
  print_endline "pools ablation: sharded injection, handler calls";
  print_endline (String.make 72 '-');
  (* Sampled like the Bechamel rows (which collect ~100+ measurements),
     not like the seconds-long macro tables: 3 samples gave the pools
     rows meaningless stddevs in the committed baseline. *)
  let reps = max 128 s.H.reps in
  let row name ~ops f =
    (* No row pays for the previous row's garbage: the injection floods
       leave their spawned domains' heaps behind, and the first handler
       batch would otherwise collect them at ~150 µs per call. *)
    Gc.full_major ();
    let samples =
      List.init reps (fun _ -> snd (BT.timed f) *. 1e9 /. float_of_int ops)
    in
    let n = List.length samples in
    let mean = List.fold_left ( +. ) 0.0 samples /. float_of_int n in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 samples
      /. float_of_int n
    in
    Printf.printf "%-36s %10.0f ns/op\n" name mean;
    (Printf.sprintf "qs:%s" name, mean, sqrt var, n)
  in
  (* 4 producer domains flood the queue while this domain drains it. *)
  let inject_flood ~shards () =
    let producers = 4 and per = 5_000 in
    let q = Qs_queues.Sharded_mpmc.create_sharded ~shards () in
    let doms =
      List.init producers (fun _ ->
        Domain.spawn (fun () ->
          for i = 1 to per do
            Qs_queues.Sharded_mpmc.push q i
          done))
    in
    let budget = producers * per in
    let popped = ref 0 in
    while !popped < budget do
      match Qs_queues.Sharded_mpmc.pop q with
      | Some _ -> incr popped
      | None -> Domain.cpu_relax ()
    done;
    List.iter Domain.join doms
  in
  (* One 2-domain runtime per row: each sample is a batch of 1000
     single-call separate blocks closed by a query, timed inside the
     runtime, so the row prices a call rather than a runtime start-up. *)
  let handler_row name =
    Scoop.Runtime.run ~domains:2 ~config:Scoop.Config.qoq (fun rt ->
      let h = Scoop.Runtime.processor rt in
      let cell = Scoop.Shared.create h (ref 0) in
      row name ~ops:1_000 (fun () ->
        for _ = 1 to 1000 do
          Scoop.Runtime.separate rt h (fun reg ->
            Scoop.Shared.apply reg cell incr)
        done;
        Scoop.Runtime.separate rt h (fun reg ->
          ignore (Scoop.Shared.get reg cell (fun r -> !r) : int))))
  in
  (* Sequential lets: list literals evaluate right-to-left, which would
     reverse the printed order. *)
  let r1 = row "pools:inject-shard1-20000" ~ops:20_000 (inject_flood ~shards:1) in
  let r2 = row "pools:inject-shard8-20000" ~ops:20_000 (inject_flood ~shards:8) in
  let r3 = handler_row "pools:handler-default-1000" in
  [ r1; r2; r3 ]

(* -- remote-endpoint ablation ------------------------------------------------ *)

(* Distributed-runtime handler state: remote closures execute against the
   node's module-level globals, so the benchmark's counter lives here. *)
let remote_cell = Atomic.make 0

(* What does moving a processor behind a socket cost, and does promise
   pipelining buy the latency back?  Three rows over the same 1000-query
   stream:

   - [remote:qoq-1000]            — in-process qoq endpoint (baseline)
   - [remote:qoq-vs-socket-1000]  — same blocking queries against a node
                                    over a unix socket: every query pays
                                    a full marshal + syscall round trip
   - [remote:socket-pipelined-1000] — the same stream as pipelined
                                    [query_async] promises: requests
                                    overlap in flight, so the per-query
                                    cost collapses toward the transport's
                                    throughput bound (CI asserts this row
                                    beats the blocking one). *)
let remote_ablation (s : H.scale) =
  let module BT = Qs_benchmarks.Bench_types in
  print_newline ();
  print_endline
    "remote ablation: in-process vs socket endpoint, blocking vs pipelined";
  print_endline (String.make 72 '-');
  let rounds = 1000 in
  let blocking rt =
    let p = Scoop.Runtime.processor rt in
    Scoop.Runtime.separate rt p (fun reg ->
      for _ = 1 to rounds do
        ignore
          (Scoop.Registration.query reg (fun () ->
             Atomic.fetch_and_add remote_cell 1)
            : int)
      done)
  in
  let pipelined rt =
    let p = Scoop.Runtime.processor rt in
    Scoop.Runtime.separate rt p (fun reg ->
      List.init rounds (fun _ ->
        Scoop.Registration.query_async reg (fun () ->
          Atomic.fetch_and_add remote_cell 1))
      |> List.iter (fun pr -> ignore (Scoop.Promise.await pr : int)))
  in
  let reps = max 8 (s.H.reps / 2) in
  let row name f =
    let samples =
      List.init reps (fun _ ->
        snd (BT.timed f) *. 1e9 /. float_of_int rounds)
    in
    let n = List.length samples in
    let mean = List.fold_left ( +. ) 0.0 samples /. float_of_int n in
    let var =
      List.fold_left
        (fun acc x -> acc +. ((x -. mean) *. (x -. mean)))
        0.0 samples
      /. float_of_int n
    in
    Printf.printf "%-36s %10.0f ns/op\n" name mean;
    (Printf.sprintf "qs:%s" name, mean, sqrt var, n)
  in
  let r_local =
    row "remote:qoq-1000" (fun () ->
      Scoop.Runtime.run ~domains:1 ~config:Scoop.Config.qoq blocking)
  in
  (* One self-hosted node serves every remote rep: connections are
     per-rep, the node is not. *)
  let path =
    Printf.sprintf "%s/qs_bench_%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ())
  in
  let addr = Scoop.Config.Unix_sock path in
  let node = Domain.spawn (fun () -> Scoop.Remote.listen addr) in
  let remotely f () =
    Scoop.Runtime.run
      ~config:(Scoop.Remote.connect [ addr ])
      (fun rt -> f rt)
  in
  let r_blocking = row "remote:qoq-vs-socket-1000" (remotely blocking) in
  let r_pipelined = row "remote:socket-pipelined-1000" (remotely pipelined) in
  Scoop.Runtime.run
    ~config:(Scoop.Remote.connect [ addr ])
    Scoop.Runtime.shutdown_nodes;
  Domain.join node;
  let mean (_, m, _, _) = m in
  Printf.printf
    "pipelining recovered %.1fx of the socket round-trip cost\n"
    (mean r_blocking /. mean r_pipelined);
  [ r_local; r_blocking; r_pipelined ]

(* -- per-request allocation probe ------------------------------------------- *)

(* What does one request allocate, and how much of it survives?  The
   call+query round-trip workload on the qoq preset, measured with GC
   word deltas (the same idiom as the transport row of the timeout
   ablation).  One domain: client and handler then allocate on the
   measured domain, so the minor-word delta is the whole story.  The
   window is bracketed by [Gc.minor ()], so the promoted-word counter is
   current at both ends ([major_words] from [Gc.quick_stat] lags a
   window this short). *)
let allocation_probe (s : H.scale) =
  print_newline ();
  print_endline
    "request allocation: GC words per request, call+query round trips on \
     the qoq preset";
  print_endline (String.make 72 '-');
  let rounds = max 2_000 s.H.m in
  (* [?timeout] bounds every query: the timed path that each [serve]
     request takes under its default deadline. *)
  let measure ?timeout () =
    Scoop.Runtime.run ~domains:1 ~config:Scoop.Config.qoq (fun rt ->
      let h = Scoop.Runtime.processor rt in
      let r = ref 0 in
      Scoop.Runtime.separate rt h (fun reg ->
        (* Warm-up: fault in the private queue and the code paths before
           the window opens. *)
        for _ = 1 to 128 do
          Scoop.Registration.call reg (fun () -> incr r);
          ignore (Scoop.Registration.query ?timeout reg (fun () -> !r) : int)
        done;
        Gc.minor ();
        let minor0 = Gc.minor_words () in
        let promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to rounds do
          Scoop.Registration.call reg (fun () -> incr r);
          ignore (Scoop.Registration.query ?timeout reg (fun () -> !r) : int)
        done;
        let secs = Unix.gettimeofday () -. t0 in
        let minor = Gc.minor_words () -. minor0 in
        Gc.minor ();
        let promoted = (Gc.quick_stat ()).Gc.promoted_words -. promoted0 in
        let requests = float_of_int (2 * rounds) in
        (minor /. requests, promoted /. requests, secs *. 1e9 /. requests)))
  in
  (* Best-of-reps: per-request allocation is deterministic, the timing
     is the quietest observed interleaving. *)
  let best measure =
    List.init (max 3 s.H.reps) (fun _ -> measure ())
    |> List.fold_left
         (fun best ((_, _, ns) as m) ->
           match best with
           | Some (_, _, best_ns) when best_ns <= ns -> best
           | _ -> Some m)
         None
    |> Option.get
  in
  let ((minor, promoted, ns) as untimed) = best measure in
  Printf.printf "%-36s %10.1f minor, %6.2f promoted words, %6.0f ns/request\n"
    "call + query round trip" minor promoted ns;
  let ((minor, promoted, ns) as timed) = best (measure ~timeout:60.0) in
  Printf.printf "%-36s %10.1f minor, %6.2f promoted words, %6.0f ns/request\n"
    "call + query, ~timeout:60.0" minor promoted ns;
  (untimed, timed, 2 * rounds)

(* -- trace conformance probe ------------------------------------------------- *)

(* Run the `basic` scenario of `qs check` (concurrent clients, calls,
   queries, pipelined queries and the dynamic sync elision they produce)
   and replay its recorded SCOOP events through the conformance automaton
   of the operational semantics: the handler never executes a call
   before it was logged, and every elided sync happened in the synced
   state.  Since tracing does not change the request representation, the
   path checked is the path that runs. *)
let conformance_probe () =
  print_newline ();
  print_endline
    "trace conformance: the `basic` scenario replayed through the semantics \
     automaton (per-registration partitions)";
  print_endline (String.make 72 '-');
  let module Sc = Qs_scenarios.Scenario in
  let o = Sc.run (Option.get (Sc.find "basic")) in
  let elided = Counter.get o.Sc.stats.Scoop.Stats.syncs_elided in
  match o.Sc.verdict with
  | Error e ->
    Format.printf "  UNCHECKABLE: %a@." Qs_conform.pp_error e;
    (0, elided, 1)
  | Ok report ->
    Printf.printf
      "%d traced events across %d registration streams, %d syncs elided, %d \
       violations\n"
      report.Qs_conform.events
      (List.length report.Qs_conform.streams)
      elided
      (List.length report.Qs_conform.violations);
    List.iter
      (fun v -> Format.printf "  VIOLATION: %a@." Qs_conform.pp_violation v)
      report.Qs_conform.violations;
    ( report.Qs_conform.events,
      elided,
      List.length report.Qs_conform.violations )

(* -- Bechamel micro-suite: one Test.make per table ------------------------- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  print_newline ();
  print_endline "Bechamel micro-benchmarks (ns/run, OLS estimate)";
  print_endline (String.make 72 '-');
  (* table1's primitive: one pulled element through a SCOOP query. *)
  let t_table1 =
    Test.make ~name:"table1:query-pull-100"
      (Staged.stage (fun () ->
         Scoop.Runtime.run ~domains:1 (fun rt ->
           let h = Scoop.Runtime.processor rt in
           let data = Scoop.Shared.create h (Array.init 100 Fun.id) in
           Scoop.Runtime.separate rt h (fun reg ->
             let acc = ref 0 in
             for i = 0 to 99 do
               acc := !acc + Scoop.Shared.get reg data (fun a -> a.(i))
             done;
             !acc))))
  in
  (* table2's primitive: reservation + one asynchronous call. *)
  let t_table2 =
    Test.make ~name:"table2:separate-call-100"
      (Staged.stage (fun () ->
         Scoop.Runtime.run ~domains:1 (fun rt ->
           let h = Scoop.Runtime.processor rt in
           let cell = Scoop.Shared.create h (ref 0) in
           for _ = 1 to 100 do
             Scoop.Runtime.separate rt h (fun reg ->
               Scoop.Shared.apply reg cell incr)
           done)))
  in
  (* table4's primitive: the fiber spawn/join cycle every paradigm uses. *)
  let t_table4 =
    Test.make ~name:"table4:spawn-join-100"
      (Staged.stage (fun () ->
         Qs_sched.Sched.run ~domains:1 (fun () ->
           let latch = Qs_sched.Latch.create 100 in
           for _ = 1 to 100 do
             Qs_sched.Sched.spawn (fun () -> Qs_sched.Latch.count_down latch)
           done;
           Qs_sched.Latch.wait latch)))
  in
  (* table5's primitive: one STM transaction vs one channel rendezvous. *)
  let t_table5 =
    Test.make ~name:"table5:stm-incr-100"
      (Staged.stage (fun () ->
         Qs_sched.Sched.run ~domains:1 (fun () ->
           let v = Qs_stm.Stm.make 0 in
           for _ = 1 to 100 do
             Qs_stm.Stm.update v succ
           done)))
  in
  (* Ablations for the queue shapes of §3.1 that DESIGN.md calls out: the
     private queue (linked SPSC) and the queue-of-queues (specialized
     MPSC vs the scheduler's sharded MPMC). *)
  let t_spsc_linked =
    Test.make ~name:"ablation:spsc-linked-1000"
      (Staged.stage (fun () ->
         let q = Qs_queues.Spsc_queue.create () in
         for i = 1 to 1000 do
           Qs_queues.Spsc_queue.push q i
         done;
         for _ = 1 to 1000 do
           ignore (Qs_queues.Spsc_queue.pop q : int option)
         done))
  in
  let t_mpsc =
    Test.make ~name:"ablation:qoq-mpsc-1000"
      (Staged.stage (fun () ->
         let q = Qs_queues.Mpsc_queue.create () in
         for i = 1 to 1000 do
           Qs_queues.Mpsc_queue.push q i
         done;
         for _ = 1 to 1000 do
           ignore (Qs_queues.Mpsc_queue.pop q : int option)
         done))
  in
  (* The scheduler's injection queue, the sharded MPMC: per-shard Vyukov
     MPSC queues whose consumers claim an element with one CAS. *)
  let t_mpmc =
    Test.make ~name:"ablation:qoq-mpmc-1000"
      (Staged.stage (fun () ->
         let q = Qs_queues.Sharded_mpmc.create_sharded ~shards:4 () in
         for i = 1 to 1000 do
           Qs_queues.Sharded_mpmc.push q i
         done;
         for _ = 1 to 1000 do
           ignore (Qs_queues.Sharded_mpmc.pop q : int option)
         done))
  in
  (* Mailbox ablation: the same 100-call workload through each handler
     communication structure and drain batch width.  Compare qoq vs
     direct at equal batch, and batch 1 (the paper's
     one-dequeue-per-iteration handler loop) vs the batched default. *)
  let t_mailbox mailbox batch =
    let name =
      Printf.sprintf "mailbox:%s-batch%d-100"
        (match mailbox with `Qoq -> "qoq" | `Direct -> "direct")
        batch
    in
    Test.make ~name
      (Staged.stage (fun () ->
         Scoop.Runtime.run ~domains:1
           ~config:
             Scoop.Config.(qoq |> with_mailbox mailbox |> with_batch batch)
           (fun rt ->
           let h = Scoop.Runtime.processor rt in
           let cell = Scoop.Shared.create h (ref 0) in
           for _ = 1 to 100 do
             Scoop.Runtime.separate rt h (fun reg ->
               Scoop.Shared.apply reg cell incr)
           done;
           Scoop.Runtime.separate rt h (fun reg ->
             ignore (Scoop.Shared.get reg cell (fun r -> !r) : int)))))
  in
  (* §7 future work: what would socket-backed private queues cost?
     Same 1000-message stream through the marshalling socket transport
     vs. the in-memory SPSC queue (compare with ablation:spsc-linked). *)
  let t_socket =
    Test.make ~name:"transport:socket-queue-1000"
      (Staged.stage (fun () ->
         Qs_sched.Sched.run ~domains:1 (fun () ->
           let q = Qs_remote.Socket_queue.create () in
           Fun.protect
             ~finally:(fun () -> Qs_remote.Socket_queue.destroy q)
             (fun () ->
               Qs_sched.Sched.spawn (fun () ->
                 for i = 1 to 1000 do
                   Qs_remote.Socket_queue.enqueue q i
                 done;
                 Qs_remote.Socket_queue.close_writer q);
               let rec drain () =
                 match Qs_remote.Socket_queue.dequeue q with
                 | Some _ -> drain ()
                 | None -> ()
               in
               drain ()))))
  in
  let test =
    Test.make_grouped ~name:"qs" ~fmt:"%s:%s"
      [
        t_table1; t_table2; t_table4; t_table5; t_spsc_linked; t_mpsc; t_mpmc;
        t_mailbox `Qoq 1; t_mailbox `Qoq 16; t_mailbox `Direct 1;
        t_mailbox `Direct 16; t_socket;
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~stabilize:true ~quota:(Time.second 0.5) ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "%-32s %12.0f ns/run\n" name est
      | _ -> Printf.printf "%-32s (no estimate)\n" name)
    results;
  (* Mean/stddev of the per-run time over the raw samples — the spread
     the OLS point estimate hides, for the machine-readable output. *)
  let label = Measure.label Instance.monotonic_clock in
  let rows =
    Hashtbl.fold
      (fun name (b : Benchmark.t) acc ->
        let samples =
          Array.to_list b.Benchmark.lr
          |> List.filter_map (fun m ->
               let runs = Measurement_raw.run m in
               if runs <= 0.0 then None
               else Some (Measurement_raw.get ~label m /. runs))
        in
        match samples with
        | [] -> acc
        | _ ->
          let n = List.length samples in
          let mean = List.fold_left ( +. ) 0.0 samples /. float_of_int n in
          let var =
            List.fold_left
              (fun acc x -> acc +. ((x -. mean) *. (x -. mean)))
              0.0 samples
            /. float_of_int n
          in
          (name, mean, sqrt var, n) :: acc)
      raw []
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)
  in
  (rows, mailbox_batching ())

(* -- machine-readable output ------------------------------------------------- *)

(* One instrumented run of the query-heavy workload under the full
   configuration: runtime counters, scheduler counters and (optionally)
   a whole-stack event trace for the [--trace-out] export. *)
let instrumented_probe ?obs (s : H.scale) =
  let sched = ref [] in
  let stats =
    Scoop.Runtime.run ~domains:s.H.domains ?obs
      ~on_counters:(fun c -> sched := Qs_sched.Sched.counters_assoc c)
      (fun rt ->
        query_workload rt ~rounds:(max 200 (s.H.m / 4)) ~clients:8;
        (* Exercise the failure paths too, so the failure counters in
           the machine-readable output are nonzero (asserted by CI): a
           rejected pipelined query and a poisoned registration. *)
        let h = Scoop.Runtime.processor rt in
        (try
           Scoop.Runtime.separate rt h (fun reg ->
             let p =
               Scoop.Registration.query_async reg (fun () ->
                 failwith "bench fault")
             in
             (match Scoop.Promise.await p with
             | _ -> ()
             | exception Failure _ -> ());
             Scoop.Registration.call reg (fun () -> failwith "bench fault");
             Scoop.Registration.sync reg)
         with Scoop.Handler_failure _ -> ());
        Scoop.Runtime.stats rt)
  in
  (Scoop.Stats.assoc stats, Scoop.Stats.hist_assoc stats, !sched)

let json_ints kvs =
  Qs_obs.Json.Obj (List.map (fun (k, v) -> (k, Qs_obs.Json.Int v)) kvs)

let write_json path (s : H.scale) micro_rows batching_rows pipeline_rows
    timeout_info alloc_info conformance_info =
  let open Qs_obs.Json in
  let runtime_counters, runtime_hists, sched_counters = instrumented_probe s in
  let alloc_json =
    match alloc_info with
    | None -> []
    | Some ((minor, promoted, ns), (timed_minor, timed_promoted, _), requests)
      ->
      [
        ( "allocation",
          Obj
            [
              ("preset", String "qoq");
              ("requests", Int requests);
              ("minor_words_per_request", Float minor);
              ("promoted_words_per_request", Float promoted);
              ("ns_per_request", Float ns);
              ("timed_minor_words_per_request", Float timed_minor);
              ("timed_promoted_words_per_request", Float timed_promoted);
            ] );
      ]
  in
  let conformance_json =
    match conformance_info with
    | None -> []
    | Some (events, elided, violations) ->
      [
        ( "conformance",
          Obj
            [
              ("events", Int events);
              ("syncs_elided", Int elided);
              ("violations", Int violations);
              ("ok", Bool (violations = 0));
            ] );
      ]
  in
  let timeout_json =
    match timeout_info with
    | None -> []
    | Some (plain_ns, timed_ns, probe, alloc) ->
      [
        ( "timeout",
          Obj
            [
              ("query_ns_no_deadline", Float plain_ns);
              ("query_ns_generous_deadline", Float timed_ns);
              ("overhead_ns", Float (timed_ns -. plain_ns));
              ("probe", json_ints probe);
              ("transport_minor_words_per_msg", Float alloc);
            ] );
      ]
  in
  let pipeline_json =
    List.map
      (fun (workload, mode, secs, snap) ->
        Obj
          [
            ("workload", String workload);
            ("mode", String mode);
            ("seconds", Float secs);
            ("promises_created", Int (Counter.value snap "promises_created"));
            ( "promises_ready_on_first_poll",
              Int (Counter.value snap "promises_ready_on_first_poll") );
            ( "promises_forced_blocking",
              Int (Counter.value snap "promises_forced_blocking") );
            ("overlap_ratio", Float (Scoop.Stats.overlap_ratio snap));
            ("syncs_elided", Int (Counter.value snap "syncs_elided"));
          ])
      pipeline_rows
  in
  let micro_json =
    List.map
      (fun (name, mean, stddev, samples) ->
        Obj
          [
            ("name", String name);
            ("mean_ns", Float mean);
            ("stddev_ns", Float stddev);
            ("samples", Int samples);
          ])
      micro_rows
  in
  let batching_json =
    List.map
      (fun (mailbox, batch, snap) ->
        Obj
          [
            ("mailbox", String mailbox);
            ("batch", Int batch);
            ("handler_wakeups", Int (Counter.value snap "handler_wakeups"));
            ("batched_requests", Int (Counter.value snap "batched_requests"));
            ("mean_batch", Float (Scoop.Stats.mean_batch snap));
          ])
      batching_rows
  in
  let doc =
    Obj
      ([
        ("suite", String "qs-bench");
        ( "config",
          Obj
            [
              ("scale_m", Int s.H.m);
              ("reps", Int s.H.reps);
              ("domains", Int s.H.domains);
              ("workers", Int s.H.workers);
            ] );
        ("micro", List micro_json);
        ("mailbox_batching", List batching_json);
        ("pipeline", List pipeline_json);
      ]
      @ timeout_json
      @ alloc_json
      @ conformance_json
      @ [
        ( "counters",
          Obj
            [
              ("runtime", json_ints runtime_counters);
              ("sched", json_ints sched_counters);
            ] );
        ( "histograms",
          Obj
            (List.map
               (fun (n, d) -> (n, Qs_obs.Histogram.summary_json d))
               runtime_hists) );
      ])
  in
  write_file path doc;
  Printf.printf "\nwrote machine-readable results to %s\n" path

let write_trace path (s : H.scale) =
  let sink = Qs_obs.Sink.create () in
  let runtime_counters, runtime_hists, sched_counters =
    instrumented_probe ~obs:sink s
  in
  Qs_obs.Chrome.write_file
    ~counters:(runtime_counters @ sched_counters)
    ~histograms:runtime_hists sink path;
  Printf.printf
    "\nwrote Chrome trace of the instrumented probe to %s (load in \
     chrome://tracing or ui.perfetto.dev)\n"
    path

(* -- driver ----------------------------------------------------------------- *)

(* Open-loop SLO curve (BENCH_load.json): sweep arrival rates through the
   saturation knee under a deadline + shed-oldest admission policy and
   record coordinated-omission-safe latency per rate.  Rates and the
   per-request service time are sized for a small box: the low end sits
   well inside the SLO, the high end visibly degrades. *)
let load_probe (s : H.scale) =
  let deadline = 0.05 in
  let spec =
    {
      Qs_load.Load_gen.default with
      clients = 4;
      handlers = 2;
      duration = (if s.H.reps <= 1 then 0.5 else 1.0);
      service_us = 500.;
    }
  in
  let config =
    Scoop.Config.qoq
    |> Scoop.Config.with_deadline deadline
    |> Scoop.Config.with_bound 512
    |> Scoop.Config.with_overflow `Shed_oldest
  in
  let rates = [ 500.; 1000.; 1500.; 2000.; 3000. ] in
  Printf.printf "\nopen-loop SLO sweep (service %.0f us, deadline %.0f ms)\n"
    spec.Qs_load.Load_gen.service_us (deadline *. 1e3);
  let points =
    List.map
      (fun r ->
        let p =
          Qs_load.Load_gen.run_point ~domains:1 ~config
            { spec with Qs_load.Load_gen.rate = r }
        in
        Format.printf "  %a@." (Qs_load.Load_gen.pp_point ~deadline) p;
        p)
      rates
  in
  (match Qs_load.Load_gen.knee ~deadline points with
  | Some ok, Some bad ->
    Printf.printf "  knee: %.1f/s in SLO, degrades by %.1f/s\n" ok bad
  | _ -> ());
  let path = "BENCH_load.json" in
  Qs_obs.Json.write_file path
    (Qs_load.Load_gen.report_json ~deadline ~domains:1 spec points);
  Printf.printf "  wrote %s\n" path

let run scale only json trace_out =
  let want name = only = [] || List.mem name only in
  let par_opt = lazy (H.optimization_parallel scale) in
  let conc_opt = lazy (H.optimization_concurrent scale) in
  if want "table1" then Report.table1 (Lazy.force par_opt);
  if want "fig16" then Report.fig16 (Lazy.force par_opt);
  if want "table2" || want "fig17" then Report.table2 (Lazy.force conc_opt);
  if want "table3" then Report.table3 ();
  if want "table4" || want "fig18" then begin
    Report.table4 (H.language_parallel scale);
    table4_simulated ()
  end;
  if want "fig19" then fig19 ();
  if want "table5" || want "fig20" then Report.table5 (H.language_concurrent scale);
  if want "summary" then begin
    Report.geomeans_44
      (H.optimization_geomeans ~parallel:(Lazy.force par_opt)
         ~concurrent:(Lazy.force conc_opt));
    let par_langs = H.language_parallel scale in
    let conc_langs = H.language_concurrent scale in
    Report.geomeans_langs
      ~title:"§5.2.1 — parallel total-time geometric means (seconds)"
      ~paper:PD.parallel_total_geomeans
      (H.language_geomeans par_langs);
    Report.geomeans_langs
      ~title:"§5.3 — concurrent geometric means (seconds)"
      ~paper:PD.concurrent_geomeans
      (H.language_geomeans conc_langs);
    Report.geomeans_langs
      ~title:"§5.4 — overall geometric means (seconds)"
      ~paper:PD.overall_geomeans
      (H.language_geomeans (par_langs @ conc_langs))
  end;
  if want "eve" then Report.eve (H.eve_experiment scale);
  if want "switches" then switches scale;
  let pipeline_rows = if want "pipeline" then pipeline scale else [] in
  let timeout_info =
    if want "timeout" then Some (timeout_ablation scale) else None
  in
  let pools_rows = if want "pools" then pools_ablation scale else [] in
  let remote_rows = if want "remote" then remote_ablation scale else [] in
  let alloc_info =
    if want "alloc" then Some (allocation_probe scale) else None
  in
  let conformance_info =
    if want "conformance" then Some (conformance_probe ()) else None
  in
  if want "load" then load_probe scale;
  if want "micro" then begin
    let micro_rows, batching_rows = micro () in
    match json with
    | Some path ->
      write_json path scale
        (micro_rows @ pools_rows @ remote_rows)
        batching_rows pipeline_rows timeout_info alloc_info conformance_info
    | None -> ()
  end
  else
    Option.iter
      (fun path ->
        (* No micro rows without the micro suite; still emit the pools
           rows and the counters so the output is valid and
           self-describing. *)
        write_json path scale (pools_rows @ remote_rows) [] pipeline_rows
          timeout_info alloc_info conformance_info)
      json;
  Option.iter (fun path -> write_trace path scale) trace_out

open Cmdliner

let scale_term =
  let base =
    Arg.(
      value
      & opt (enum [ ("default", H.default); ("tiny", H.tiny) ]) H.default
      & info [ "scale" ] ~doc:"Problem scale preset (default or tiny).")
  in
  let nr = Arg.(value & opt (some int) None & info [ "nr" ] ~doc:"Matrix size.") in
  let m = Arg.(value & opt (some int) None & info [ "m" ] ~doc:"Concurrent iterations.") in
  let nt = Arg.(value & opt (some int) None & info [ "nt" ] ~doc:"Threadring passes.") in
  let nc = Arg.(value & opt (some int) None & info [ "nc" ] ~doc:"Chameneos meetings.") in
  let reps = Arg.(value & opt (some int) None & info [ "reps" ] ~doc:"Repetitions (median).") in
  let domains = Arg.(value & opt (some int) None & info [ "domains" ] ~doc:"Scheduler domains.") in
  let workers = Arg.(value & opt (some int) None & info [ "workers" ] ~doc:"Data-parallel workers.") in
  let build base nr m nt nc reps domains workers =
    let s = base in
    let s = match nr with Some v -> { s with H.nr = v; nw = v } | None -> s in
    let s = match m with Some v -> { s with H.m = v } | None -> s in
    let s = match nt with Some v -> { s with H.nt = v } | None -> s in
    let s = match nc with Some v -> { s with H.nc = v } | None -> s in
    let s = match reps with Some v -> { s with H.reps = v } | None -> s in
    let s = match domains with Some v -> { s with H.domains = v } | None -> s in
    let s = match workers with Some v -> { s with H.workers = v } | None -> s in
    s
  in
  Term.(const build $ base $ nr $ m $ nt $ nc $ reps $ domains $ workers)

let only_term =
  Arg.(
    value & opt_all (enum (List.map (fun a -> (a, a)) all_artifacts)) []
    & info [ "only" ]
        ~doc:"Regenerate only the given artifact (repeatable). One of: table1 \
              fig16 table2 fig17 table3 table4 fig18 fig19 table5 fig20 \
              summary eve switches micro pipeline timeout pools alloc \
              conformance remote load.")

let json_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write machine-readable results to $(docv): micro-benchmark \
           mean/stddev over raw samples, mailbox batching rows, and the \
           runtime/scheduler counters of an instrumented probe run.")

let trace_out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Run an instrumented probe workload and write its whole-stack \
           event trace as Chrome trace-event JSON to $(docv).")

let cmd =
  let doc = "Regenerate every table and figure of the SCOOP/Qs evaluation" in
  Cmd.v
    (Cmd.info "qs-bench" ~doc)
    Term.(const run $ scale_term $ only_term $ json_term $ trace_out_term)

let () = exit (Cmd.eval cmd)
