(* Command-line companion tool:

     qs explore <fig1|fig5|fig5-nested|fig6|fig6-queries|fig6-queries-outer>
         — exhaustively explore a paper example under a chosen semantics,
           reporting interleavings, deadlocks and guarantee checks.
     qs syncopt [kernel]
         — run the static sync-coalescing pass on the named kernel CFG
           (default: all) and print the removals.
     qs sim [--task t] [--lang l]
         — print simulated scalability curves from the calibrated model.
     qs demo [--deadline SECS] [--bound N --backpressure POLICY] [--pools]
         — a small end-to-end SCOOP program with runtime statistics;
           optionally walk through the deadline semantics (a query
           against a wedged handler raising Scoop.Timeout), the
           bounded-mailbox overflow policies, and the scheduler pools
           (a pinned handler's pool absorbing and shedding workers,
           with per-pool counters).
     qs faults [--mailbox m]
         — walk the failure paths (raising query, rejected promise,
           poisoned registration, aborted processor) and print the
           failure counters.
     qs trace <example> [--trace-out FILE]
         — run a traced example workload and print the merged
           per-processor / per-worker observability summary; optionally
           export a Chrome trace-event JSON file (chrome://tracing,
           ui.perfetto.dev).
     qs node <addr>
         — host SCOOP handlers at the address and serve remote clients
           until one sends a shutdown request.
     qs remote [--connect ADDRS]
         — run the same bank workload against the in-process endpoint
           and a remote node (self-hosted on a scratch socket unless
           --connect points at running `qs node` processes), and print
           the remote round-trip counters. *)

open Cmdliner

(* -- explore ---------------------------------------------------------------- *)

let programs =
  [
    ("fig1", Qs_semantics.Examples.fig1);
    ("fig5", Qs_semantics.Examples.fig5);
    ("fig5-nested", Qs_semantics.Examples.fig5_nested);
    ("fig6", Qs_semantics.Examples.fig6);
    ("fig6-queries", Qs_semantics.Examples.fig6_queries);
    ("fig6-queries-outer", Qs_semantics.Examples.fig6_queries_outer);
    ("fail-call", Qs_semantics.Examples.fail_call);
    ("fail-call-no-sync", Qs_semantics.Examples.fail_call_no_sync);
    ("timeout-call", Qs_semantics.Examples.timeout_call);
    ("shed-overload", Qs_semantics.Examples.shed_overload);
    ("poison-probe", Qs_semantics.Examples.poison_probe);
  ]

let modes =
  [
    ("qs", Qs_semantics.Step.qs);
    ("qs-client-exec", Qs_semantics.Step.qs_client_exec);
    ("original", Qs_semantics.Step.original);
  ]

let explore name mode_name with_reduced max_runs =
  let program = List.assoc name programs in
  let mode = List.assoc mode_name modes in
  let module E = Qs_semantics.Explore in
  let stats = E.reachable mode program in
  Printf.printf "program %s under %s semantics:\n" name mode_name;
  Printf.printf "  reachable states: %d%s\n" stats.E.states
    (if stats.E.truncated then " (truncated)" else "");
  Printf.printf "  terminal states:  %d\n" (List.length stats.E.terminals);
  Printf.printf "  deadlock states:  %d\n" (List.length stats.E.deadlocks);
  (match stats.E.deadlocks with
  | d :: _ ->
    Format.printf "  a deadlocked configuration:@.%a@." Qs_semantics.State.pp d
  | [] -> ());
  let traces, truncated =
    E.observable_traces ?max_runs mode program
      ~filter:(E.on_handler Qs_semantics.Examples.x)
  in
  Printf.printf "  distinct action orders on handler x: %d%s\n"
    (List.length traces)
    (if truncated then " (truncated)" else "");
  List.iter (fun tr -> Printf.printf "    [%s]\n" (String.concat "; " tr)) traces;
  let report = Qs_semantics.Guarantees.check_program ?max_runs mode program in
  (match report.Qs_semantics.Guarantees.violation with
  | None ->
    Printf.printf "  guarantee 2 holds over %d complete runs%s\n"
      report.Qs_semantics.Guarantees.runs
      (if report.Qs_semantics.Guarantees.truncated then
         " (TRUNCATED: not exhaustive)"
       else "")
  | Some (_, v) ->
    Format.printf "  GUARANTEE VIOLATION: %a@." Qs_semantics.Guarantees.pp_violation v);
  if with_reduced then begin
    let runs_reduced, rstats = E.reduced ?max_runs mode program in
    let reduced_traces =
      E.observable_of_runs runs_reduced
        ~filter:(E.on_handler Qs_semantics.Examples.x)
    in
    let exhaustive = (not rstats.E.truncated) && not truncated in
    Printf.printf "  DPOR-reduced search: %d states (unreduced BFS: %d)%s\n"
      rstats.E.states stats.E.states
      (if rstats.E.truncated then " (truncated)" else "");
    Printf.printf "  reduced deadlock states: %d\n"
      (List.length rstats.E.deadlocks);
    if reduced_traces = traces then
      Printf.printf
        "  observable traces agree between reduced and unreduced search \
         (%d traces%s)\n"
        (List.length traces)
        (if exhaustive then "" else "; both enumerations truncated")
    else if exhaustive then begin
      Printf.printf
        "  OBSERVABLE-TRACE MISMATCH: reduced search found %d traces, \
         unreduced %d\n"
        (List.length reduced_traces) (List.length traces);
      exit 1
    end
    else
      Printf.printf
        "  observable-trace comparison inconclusive under truncated \
         budgets (reduced %d, unreduced %d)\n"
        (List.length reduced_traces) (List.length traces);
    if
      (not rstats.E.truncated)
      && (List.length rstats.E.deadlocks > 0)
         <> (List.length stats.E.deadlocks > 0)
    then begin
      Printf.printf
        "  DEADLOCK DISAGREEMENT between reduced and unreduced search\n";
      exit 1
    end;
    if rstats.E.states < stats.E.states then
      Printf.printf "  reduction: %d of %d states pruned\n"
        (stats.E.states - rstats.E.states)
        stats.E.states
  end

(* -- syncopt ---------------------------------------------------------------- *)

let syncopt name =
  let kernels =
    match name with
    | None -> Qs_syncopt.Kernels.all
    | Some n -> (
      match List.assoc_opt n Qs_syncopt.Kernels.all with
      | Some k -> [ (n, k) ]
      | None ->
        Printf.eprintf "qs: unknown kernel %S; available: %s\n" n
          (String.concat ", " (List.map fst Qs_syncopt.Kernels.all));
        exit 1)
  in
  List.iter
    (fun (n, k) ->
      let cfg = k () in
      Printf.printf "== %s ==\n" n;
      Format.printf "%a" Qs_syncopt.Cfg.pp cfg;
      let report = Qs_syncopt.Pass.run cfg in
      Format.printf "%a@." Qs_syncopt.Pass.pp_report report)
    kernels

(* -- sim --------------------------------------------------------------------- *)

let sim task lang =
  let tasks =
    match task with
    | Some t -> [ t ]
    | None -> Qs_benchmarks.Paper_data.parallel_tasks
  in
  let langs =
    match lang with
    | Some l -> [ l ]
    | None -> Qs_benchmarks.Paper_data.languages
  in
  let cores = [ 1; 2; 4; 8; 16; 32 ] in
  List.iter
    (fun t ->
      List.iter
        (fun l ->
          match Qs_sim.Model.speedups ~task:t ~lang:l ~cores () with
          | None -> ()
          | Some curve ->
            Printf.printf "%-8s %-8s" t l;
            List.iter (fun (c, s) -> Printf.printf "  %2d:%5.1fx" c s) curve;
            print_newline ())
        langs)
    tasks

(* -- demo --------------------------------------------------------------------- *)

(* The two registry views every scenario prints ([demo], [faults],
   [trace]): counters by name, latency histograms by name. *)
let print_counters st =
  Format.printf "== runtime counters ==@.%a@." Qs_obs.Counter.pp_snapshot
    (Scoop.Stats.assoc st)

let print_histograms st =
  Format.printf "== latency histograms ==@.%a@." Qs_obs.Histogram.pp_snapshot
    (Scoop.Stats.hist_assoc st)

(* Deadline walkthrough (--deadline): a blocking query against a
   deliberately wedged handler abandons its rendezvous with
   [Scoop.Timeout] instead of blocking forever — and because a timeout
   does not poison the registration, the same handle still answers once
   the handler recovers. *)
let deadline_demo mailbox d =
  Scoop.Runtime.run ~domains:1
    ~config:Scoop.Config.(qoq |> with_mailbox mailbox)
    (fun rt ->
    let w = Scoop.Runtime.processor rt in
    Scoop.Runtime.separate rt w (fun reg ->
      Scoop.Registration.call reg (fun () -> Qs_sched.Sched.sleep (4.0 *. d));
      (match Scoop.Registration.query ~timeout:d reg (fun () -> 0) with
      | _ -> print_endline "deadline: query answered in time (unexpected here)"
      | exception Scoop.Timeout ->
        Printf.printf
          "deadline: query against a handler wedged for %.2fs raised \
           Scoop.Timeout after %.2fs\n"
          (4.0 *. d) d);
      let v = Scoop.Registration.query reg (fun () -> 42) in
      Printf.printf
        "deadline: the same registration answered %d once the handler \
         recovered (timeouts do not poison)\n"
        v);
    let st = Scoop.Runtime.stats rt in
    Printf.printf "deadline: timers armed %d, timeouts fired %d\n"
      (Qs_obs.Counter.get st.Scoop.Stats.timer_arms)
      (Qs_obs.Counter.get st.Scoop.Stats.timeouts_fired))

(* Backpressure walkthrough (--bound/--backpressure): wedge the handler,
   flood its bounded mailbox, and show what each overflow policy does
   with the backlog. *)
let backpressure_demo mailbox bound overflow =
  let policy =
    match overflow with
    | `Block -> "block"
    | `Fail -> "fail"
    | `Shed_oldest -> "shed"
  in
  let flood = 8 * bound in
  let shed =
    Scoop.Runtime.run ~domains:2
      ~config:
        Scoop.Config.(
          qoq |> with_mailbox mailbox |> with_bound bound
          |> with_overflow overflow)
      (fun rt ->
      let w = Scoop.Runtime.processor rt in
      let served = Scoop.Shared.create w (ref 0) in
      (try
         Scoop.Runtime.separate rt w (fun reg ->
           (* The first call wedges the handler so the flood piles up. *)
           Scoop.Shared.apply reg served (fun r ->
             Qs_sched.Sched.sleep 0.02;
             incr r);
           for _ = 2 to flood do
             Scoop.Shared.apply reg served incr
           done;
           Scoop.Registration.sync reg)
       with
      | Scoop.Overloaded id ->
        Printf.printf
          "backpressure[%s]: admission refused by processor %d mid-flood\n"
          policy id
      | Scoop.Handler_failure (id, Scoop.Overloaded _) ->
        Printf.printf
          "backpressure[%s]: shed calls poisoned the registration on \
           processor %d\n"
          policy id);
      let r =
        Scoop.Runtime.separate rt w (fun reg ->
          Scoop.Shared.get reg served (fun r -> !r))
      in
      Printf.printf "backpressure[%s bound=%d]: %d of %d calls served\n" policy
        bound r flood;
      Qs_obs.Counter.get (Scoop.Runtime.stats rt).Scoop.Stats.shed_requests)
  in
  Printf.printf "backpressure[%s]: shed_requests = %d\n" policy shed

(* Scheduler-pool walkthrough (--pools): pin a handler to a dedicated
   "hot" pool, flood it from default-pool clients, and print the
   per-pool counters — idle workers migrate into the hot pool while it
   has pending injections and shrink away once it drains. *)
let pools_demo mailbox =
  let clients = 4 and per = 500 in
  let kv =
    Scoop.Runtime.run ~domains:2
      ~config:
        Scoop.Config.(qoq |> with_mailbox mailbox |> with_pools [ "hot" ])
      (fun rt ->
      let h = Scoop.Runtime.processor ~pool:"hot" rt in
      let cell = Scoop.Shared.create h (ref 0) in
      let latch = Qs_sched.Latch.create clients in
      for _ = 1 to clients do
        Qs_sched.Sched.spawn (fun () ->
          for _ = 1 to per do
            Scoop.Runtime.separate rt h (fun reg ->
              Scoop.Shared.apply reg cell incr)
          done;
          Qs_sched.Latch.count_down latch)
      done;
      Qs_sched.Latch.wait latch;
      let served =
        Scoop.Runtime.separate rt h (fun reg ->
          Scoop.Shared.get reg cell (fun r -> !r))
      in
      Printf.printf
        "pools: handler pinned to \"hot\" served %d calls from %d \
         default-pool clients\n"
        served clients;
      Scoop.Runtime.pool_counters ())
  in
  let v k = match List.assoc_opt k kv with Some n -> n | None -> 0 in
  Printf.printf
    "pools: pool_drains = %d, pool_migrations = %d, pool_idle_shrinks = %d\n"
    (v "pool_drains") (v "pool_migrations") (v "pool_idle_shrinks");
  List.iter
    (fun name ->
      Printf.printf
        "pools: %-8s workers=%d pending=%d drains=%d migrations=%d \
         idle_shrinks=%d\n"
        name
        (v (Printf.sprintf "pool.%s.workers" name))
        (v (Printf.sprintf "pool.%s.pending" name))
        (v (Printf.sprintf "pool.%s.drains" name))
        (v (Printf.sprintf "pool.%s.migrations" name))
        (v (Printf.sprintf "pool.%s.idle_shrinks" name)))
    [ "default"; "hot" ]

let demo trace_flag mailbox batch deadline bound overflow pools_flag =
  if batch < 1 then begin
    Printf.eprintf "qs: --batch must be >= 1 (got %d)\n" batch;
    exit 1
  end;
  if bound < 0 then begin
    Printf.eprintf "qs: --bound must be >= 0 (got %d)\n" bound;
    exit 1
  end;
  (match deadline with
  | Some d when d <= 0.0 ->
    Printf.eprintf "qs: --deadline must be > 0 (got %g)\n" d;
    exit 1
  | _ -> ());
  let stats =
    Scoop.Runtime.run ~domains:1
      ~config:
        Scoop.Config.(
          qoq |> with_mailbox mailbox |> with_batch batch
          |> with_trace trace_flag)
      (fun rt ->
      let account = Scoop.Runtime.processor rt in
      let balance = Scoop.Shared.create account (ref 100) in
      let tellers = 4 and deposits = 1000 in
      let latch = Qs_sched.Latch.create tellers in
      for _ = 1 to tellers do
        Qs_sched.Sched.spawn (fun () ->
          for _ = 1 to deposits do
            Scoop.Runtime.separate rt account (fun reg ->
              Scoop.Shared.apply reg balance (fun b -> b := !b + 1))
          done;
          Qs_sched.Latch.count_down latch)
      done;
      Qs_sched.Latch.wait latch;
      (* Live mid-run scheduler counters: readable at any point from
         inside the scheduler (approximate until quiescence). *)
      (match Scoop.Runtime.sched_counters () with
      | Some c ->
        Format.printf "scheduler so far: %a@." Qs_sched.Sched.pp_counters c
      | None -> ());
      let final =
        Scoop.Runtime.separate rt account (fun reg ->
          Scoop.Shared.get reg balance (fun b -> !b))
      in
      Printf.printf "final balance: %d (expected %d)\n" final
        (100 + (tellers * deposits));
      (match Scoop.Runtime.obs rt with
      | Some sink ->
        print_histograms (Scoop.Runtime.stats rt);
        Format.printf "== event tracks ==@.%a@." Qs_obs.Sink.pp_track_summary
          sink
      | None -> ());
      Scoop.Runtime.stats rt)
  in
  print_counters stats;
  Option.iter (fun d -> deadline_demo mailbox d) deadline;
  if bound > 0 then backpressure_demo mailbox bound overflow;
  if pools_flag then pools_demo mailbox

(* -- faults ------------------------------------------------------------------- *)

(* Walk through each failure path of the request pipeline — raising
   blocking query, rejected pipelined query, poisoned registration,
   aborted processor — and print the failure counters that account for
   them. *)
let faults mailbox =
  let lifecycle_name = function
    | Scoop.Processor.Running -> "running"
    | Scoop.Processor.Draining -> "draining"
    | Scoop.Processor.Stopped -> "stopped"
    | Scoop.Processor.Failed -> "failed"
  in
  let stats =
    Scoop.Runtime.run ~domains:1
      ~config:Scoop.Config.(qoq |> with_mailbox mailbox)
      (fun rt ->
      let worker = Scoop.Runtime.processor rt in
      let cell = Scoop.Shared.create worker (ref 0) in
      (* A raising blocking query re-raises on the client; the
         registration stays clean. *)
      Scoop.Runtime.separate rt worker (fun reg ->
        Scoop.Shared.apply reg cell incr;
        match Scoop.Registration.query reg (fun () -> failwith "query fault") with
        | _ -> assert false
        | exception Failure _ ->
          print_endline "blocking query: failure re-raised at the call site");
      (* A raising pipelined query rejects its promise; forcing
         re-raises. *)
      Scoop.Runtime.separate rt worker (fun reg ->
        let p =
          Scoop.Registration.query_async reg (fun () -> failwith "promise fault")
        in
        match Scoop.Promise.await p with
        | _ -> assert false
        | exception Failure _ ->
          print_endline "pipelined query: promise rejected, await re-raised");
      (* A raising asynchronous call poisons the registration: the
         dirty-processor rule surfaces it as Handler_failure at the next
         sync point. *)
      (try
         Scoop.Runtime.separate rt worker (fun reg ->
           Scoop.Registration.call reg (fun () -> failwith "call fault");
           ignore (Scoop.Shared.get reg cell (fun r -> !r) : int))
       with Scoop.Handler_failure (id, e) ->
         Printf.printf
           "asynchronous call: registration on processor %d poisoned by %s\n"
           id (Printexc.to_string e));
      (* The handler survived every fault. *)
      let v =
        Scoop.Runtime.separate rt worker (fun reg ->
          Scoop.Shared.get reg cell (fun r -> !r))
      in
      Printf.printf "handler survived the faults: cell = %d\n" v;
      Scoop.Runtime.shutdown rt;
      Printf.printf "lifecycle after shutdown: %s\n"
        (lifecycle_name (Scoop.Processor.lifecycle worker));
      (* Aborting discards still-pending requests unexecuted.  [abort]
         reaches only the processors created since [shutdown]. *)
      let w = Scoop.Runtime.processor rt in
      let cell = Scoop.Shared.create w (ref 0) in
      Scoop.Runtime.separate rt w (fun reg ->
        for _ = 1 to 5 do
          Scoop.Shared.apply reg cell incr
        done);
      Scoop.Runtime.abort rt;
      Scoop.Runtime.stats rt)
  in
  Printf.printf "abort: discarded %d pending requests unexecuted\n"
    (Qs_obs.Counter.get stats.Scoop.Stats.aborted_requests);
  print_counters stats

(* -- trace -------------------------------------------------------------------- *)

(* Example workloads for `qs trace`.  Each exercises all three
   instrumented layers — scheduler workers, processor handlers, client
   operations — so the exported Chrome trace shows the whole stack. *)

let quickstart rt =
  (* The demo's bank tellers, plus periodic audit queries so the trace
     contains sync/query round trips as well as asynchronous calls. *)
  let account = Scoop.Runtime.processor rt in
  let balance = Scoop.Shared.create account (ref 100) in
  let tellers = 4 and deposits = 200 in
  let latch = Qs_sched.Latch.create tellers in
  for _ = 1 to tellers do
    Qs_sched.Sched.spawn (fun () ->
      for i = 1 to deposits do
        Scoop.Runtime.separate rt account (fun reg ->
          Scoop.Shared.apply reg balance (fun b -> b := !b + 1);
          if i mod 50 = 0 then
            ignore (Scoop.Shared.get reg balance (fun b -> !b) : int))
      done;
      Qs_sched.Latch.count_down latch)
  done;
  Qs_sched.Latch.wait latch;
  ignore
    (Scoop.Runtime.separate rt account (fun reg ->
       Scoop.Shared.get reg balance (fun b -> !b))
      : int)

let prodcons rt =
  (* Bounded producer/consumer over two handlers with wait conditions:
     reservations, wait retries and multi-handler transfers. *)
  let buf_proc = Scoop.Runtime.processor rt in
  let sink_proc = Scoop.Runtime.processor rt in
  let buffer = Scoop.Shared.create buf_proc (Queue.create ()) in
  let consumed = Scoop.Shared.create sink_proc (ref 0) in
  let items = 500 in
  let latch = Qs_sched.Latch.create 2 in
  Qs_sched.Sched.spawn (fun () ->
    for i = 1 to items do
      Scoop.Runtime.separate_when rt buf_proc
        ~pred:(fun reg -> Scoop.Shared.get reg buffer Queue.length < 16)
        (fun reg -> Scoop.Shared.apply reg buffer (fun q -> Queue.push i q))
    done;
    Qs_sched.Latch.count_down latch);
  Qs_sched.Sched.spawn (fun () ->
    for _ = 1 to items do
      let v =
        Scoop.Runtime.separate_when rt buf_proc
          ~pred:(fun reg -> Scoop.Shared.get reg buffer Queue.length > 0)
          (fun reg -> Scoop.Shared.get reg buffer Queue.pop)
      in
      Scoop.Runtime.separate rt sink_proc (fun reg ->
        Scoop.Shared.apply reg consumed (fun c -> c := !c + v))
    done;
    Qs_sched.Latch.count_down latch);
  Qs_sched.Latch.wait latch;
  let total =
    Scoop.Runtime.separate rt sink_proc (fun reg ->
      Scoop.Shared.get reg consumed (fun c -> !c))
  in
  Printf.printf "consumed %d items (checksum %d, expected %d)\n" items total
    (items * (items + 1) / 2)

let trace_examples =
  [ ("quickstart", quickstart); ("prodcons", prodcons) ]

let trace_run name out domains mailbox batch =
  if batch < 1 then begin
    Printf.eprintf "qs: --batch must be >= 1 (got %d)\n" batch;
    exit 1
  end;
  let workload = List.assoc name trace_examples in
  let sink = Qs_obs.Sink.create () in
  let sched = ref None in
  let stats =
    Scoop.Runtime.run ~domains
      ~config:Scoop.Config.(qoq |> with_mailbox mailbox |> with_batch batch)
      ~obs:sink
      ~on_counters:(fun c -> sched := Some c)
      (fun rt ->
        workload rt;
        Scoop.Runtime.stats rt)
  in
  (* The scheduler has quiesced: sink readers and counters are exact. *)
  print_histograms stats;
  Format.printf "== event tracks ==@.%a@." Qs_obs.Sink.pp_track_summary sink;
  (match !sched with
  | Some c -> Format.printf "== scheduler ==@.%a@." Qs_sched.Sched.pp_counters c
  | None -> ());
  print_counters stats;
  Printf.printf "events retained: %d, dropped to ring overflow: %d\n"
    (Qs_obs.Sink.recorded sink) (Qs_obs.Sink.dropped sink);
  match out with
  | None -> ()
  | Some path ->
    let counters =
      Scoop.Stats.assoc stats
      @ (match !sched with
        | Some c -> Qs_sched.Sched.counters_assoc c
        | None -> [])
    in
    Qs_obs.Chrome.write_file ~counters
      ~histograms:(Scoop.Stats.hist_assoc stats)
      sink path;
    Printf.printf
      "wrote Chrome trace to %s (load in chrome://tracing or ui.perfetto.dev)\n"
      path

(* -- check -------------------------------------------------------------------- *)

(* Traced conformance scenarios for `qs check`: each runs a small
   workload under tracing and then replays the recorded event rings
   through the conformance automaton of the operational semantics
   (Qs_conform partitions the merged stream per registration before
   handing each partition to Qs_semantics.Replay).  The scenarios
   deliberately cover the failure vocabulary — timeouts, shed requests,
   poisoned registrations — not just the happy path. *)

let check_basic rt =
  (* Concurrent clients over two handlers: asynchronous calls, blocking
     queries, pipelined queries, and the dynamic sync elision those
     produce.  Several client fibers per handler is the point — the
     merged ring interleaves their watermarks, which is exactly what the
     per-registration partitioning must untangle. *)
  let a = Scoop.Runtime.processor rt in
  let b = Scoop.Runtime.processor rt in
  let ca = Scoop.Shared.create a (ref 0) in
  let cb = Scoop.Shared.create b (ref 0) in
  let clients = 3 and rounds = 25 in
  let latch = Qs_sched.Latch.create clients in
  for _ = 1 to clients do
    Qs_sched.Sched.spawn (fun () ->
      for i = 1 to rounds do
        Scoop.Runtime.separate rt a (fun reg ->
          Scoop.Shared.apply reg ca incr;
          if i mod 5 = 0 then
            ignore (Scoop.Shared.get reg ca (fun r -> !r) : int));
        Scoop.Runtime.separate rt b (fun reg ->
          Scoop.Shared.apply reg cb incr;
          let p = Scoop.Registration.query_async reg (fun () -> 0) in
          ignore (Scoop.Promise.await p : int))
      done;
      Qs_sched.Latch.count_down latch)
  done;
  Qs_sched.Latch.wait latch

let check_timeout rt =
  (* A deliberately wedged handler: the bounded query abandons its
     rendezvous (a TimedOut event — a no-op on the automaton, the log
     stays intact) and the same registration then recovers with an
     unbounded query after the slow call drains. *)
  let h = Scoop.Runtime.processor rt in
  let r = ref 0 in
  Scoop.Runtime.separate rt h (fun reg ->
    Scoop.Registration.call reg (fun () ->
      Qs_sched.Sched.sleep 0.15;
      incr r);
    (match Scoop.Registration.query ~timeout:0.02 reg (fun () -> !r) with
    | _ -> failwith "wedged query must time out"
    | exception Scoop.Timeout -> ());
    if Scoop.Registration.query reg (fun () -> !r) <> 1 then
      failwith "recovery query must observe the slow call")

let check_shed rt =
  (* Overflow a bounded handler under [`Shed_oldest]: the wedge call
     holds the handler while the flood crosses the bound, so the oldest
     pending calls are shed (Shed events, attributed to this
     registration) and the poison surfaces as [Overloaded] at the sync
     point. *)
  let h = Scoop.Runtime.processor rt in
  let r = ref 0 in
  let surfaced = ref false in
  (try
     Scoop.Runtime.separate rt h (fun reg ->
       Scoop.Registration.call reg (fun () -> Qs_sched.Sched.sleep 0.05);
       for _ = 1 to 6 do
         Scoop.Registration.call reg (fun () -> incr r)
       done;
       match Scoop.Registration.query reg (fun () -> !r) with
       | _ -> ()
       | exception Scoop.Handler_failure (_, Scoop.Overloaded _) ->
         surfaced := true)
   with Scoop.Handler_failure (_, Scoop.Overloaded _) -> surfaced := true);
  if not !surfaced then
    print_endline
      "  note: flood drained without shedding (fast handler); trace still \
       checked"

let check_poison rt =
  (* A raising asynchronous call poisons its registration; the next sync
     point surfaces [Handler_failure].  The Poisoned event marks the
     stream dirty — from here an elided sync would be a violation, and
     the runtime indeed never elides across the poison.  The handler
     itself survives for the next registration. *)
  let h = Scoop.Runtime.processor rt in
  let cell = Scoop.Shared.create h (ref 0) in
  (try
     Scoop.Runtime.separate rt h (fun reg ->
       Scoop.Registration.call reg (fun () -> failwith "check: call fault");
       ignore (Scoop.Shared.get reg cell (fun r -> !r) : int));
     failwith "poisoned sync must raise Handler_failure"
   with Scoop.Handler_failure _ -> ());
  let v =
    Scoop.Runtime.separate rt h (fun reg ->
      Scoop.Shared.apply reg cell incr;
      Scoop.Shared.get reg cell (fun r -> !r))
  in
  if v <> 1 then failwith "handler must survive the poisoned registration"

let check_scenarios =
  [
    ( "basic",
      (check_basic, Scoop.Config.all, "concurrent calls/queries/elisions") );
    ( "timeout",
      (check_timeout, Scoop.Config.all, "wedged query abandons its rendezvous")
    );
    ( "shed",
      ( check_shed,
        Scoop.Config.(all |> with_bound 2 |> with_overflow `Shed_oldest),
        "bounded handler sheds oldest under overflow" ) );
    ( "poison",
      (check_poison, Scoop.Config.all, "failed call poisons the registration")
    );
  ]

let check_run only break_flag domains =
  let scenarios =
    match only with
    | None -> check_scenarios
    | Some n -> [ (n, List.assoc n check_scenarios) ]
  in
  let failures = ref 0 in
  let injected_caught = ref 0 in
  List.iter
    (fun (name, (workload, config, blurb)) ->
      Printf.printf "== %s: %s ==\n%!" name blurb;
      let sink = Qs_obs.Sink.create () in
      Scoop.Runtime.run ~domains ~config ~obs:sink (fun rt -> workload rt);
      let tr = Scoop.Trace.of_sink sink in
      (match Qs_conform.check_trace tr with
      | Error e ->
        incr failures;
        Format.printf "  UNCHECKABLE: %a@." Qs_conform.pp_error e
      | Ok report ->
        Format.printf "  @[<v>%a@]@." Qs_conform.pp_report report;
        if report.Qs_conform.violations <> [] then incr failures
        else if break_flag then begin
          (* Negative control: hand-break the trace by appending an
             execution the client never logged, on a stream that really
             exists, and insist the checker notices. *)
          match report.Qs_conform.streams with
          | [] -> ()
          | s :: _ ->
            Scoop.Trace.record tr ~proc:s.Qs_conform.st_proc
              ~client:s.Qs_conform.st_client
              (Scoop.Trace.Call_executed 0.);
            (match Qs_conform.check_trace tr with
            | Ok broken when broken.Qs_conform.violations <> [] ->
              incr injected_caught;
              Format.printf
                "  injected phantom execution caught: %a@."
                Qs_conform.pp_violation
                (List.hd broken.Qs_conform.violations)
            | Ok _ ->
              incr failures;
              print_endline
                "  BROKEN TRACE NOT DETECTED: injected phantom execution \
                 passed the checker"
            | Error e ->
              incr failures;
              Format.printf "  UNCHECKABLE after injection: %a@."
                Qs_conform.pp_error e)
        end);
      print_newline ())
    scenarios;
  if !failures > 0 then begin
    Printf.printf "qs check: FAILED (%d scenario(s) with violations)\n"
      !failures;
    exit 1
  end;
  if break_flag then
    if !injected_caught = List.length scenarios then
      Printf.printf
        "qs check: ok — %d scenario(s) conform, all injected breaks caught\n"
        (List.length scenarios)
    else begin
      Printf.printf
        "qs check: FAILED — only %d of %d injected breaks caught\n"
        !injected_caught (List.length scenarios);
      exit 1
    end
  else
    Printf.printf "qs check: ok — %d scenario(s), 0 violations\n"
      (List.length scenarios)

(* -- node / remote ------------------------------------------------------------ *)

let parse_addr s =
  match Scoop.Config.addr_of_string s with
  | Some a -> a
  | None ->
    Printf.eprintf
      "qs: bad address %S (expected unix:PATH or tcp:HOST:PORT)\n" s;
    exit 1

let node_run addr_s domains =
  Scoop.Remote.listen ~domains (parse_addr addr_s)

(* Distributed demo state.  Remote closures execute against the *node's*
   module-level globals (Marshal.Closures ships code, not captured
   state), so the workload keeps its handler state here — and that same
   discipline is what lets it run unmodified against both endpoints. *)
let remote_balance = Atomic.make 0

(* The demo bank, written once and run against either endpoint: every
   touch of the balance goes through the registration, including the
   initial reset, so the state lives wherever the processor does. *)
let remote_workload rt =
  let account = Scoop.Runtime.processor rt in
  let tellers = 4 and deposits = 250 in
  Scoop.Runtime.separate rt account (fun reg ->
    Scoop.Registration.call reg (fun () -> Atomic.set remote_balance 100));
  let latch = Qs_sched.Latch.create tellers in
  for _ = 1 to tellers do
    Qs_sched.Sched.spawn (fun () ->
      for i = 1 to deposits do
        Scoop.Runtime.separate rt account (fun reg ->
          Scoop.Registration.call reg (fun () -> Atomic.incr remote_balance);
          (* Periodic audits keep query round trips in the mix. *)
          if i mod 50 = 0 then
            ignore
              (Scoop.Registration.query reg (fun () ->
                 Atomic.get remote_balance)
                : int))
      done;
      Qs_sched.Latch.count_down latch)
  done;
  Qs_sched.Latch.wait latch;
  Scoop.Runtime.separate rt account (fun reg ->
    Scoop.Registration.query reg (fun () -> Atomic.get remote_balance))

let remote_demo connect shutdown_flag =
  let expected = 100 + (4 * 250) in
  (* Bad addresses fail before any endpoint runs. *)
  let connect_addrs =
    Option.map
      (fun s -> List.map parse_addr (String.split_on_char ',' s))
      connect
  in
  (* In-process endpoint first: the reference run. *)
  let local =
    Scoop.Runtime.run ~domains:2 ~config:Scoop.Config.qoq remote_workload
  in
  Printf.printf "in-process endpoint: final balance %d (expected %d)\n" local
    expected;
  (* Then the same workload over a connection.  Self-host a node on a
     scratch unix socket unless --connect names running nodes. *)
  let addrs, hosted =
    match connect_addrs with
    | Some addrs -> (addrs, None)
    | None ->
      let path =
        Printf.sprintf "%s/qs_demo_%d.sock"
          (Filename.get_temp_dir_name ())
          (Unix.getpid ())
      in
      let addr = Scoop.Config.Unix_sock path in
      let d = Domain.spawn (fun () -> Scoop.Remote.listen addr) in
      ([ addr ], Some d)
  in
  let remote, (requests, replies, failures), rtt =
    Scoop.Runtime.run
      ~config:(Scoop.Remote.connect addrs)
      (fun rt ->
        let st = Scoop.Runtime.stats rt in
        let v = remote_workload rt in
        let count = Qs_obs.Counter.get in
        let s =
          Scoop.Stats.
            ( count st.remote_requests,
              count st.remote_replies,
              count st.remote_failures )
        in
        let rtt =
          Qs_obs.Histogram.dist (Scoop.Stats.histograms st) "query_remote_ns"
        in
        if shutdown_flag || hosted <> None then Scoop.Runtime.shutdown_nodes rt;
        (v, s, rtt))
  in
  Option.iter Domain.join hosted;
  Printf.printf "remote endpoint (%s): final balance %d (expected %d)\n"
    (String.concat "," (List.map Scoop.Config.addr_to_string addrs))
    remote expected;
  Printf.printf
    "remote round trips: %d requests, %d replies, %d failures, rtt p50 %.3f \
     ms, p99 %.3f ms\n"
    requests replies failures
    (float_of_int (Qs_obs.Histogram.quantile rtt 0.5) /. 1e6)
    (float_of_int (Qs_obs.Histogram.quantile rtt 0.99) /. 1e6);
  if local <> expected || remote <> expected then begin
    Printf.eprintf "qs: endpoint results diverge\n";
    exit 1
  end;
  if requests = 0 then begin
    Printf.eprintf "qs: no remote round trips recorded\n";
    exit 1
  end

(* -- lang --------------------------------------------------------------------- *)

let lang_checked optimize explore_flag domains program =
  if optimize then
    List.iter
      (fun r -> Format.printf "%a@." Qs_lang.Lang.Codegen.pp_report r)
      (Qs_lang.Lang.Codegen.optimize program)
  else if explore_flag then begin
    let stats = Qs_lang.Lang.To_semantics.explore program in
    Printf.printf "reachable states: %d%s\n" stats.Qs_semantics.Explore.states
      (if stats.Qs_semantics.Explore.truncated then " (truncated)" else "");
    Printf.printf "deadlock states:  %d\n"
      (List.length stats.Qs_semantics.Explore.deadlocks);
    match stats.Qs_semantics.Explore.deadlocks with
    | d :: _ -> Format.printf "%a@." Qs_semantics.State.pp d
    | [] -> ()
  end
  else begin
    let out = Qs_lang.Lang.Compile.run ~domains program in
    List.iter
      (fun (h, vars) ->
        Printf.printf "%s: %s\n" h
          (String.concat ", "
             (List.map (fun (v, n) -> Printf.sprintf "%s = %d" v n) vars)))
      out.Qs_lang.Compile.finals;
    match out.Qs_lang.Compile.printed with
    | [] -> ()
    | printed ->
      Printf.printf "printed: %s\n"
        (String.concat ", " (List.map string_of_int printed))
  end


let lang file optimize explore_flag domains =
  if optimize && explore_flag then begin
    Printf.eprintf "qs: --optimize and --explore are mutually exclusive\n";
    exit 1
  end;
  let source =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error message ->
      Printf.eprintf "qs: cannot read %s: %s\n" file message;
      exit 1
  in
  let program =
    try Qs_lang.Lang.parse source with
    | Qs_lang.Lexer.Lex_error { line; message } ->
      Printf.eprintf "%s:%d: lexical error: %s\n" file line message;
      exit 1
    | Qs_lang.Parser.Parse_error { line; message } ->
      Printf.eprintf "%s:%d: parse error: %s\n" file line message;
      exit 1
  in
  try lang_checked optimize explore_flag domains program with
  | Qs_lang.Check.Check_error { client; message } ->
    Printf.eprintf "%s: error in client %s: %s\n" file client message;
    exit 1
  | Qs_lang.To_semantics.Unsupported message ->
    Printf.eprintf "%s: cannot explore: %s\n" file message;
    exit 1

(* -- serve --------------------------------------------------------------------- *)

(* Open-loop SLO harness: drive the runtime at one or more target arrival
   rates and report coordinated-omission-safe latency per rate.  A sweep
   makes the knee visible: the highest rate still inside the SLO next to
   the first rate that sheds or blows the deadline. *)
let serve_run rate sweep clients handlers duration arrivals burst service_us
    deadline bound overflow seed domains json check_slo =
  let duration =
    let s =
      if String.length duration > 1
         && duration.[String.length duration - 1] = 's'
      then String.sub duration 0 (String.length duration - 1)
      else duration
    in
    match float_of_string_opt s with
    | Some f when f > 0. -> f
    | _ ->
      Printf.eprintf "qs: bad --duration %S (expected e.g. 2 or 2s)\n" duration;
      exit 124
  in
  let spec =
    {
      Qs_load.Load_gen.rate;
      clients;
      handlers;
      duration;
      arrivals =
        (match arrivals with
        | `Poisson -> Qs_load.Load_gen.Poisson
        | `Bursty -> Qs_load.Load_gen.Bursty burst);
      service_us;
      mix = (1, 1, 2);
      seed;
    }
  in
  let config =
    Scoop.Config.qoq
    |> Scoop.Config.with_deadline deadline
    |> fun c ->
    if bound > 0 then
      c |> Scoop.Config.with_bound bound |> Scoop.Config.with_overflow overflow
    else c
  in
  let rates =
    match sweep with
    | None -> [ rate ]
    | Some s ->
      List.map
        (fun r ->
          match float_of_string_opt (String.trim r) with
          | Some f when f > 0. -> f
          | _ ->
            Printf.eprintf "qs: bad rate %S in --sweep\n" r;
            exit 124)
        (String.split_on_char ',' s)
  in
  let points =
    List.map
      (fun r ->
        let p =
          Qs_load.Load_gen.run_point ~domains ~config { spec with rate = r }
        in
        Format.printf "%a@." (Qs_load.Load_gen.pp_point ~deadline) p;
        p)
      rates
  in
  (match Qs_load.Load_gen.knee ~deadline points with
  | Some ok, Some bad ->
    Format.printf "knee: %.1f/s in SLO, degrades by %.1f/s@." ok bad
  | Some ok, None -> Format.printf "all swept rates in SLO (up to %.1f/s)@." ok
  | None, Some bad ->
    Format.printf "no swept rate meets the SLO (first tried %.1f/s)@." bad
  | None, None -> ());
  Option.iter
    (fun path ->
      Qs_obs.Json.write_file path
        (Qs_load.Load_gen.report_json ~deadline ~domains spec points);
      Printf.printf "wrote %s\n" path)
    json;
  if check_slo && not (List.for_all (Qs_load.Load_gen.in_slo ~deadline) points)
  then begin
    Printf.eprintf "qs: SLO violated (deadline %.3fs)\n" deadline;
    exit 1
  end

(* -- CLI wiring ---------------------------------------------------------------- *)

let explore_cmd =
  let prog =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun (n, _) -> (n, n)) programs))) None
      & info [] ~docv:"PROGRAM")
  in
  let mode =
    Arg.(
      value
      & opt (enum (List.map (fun (n, _) -> (n, n)) modes)) "qs"
      & info [ "semantics" ] ~doc:"Rule set: qs, qs-client-exec or original.")
  in
  let reduced =
    Arg.(
      value & flag
      & info [ "reduced" ]
          ~doc:
            "Also run the DPOR-reduced search and cross-check it against \
             the unreduced enumeration (exits non-zero on disagreement).")
  in
  let max_runs =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-runs" ] ~docv:"N"
          ~doc:
            "Run-enumeration budget for the trace, guarantee and DPOR \
             searches (default $(b,100000)); raise it until no \
             enumeration reports truncation for an exhaustive verdict.")
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Exhaustively explore a paper example program")
    Term.(const explore $ prog $ mode $ reduced $ max_runs)

let syncopt_cmd =
  let kernel =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"KERNEL")
  in
  Cmd.v
    (Cmd.info "syncopt" ~doc:"Run the static sync-coalescing pass on a kernel")
    Term.(const syncopt $ kernel)

let sim_cmd =
  let task = Arg.(value & opt (some string) None & info [ "task" ]) in
  let lang = Arg.(value & opt (some string) None & info [ "lang" ]) in
  Cmd.v
    (Cmd.info "sim" ~doc:"Simulated speedup curves (Fig. 19)")
    Term.(const sim $ task $ lang)

let demo_cmd =
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Enable detailed event tracing.")
  in
  let mailbox =
    Arg.(
      value
      & opt (enum [ ("qoq", `Qoq); ("direct", `Direct) ]) `Qoq
      & info [ "mailbox" ] ~docv:"MAILBOX"
          ~doc:
            "Handler communication structure: $(b,qoq) (queue-of-queues, \
             Fig. 4) or $(b,direct) (lock + single request queue, Fig. 2).")
  in
  let batch =
    Arg.(
      value
      & opt int Scoop.Config.default_batch
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Max requests a handler drains per wakeup (>= 1); 1 reproduces \
             the paper's one-dequeue-per-iteration handler loop.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:
            "Also walk through the deadline semantics: a blocking query \
             with this timeout against a wedged handler raises \
             Scoop.Timeout without poisoning the registration.")
  in
  let bound =
    Arg.(
      value
      & opt int 0
      & info [ "bound" ] ~docv:"N"
          ~doc:
            "Also walk through mailbox backpressure: bound each handler's \
             admitted-but-undrained requests to $(docv) (0 = unbounded, \
             skip the walkthrough) and flood a wedged handler.")
  in
  let backpressure =
    Arg.(
      value
      & opt
          (enum [ ("block", `Block); ("fail", `Fail); ("shed", `Shed_oldest) ])
          `Block
      & info [ "backpressure" ] ~docv:"POLICY"
          ~doc:
            "Overflow policy for --bound: $(b,block) (admission backs off), \
             $(b,fail) (admission raises Scoop.Overloaded) or $(b,shed) \
             (shed the oldest pending request, poisoning its client).")
  in
  let pools =
    Arg.(
      value & flag
      & info [ "pools" ]
          ~doc:
            "Also walk through scheduler pools: pin a handler to a \
             dedicated $(b,hot) pool, flood it from default-pool clients, \
             and print the per-pool drain/migration/shrink counters.")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Small end-to-end SCOOP program with statistics")
    Term.(const demo $ trace $ mailbox $ batch $ deadline $ bound
          $ backpressure $ pools)

let faults_cmd =
  let mailbox =
    Arg.(
      value
      & opt (enum [ ("qoq", `Qoq); ("direct", `Direct) ]) `Qoq
      & info [ "mailbox" ] ~docv:"MAILBOX"
          ~doc:"Handler communication structure: $(b,qoq) or $(b,direct).")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Demonstrate the failure semantics: raising queries, rejected \
          promises, poisoned registrations and aborted processors")
    Term.(const faults $ mailbox)

let trace_cmd =
  let example =
    Arg.(
      required
      & pos 0
          (some (enum (List.map (fun (n, _) -> (n, n)) trace_examples)))
          None
      & info [] ~docv:"EXAMPLE"
          ~doc:"Traced workload: $(b,quickstart) or $(b,prodcons).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the merged event trace as Chrome trace-event JSON \
             (loadable in chrome://tracing or ui.perfetto.dev).")
  in
  let domains = Arg.(value & opt int 2 & info [ "domains" ] ~docv:"N") in
  let mailbox =
    Arg.(
      value
      & opt (enum [ ("qoq", `Qoq); ("direct", `Direct) ]) `Qoq
      & info [ "mailbox" ] ~docv:"MAILBOX")
  in
  let batch =
    Arg.(value & opt int Scoop.Config.default_batch & info [ "batch" ] ~docv:"N")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a traced example and print the merged per-processor / \
          per-worker observability summary")
    Term.(const trace_run $ example $ out $ domains $ mailbox $ batch)

let check_cmd =
  let scenario =
    Arg.(
      value
      & pos 0
          (some (enum (List.map (fun (n, _) -> (n, n)) check_scenarios)))
          None
      & info [] ~docv:"SCENARIO"
          ~doc:
            "Run only one scenario: $(b,basic), $(b,timeout), $(b,shed) or \
             $(b,poison).  Default: all of them.")
  in
  let break_flag =
    Arg.(
      value & flag
      & info [ "break" ]
          ~doc:
            "Negative control: after each conforming run, append a phantom \
             execution to the recorded trace and fail unless the checker \
             reports it as a violation.")
  in
  let domains = Arg.(value & opt int 2 & info [ "domains" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run traced workloads (including timeout, shed and poison \
          scenarios) and replay the event rings through the semantics' \
          conformance automaton; non-zero exit on any violation")
    Term.(const check_run $ scenario $ break_flag $ domains)

let node_cmd =
  let addr =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR"
          ~doc:"Address to listen on: $(b,unix:PATH) or $(b,tcp:HOST:PORT).")
  in
  let domains = Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "node"
       ~doc:
         "Host SCOOP handlers behind the socket transport and serve remote \
          clients until one sends a shutdown request")
    Term.(const node_run $ addr $ domains)

let remote_cmd =
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDRS"
          ~doc:
            "Comma-separated node addresses (processor $(b,id) is routed to \
             node $(b,id mod n): the static shard map).  Without this flag \
             the demo self-hosts a node on a scratch unix socket.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:
            "Ask the connected nodes to stop after the workload (implied \
             for the self-hosted node).")
  in
  Cmd.v
    (Cmd.info "remote"
       ~doc:
         "Run the same workload against the in-process and remote endpoints \
          and print the remote round-trip counters")
    Term.(const remote_demo $ connect $ shutdown)

let lang_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let optimize =
    Arg.(value & flag & info [ "optimize" ] ~doc:"Run the sync-coalescing pass.")
  in
  let explore =
    Arg.(value & flag & info [ "explore" ] ~doc:"Exhaustively explore instead of running.")
  in
  let domains = Arg.(value & opt int 1 & info [ "domains" ]) in
  Cmd.v
    (Cmd.info "lang"
       ~doc:"Run, optimize or explore a Quicksilver-mini (.scoop) program")
    Term.(const lang $ file $ optimize $ explore $ domains)

let serve_cmd =
  let rate =
    Arg.(
      value & opt float 400.
      & info [ "rate" ] ~docv:"R"
          ~doc:"Target aggregate arrival rate, requests per second.")
  in
  let sweep =
    Arg.(
      value
      & opt (some string) None
      & info [ "sweep" ] ~docv:"R1,R2,..."
          ~doc:
            "Comma-separated rates to sweep (one fresh runtime per rate); \
             overrides $(b,--rate) and prints the knee.")
  in
  let clients =
    Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N"
         ~doc:"Simulated open-loop clients.")
  in
  let handlers =
    Arg.(value & opt int 2 & info [ "handlers" ] ~docv:"N"
         ~doc:"Handler processors receiving the traffic.")
  in
  let duration =
    Arg.(value & opt string "2"
         & info [ "duration" ] ~docv:"SECONDS"
             ~doc:
               "Open-loop issue window (drain time excluded); a trailing \
                $(b,s) is accepted, e.g. $(b,2s).")
  in
  let arrivals =
    Arg.(
      value
      & opt (enum [ ("poisson", `Poisson); ("bursty", `Bursty) ]) `Poisson
      & info [ "arrivals" ] ~docv:"KIND"
          ~doc:"Arrival process: $(b,poisson) or $(b,bursty).")
  in
  let burst =
    Arg.(value & opt int 16 & info [ "burst" ] ~docv:"N"
         ~doc:"Burst size for $(b,--arrivals bursty).")
  in
  let service_us =
    Arg.(value & opt float 50.
         & info [ "service-us" ] ~docv:"US"
             ~doc:"Busy-work burned per request on the handler.")
  in
  let deadline =
    Arg.(value & opt float 0.05
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:
               "Default deadline on blocking queries; also the SLO bound \
                checked against the client p99.")
  in
  let bound =
    Arg.(value & opt int 512
         & info [ "bound" ] ~docv:"N"
             ~doc:"Per-handler queue bound (0 = unbounded).")
  in
  let overflow =
    Arg.(
      value
      & opt
          (enum
             [ ("block", `Block); ("fail", `Fail); ("shed-oldest", `Shed_oldest) ])
          `Shed_oldest
      & info [ "overflow" ] ~docv:"POLICY"
          ~doc:"Admission policy past the bound.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
         ~doc:"Root RNG seed; arrivals are deterministic per seed.")
  in
  let domains = Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N") in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the per-rate time series as BENCH_load.json schema.")
  in
  let check_slo =
    Arg.(
      value & flag
      & info [ "check-slo" ]
          ~doc:
            "Exit non-zero unless every measured rate meets the SLO: p99 at \
             or under the deadline with zero sheds, timeouts and failures.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Open-loop load harness: drive the runtime at target arrival rates \
          and report coordinated-omission-safe latency, sheds and timeouts")
    Term.(
      const serve_run $ rate $ sweep $ clients $ handlers $ duration
      $ arrivals $ burst $ service_us $ deadline $ bound $ overflow $ seed
      $ domains $ json $ check_slo)

let () =
  let doc = "SCOOP/Qs companion tool: semantics explorer, sync-coalescing pass, simulator" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "qs" ~doc)
          [
            explore_cmd;
            syncopt_cmd;
            sim_cmd;
            demo_cmd;
            faults_cmd;
            trace_cmd;
            check_cmd;
            node_cmd;
            remote_cmd;
            serve_cmd;
            lang_cmd;
          ]))
