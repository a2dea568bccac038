(* Command-line companion tool:

     qs explore <fig1|fig5|fig5-nested|fig6|fig6-queries|fig6-queries-outer>
         — exhaustively explore a paper example under a chosen semantics,
           reporting interleavings, deadlocks and guarantee checks.
     qs syncopt [kernel]
         — run the static sync-coalescing pass on the named kernel CFG
           (default: all) and print the removals.
     qs sim [--task t] [--lang l]
         — print simulated scalability curves from the calibrated model.
     qs check [SCENARIO] [--break] [--mailbox m] [--trace-out FILE]
         — run the traced walkthrough scenarios (bank tellers, wait
           conditions, deadlines, shedding, every failure path, a
           many-client flood, ...), print each one's counters, latency
           histograms and event tracks, and replay its trace through the
           semantics' conformance automaton; optionally export a Chrome
           trace-event JSON file (chrome://tracing, ui.perfetto.dev).
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

(* -- check --------------------------------------------------------------------- *)

(* Run each scenario of the shared table traced, print its walkthrough
   and the registry views, then replay the recorded event rings through
   the conformance automaton of the operational semantics (Qs_conform
   partitions the merged stream per registration before handing each
   partition to Qs_semantics.Replay). *)
let check_run only break_flag domains mailbox trace_out =
  let module Sc = Qs_scenarios.Scenario in
  let scenarios =
    match only with
    | None -> Sc.all
    | Some name -> [ Option.get (Sc.find name) ]
  in
  if trace_out <> None && List.length scenarios > 1 then begin
    Printf.eprintf "qs: --trace-out needs a SCENARIO\n";
    exit 1
  end;
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Format.printf fmt
  in
  List.iter
    (fun (sc : Sc.t) ->
      Printf.printf "== %s: %s ==\n%!" sc.Sc.name sc.Sc.doc;
      let o = Sc.run ~domains ~mailbox sc in
      let counters =
        Scoop.Stats.assoc o.Sc.stats @ Qs_sched.Sched.counters_assoc o.Sc.sched
      in
      let histograms = Scoop.Stats.hist_assoc o.Sc.stats in
      Format.printf "== runtime counters ==@.%a@." Qs_obs.Counter.pp_snapshot
        counters;
      Format.printf "== latency histograms ==@.%a@." Qs_obs.Histogram.pp_snapshot
        histograms;
      Format.printf "== event tracks ==@.%a@." Qs_obs.Sink.pp_track_summary
        o.Sc.sink;
      Printf.printf "events retained: %d, dropped to ring overflow: %d\n"
        (Qs_obs.Sink.recorded o.Sc.sink)
        (Qs_obs.Sink.dropped o.Sc.sink);
      Option.iter
        (fun path ->
          Qs_obs.Chrome.write_file ~counters ~histograms o.Sc.sink path;
          Printf.printf
            "wrote Chrome trace to %s (load in chrome://tracing or \
             ui.perfetto.dev)\n"
            path)
        trace_out;
      (match o.Sc.verdict with
      | Error e -> fail "  UNCHECKABLE: %a@." Qs_conform.pp_error e
      | Ok report when report.Qs_conform.violations <> [] ->
        fail "  @[<v>%a@]@." Qs_conform.pp_report report
      | Ok report -> (
        Format.printf "  @[<v>%a@]@." Qs_conform.pp_report report;
        (* Negative control: a phantom execution on a real stream must
           be flagged, proving the gate can fail. *)
        if break_flag then
          match Sc.phantom o with
          | Some (Ok broken) when broken.Qs_conform.violations <> [] ->
            Format.printf "  injected phantom execution caught: %a@."
              Qs_conform.pp_violation
              (List.hd broken.Qs_conform.violations)
          | Some (Error e) ->
            fail "  UNCHECKABLE after injection: %a@." Qs_conform.pp_error e
          | Some (Ok _) | None ->
            fail
              "  BROKEN TRACE NOT DETECTED: injected phantom execution \
               passed the checker@."));
      print_newline ())
    scenarios;
  let n = List.length scenarios in
  if !failures > 0 then begin
    Printf.printf "qs check: FAILED (%d scenario(s) with violations)\n"
      !failures;
    exit 1
  end
  else if break_flag then
    Printf.printf
      "qs check: ok — %d scenario(s) conform, all injected breaks caught\n" n
  else Printf.printf "qs check: ok — %d scenario(s), 0 violations\n" n

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

let check_cmd =
  let module Sc = Qs_scenarios.Scenario in
  let scenario =
    Arg.(
      value
      & pos 0
          (some (enum (List.map (fun (s : Sc.t) -> (s.Sc.name, s.Sc.name)) Sc.all)))
          None
      & info [] ~docv:"SCENARIO"
          ~doc:
            (Printf.sprintf "Run only one scenario: %s.  Default: all of them."
               (String.concat ", "
                  (List.map (fun (s : Sc.t) -> "$(b," ^ s.Sc.name ^ ")") Sc.all))))
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
  let mailbox =
    Arg.(
      value
      & opt (enum [ ("qoq", `Qoq); ("direct", `Direct) ]) `Qoq
      & info [ "mailbox" ] ~docv:"MAILBOX"
          ~doc:
            "Handler communication structure: $(b,qoq) (queue-of-queues, \
             Fig. 4) or $(b,direct) (lock + single request queue, Fig. 2).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the scenario's merged event trace as Chrome trace-event \
             JSON (loadable in chrome://tracing or ui.perfetto.dev).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the traced scenarios, print each walkthrough with its \
          counters, histograms and event tracks, and replay the event rings \
          through the semantics' conformance automaton; non-zero exit on \
          any violation or dropped event")
    Term.(const check_run $ scenario $ break_flag $ domains $ mailbox $ out)

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
            check_cmd;
            node_cmd;
            remote_cmd;
            serve_cmd;
            lang_cmd;
          ]))
