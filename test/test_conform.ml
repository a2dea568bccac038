(* Differential tests between the operational semantics and the real
   runtime, glued by the conformance bridge (Qs_conform):

   - every traced run — including the timeout, shed and poison
     scenarios — replays through the semantics' conformance automaton
     with zero violations, partitioned per (processor, registration);
   - the runtime's observable trace (the order in which actions touch a
     handler's state) is a member of the trace set the explorer
     enumerates for the corresponding semantics program;
   - merged multi-client streams are checked soundly (the partitioning
     bugfix), unattributed and truncated streams are rejected, and a
     hand-broken trace is flagged;
   - every scenario of `qs check` conforms on both mailboxes. *)

module R = Scoop.Runtime
module Reg = Scoop.Registration
module Cfg = Scoop.Config
module T = Scoop.Trace
module S = Qs_sched.Sched
module E = Qs_semantics.Explore

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let traced ?(domains = 2) config workload =
  let sink = Qs_obs.Sink.create () in
  R.run ~domains ~config ~obs:sink (fun rt -> workload rt);
  T.of_sink sink

let assert_conforms name tr =
  match Qs_conform.check_trace tr with
  | Error e ->
    Alcotest.failf "%s: %s" name (Format.asprintf "%a" Qs_conform.pp_error e)
  | Ok rep ->
    if rep.Qs_conform.violations <> [] then
      Alcotest.failf "%s: %s" name
        (Format.asprintf "%a" Qs_conform.pp_report rep)

(* The explorer's complete trace set for a semantics program, projected
   on handler x.  Fails loudly if the enumeration was truncated — a
   partial set would make the membership check vacuous. *)
let semantics_traces program =
  let traces, truncated =
    E.observable_traces Qs_semantics.Step.qs program
      ~filter:(E.on_handler Qs_semantics.Examples.x)
  in
  check_bool "semantics enumeration complete" false truncated;
  traces

let assert_member name observed allowed =
  if not (List.mem observed allowed) then
    Alcotest.failf "%s: runtime trace [%s] not among the %d semantics traces"
      name
      (String.concat "; " observed)
      (List.length allowed)

let has_kind tr k =
  List.exists (fun (e : T.event) -> e.T.kind = k) (T.events tr)

(* -- fig1 across the mailbox presets ------------------------------------------ *)

(* The runtime analogue of Fig. 1: two concurrent clients against one
   handler, one logging [foo]/[bar1] around a local computation, the
   other logging [bar2] and querying [baz].  Guarantee 2 (registrations
   do not interleave) pins the observable trace to the two orders the
   paper predicts — under every mailbox/optimization preset. *)
let fig1_differential (preset_name, config) () =
  let allowed = semantics_traces Qs_semantics.Examples.fig1 in
  let acts = ref [] in
  let tr =
    traced config (fun rt ->
      let h = R.processor rt in
      let latch = Qs_sched.Latch.create 2 in
      S.spawn (fun () ->
        R.separate rt h (fun reg ->
          Reg.call reg (fun () -> acts := "foo" :: !acts);
          S.sleep 0.005 (* long_comp *);
          Reg.call reg (fun () -> acts := "bar1" :: !acts));
        Qs_sched.Latch.count_down latch);
      S.spawn (fun () ->
        R.separate rt h (fun reg ->
          Reg.call reg (fun () -> acts := "bar2" :: !acts);
          ignore (Reg.query reg (fun () -> acts := "baz" :: !acts)));
        Qs_sched.Latch.count_down latch);
      Qs_sched.Latch.wait latch)
  in
  assert_conforms preset_name tr;
  assert_member preset_name (List.rev !acts) allowed

let presets =
  [
    ("none", Cfg.none);
    ("dynamic", Cfg.dynamic);
    ("static", Cfg.static_);
    ("qoq", Cfg.qoq);
    ("all", Cfg.all);
  ]

(* -- timeout ------------------------------------------------------------------ *)

let test_timeout_differential () =
  (* The runtime analogue of Examples.timeout_call, in the packaged
     query flavour: a timed-out packaged query abandons only the
     rendezvous — the logged request still executes handler-side, so
     the observable trace is the semantics' single trace
     ["work"; "probe"] even on the timeout path. *)
  let acts = ref [] in
  let tr =
    traced
      Cfg.(all |> with_client_query false)
      (fun rt ->
        let h = R.processor rt in
        R.separate rt h (fun reg ->
          Reg.call reg (fun () ->
            S.sleep 0.1;
            acts := "work" :: !acts);
          match Reg.query ~timeout:0.02 reg (fun () -> acts := "probe" :: !acts) with
          | () -> Alcotest.fail "wedged query must time out"
          | exception Scoop.Timeout -> ()))
  in
  (* the runtime has quiesced: the abandoned query has drained *)
  assert_conforms "timeout" tr;
  check_bool "a timeout was recorded" true (has_kind tr T.Request_timeout);
  assert_member "timeout" (List.rev !acts)
    (semantics_traces Qs_semantics.Examples.timeout_call)

(* -- shed --------------------------------------------------------------------- *)

let test_shed_differential () =
  (* The runtime analogue of Examples.shed_overload: a gate call and
     three more against a handler bounded at one pending request under
     [`Shed_oldest].  The slow gate holds the handler while the flood
     logs, so some of the oldest calls are shed; whatever the timing,
     the surviving execution order must be one of the eight traces the
     explorer enumerates. *)
  let allowed = semantics_traces Qs_semantics.Examples.shed_overload in
  let acts = ref [] in
  let tr =
    traced
      Cfg.(all |> with_bound 1 |> with_overflow `Shed_oldest)
      (fun rt ->
        let h = R.processor rt in
        try
          R.separate rt h (fun reg ->
            Reg.call reg (fun () ->
              S.sleep 0.05;
              acts := "gate" :: !acts);
            Reg.call reg (fun () -> acts := "a1" :: !acts);
            Reg.call reg (fun () -> acts := "a2" :: !acts);
            Reg.call reg (fun () -> acts := "a3" :: !acts))
        with Scoop.Handler_failure (_, Scoop.Overloaded _) -> ())
  in
  assert_conforms "shed" tr;
  check_bool "some request was shed" true (has_kind tr T.Request_shed);
  assert_member "shed" (List.rev !acts) allowed

let test_shed_pipelined () =
  (* A pipelined query shed from the backlog: client A's query waits
     behind A's slow call, and client B's call arrives past the bound of
     one, so the handler pays the debt with A's query.  Forcing the
     rejected promise proves nothing was drained, so it must not count
     as a sync: A's next query syncs for real and the trace replays
     clean (an elided sync there would be a violation). *)
  let synced_after_shed = ref true in
  let tr =
    traced ~domains:1
      Cfg.(all |> with_bound 1 |> with_overflow `Shed_oldest)
      (fun rt ->
        let h = R.processor rt in
        let started = Atomic.make false in
        let issued = Qs_sched.Ivar.create () in
        let flooded = Qs_sched.Ivar.create () in
        S.spawn (fun () ->
          Qs_sched.Ivar.read issued;
          R.separate rt h (fun reg ->
            Reg.call reg (fun () -> ());
            Qs_sched.Ivar.fill flooded ()));
        R.separate rt h (fun reg ->
          Reg.call reg (fun () ->
            Atomic.set started true;
            S.sleep 0.05);
          while not (Atomic.get started) do
            S.yield ()
          done;
          let p = Reg.query_async reg (fun () -> 0) in
          Qs_sched.Ivar.fill issued ();
          Qs_sched.Ivar.read flooded;
          (match Scoop.Promise.await p with
          | (_ : int) -> Alcotest.fail "expected the query to be shed"
          | exception Scoop.Overloaded _ -> ());
          synced_after_shed := Reg.is_synced reg;
          ignore (Reg.query reg (fun () -> 0) : int)))
  in
  assert_conforms "shed pipelined" tr;
  check_bool "the query was shed" true (has_kind tr T.Query_shed);
  check_bool "the rejected force did not sync" false !synced_after_shed;
  check_bool "no sync elided" false (has_kind tr T.Sync_elided)

(* -- poison ------------------------------------------------------------------- *)

let test_poison_differential () =
  (* The runtime analogue of Examples.poison_probe: wedge, a failing
     call, then a packaged query.  Every run executes wedge and probe
     (the handler survives the failure; the packaged probe runs before
     the poison surfaces) and delivers the failure at the query's sync
     point. *)
  let acts = ref [] in
  let tr =
    traced
      Cfg.(all |> with_client_query false)
      (fun rt ->
        let h = R.processor rt in
        (try
           R.separate rt h (fun reg ->
             Reg.call reg (fun () -> acts := "wedge" :: !acts);
             Reg.call reg (fun () -> failwith "boom");
             ignore (Reg.query reg (fun () -> acts := "probe" :: !acts)));
           Alcotest.fail "the query's sync point must surface the poison"
         with Scoop.Handler_failure (_, Failure _) -> ());
        (* the handler survived: a fresh registration still serves *)
        R.separate rt h (fun reg -> ignore (Reg.query reg (fun () -> ()))))
  in
  assert_conforms "poison" tr;
  check_bool "the poison was recorded" true (has_kind tr T.Registration_poisoned);
  assert_member "poison" (List.rev !acts)
    (semantics_traces Qs_semantics.Examples.poison_probe)

(* -- merged multi-client streams (the partitioning bugfix) -------------------- *)

let ev =
  let seq = ref 0 in
  fun at proc client kind ->
    incr seq;
    { T.at; T.proc; T.client; T.seq = !seq; T.kind }

let test_partitioning_soundness () =
  (* Two clients merged on one processor: client 2 elides a sync while
     client 1 has just logged.  Per registration both streams are legal;
     fed unpartitioned into the automaton (as the old bench probe did),
     client 1's log watermark leaks into client 2's stream and the
     elision is flagged — a phantom violation. *)
  let events =
    [
      ev 0.0 0 2 T.Reserved;
      ev 0.1 0 2 T.Call_logged;
      ev 0.2 0 2 (T.Call_executed 0.01);
      ev 0.3 0 2 (T.Sync_round_trip 0.01);
      ev 0.4 0 1 T.Reserved;
      ev 0.5 0 1 T.Call_logged;
      ev 0.6 0 2 T.Sync_elided;
      ev 0.7 0 1 (T.Call_executed 0.01);
      ev 0.8 0 1 (T.Sync_round_trip 0.01);
    ]
  in
  (match Qs_conform.check_events events with
  | Error e ->
    Alcotest.failf "partitioned check rejected: %s"
      (Format.asprintf "%a" Qs_conform.pp_error e)
  | Ok rep ->
    check_int "two streams" 2 (List.length rep.Qs_conform.streams);
    check_int "no violations once partitioned" 0
      (List.length rep.Qs_conform.violations));
  (* the merged stream really is unsound: the same events fed through
     the raw automaton (ignoring attribution) report the phantom *)
  let module Rp = Qs_semantics.Replay in
  let merged =
    List.filter_map
      (fun (e : T.event) -> Qs_conform.event_of_kind e.T.kind ~proc:e.T.proc)
      events
  in
  check_bool "unpartitioned check reports a phantom violation" true
    (Rp.check merged <> Ok ())

let test_unattributed_rejected () =
  let events =
    [ ev 0.0 0 1 T.Reserved; ev 0.1 0 0 T.Call_logged ] (* client 0 *)
  in
  match Qs_conform.check_events events with
  | Error (Qs_conform.Unattributed { proc; kind; _ }) ->
    check_int "offending processor" 0 proc;
    check_bool "offending kind" true (kind = T.Call_logged)
  | Error e ->
    Alcotest.failf "wrong rejection: %s"
      (Format.asprintf "%a" Qs_conform.pp_error e)
  | Ok _ -> Alcotest.fail "unattributed stream must be rejected"

let test_skipped_kinds_counted () =
  (* failure/rejection events have no replay meaning: observed, not
     checked, and never a cause for rejection even unattributed *)
  let events =
    [
      ev 0.0 0 1 T.Reserved;
      ev 0.1 0 0 T.Handler_failed;
      ev 0.2 0 0 T.Promise_rejected;
    ]
  in
  match Qs_conform.check_events events with
  | Ok rep ->
    check_int "checked" 1 rep.Qs_conform.events;
    check_int "skipped" 2 rep.Qs_conform.skipped
  | Error _ -> Alcotest.fail "skippable kinds must not cause rejection"

let test_broken_trace_flagged () =
  (* A real traced run, then a phantom execution appended to an existing
     registration stream: the checker must report it, with the ring
     sequence number pointing at the injected event. *)
  let tr =
    traced Cfg.all (fun rt ->
      let h = R.processor rt in
      R.separate rt h (fun reg ->
        Reg.call reg (fun () -> ());
        ignore (Reg.query reg (fun () -> 0))))
  in
  let rep =
    match Qs_conform.check_trace tr with
    | Ok r -> r
    | Error e ->
      Alcotest.failf "clean run rejected: %s"
        (Format.asprintf "%a" Qs_conform.pp_error e)
  in
  check_int "clean run has no violations" 0
    (List.length rep.Qs_conform.violations);
  let s = List.hd rep.Qs_conform.streams in
  T.record tr ~proc:s.Qs_conform.st_proc ~client:s.Qs_conform.st_client
    (T.Call_executed 0.);
  match Qs_conform.check_trace tr with
  | Ok broken ->
    (match broken.Qs_conform.violations with
    | [ v ] ->
      check_int "violation on the injected stream" s.Qs_conform.st_client
        v.Qs_conform.v_client;
      check_bool "ring seq points at the appended event" true
        (v.Qs_conform.v_seq > 0)
    | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs))
  | Error e ->
    Alcotest.failf "broken trace rejected instead of flagged: %s"
      (Format.asprintf "%a" Qs_conform.pp_error e)

let test_truncated_trace_rejected () =
  (* 50 call+query blocks overflow an 8-slot ring: the lost prefix could
     hide a violation (or fake one), so the gate must not pass it. *)
  let sink = Qs_obs.Sink.create ~capacity:8 () in
  R.run ~domains:1 ~config:Cfg.all ~obs:sink (fun rt ->
    let h = R.processor rt in
    for _ = 1 to 50 do
      R.separate rt h (fun reg ->
        Reg.call reg (fun () -> ());
        ignore (Reg.query reg (fun () -> 0) : int))
    done);
  let verdict = Qs_conform.check_trace (T.of_sink sink) in
  check_bool "a truncated trace is no pass" false (Qs_conform.ok verdict);
  match verdict with
  | Error (Qs_conform.Truncated { dropped }) ->
    check_int "every lost event counted" (Qs_obs.Sink.dropped sink) dropped
  | _ -> Alcotest.fail "expected a Truncated verdict"

(* -- the scenario table of `qs check` ----------------------------------------- *)

(* Every scenario conforms on both mailboxes, loses no event to ring
   overflow, and its --break negative control is flagged.  Also at one
   domain, the schedule of `qs check --domains 1`: every scenario runs
   there, none is skipped. *)
let scenario_conforms ?(domains = 2) (sc : Qs_scenarios.Scenario.t) mailbox
    () =
  let module Sc = Qs_scenarios.Scenario in
  let o = Sc.run ~domains ~mailbox sc in
  check_int "events dropped" 0 (Qs_obs.Sink.dropped o.Sc.sink);
  if not (Qs_conform.ok o.Sc.verdict) then
    Alcotest.failf "%s: %s" sc.Sc.name
      (match o.Sc.verdict with
      | Ok rep -> Format.asprintf "%a" Qs_conform.pp_report rep
      | Error e -> Format.asprintf "%a" Qs_conform.pp_error e);
  match Sc.phantom o with
  | Some (Ok broken) when broken.Qs_conform.violations <> [] -> ()
  | Some _ | None -> Alcotest.fail "phantom execution not flagged"

(* -- random programs conform (property) --------------------------------------- *)

(* Small random concurrent programs over the real runtime: a mailbox
   preset, optional bound/overflow, optional deadlines, 1–3 client
   fibers and a random op mix per client.  Whatever the interleaving,
   timeouts and sheds included, the recorded trace must replay with
   zero violations. *)
let gen_runtime_program =
  let open QCheck2.Gen in
  let* preset = oneofl [ "none"; "dynamic"; "static"; "qoq"; "all" ] in
  let* bounded = bool in
  let* deadline = oneofl [ None; Some 0.004 ] in
  let* clients = int_range 1 3 in
  let* ops =
    list_size (int_range 2 6)
      (oneofl [ `Call; `Slow_call; `Query; `Pipelined; `Failing_call ])
  in
  return (preset, bounded, deadline, clients, ops)

let print_runtime_program (preset, bounded, deadline, clients, ops) =
  Printf.sprintf "preset=%s bounded=%b deadline=%s clients=%d ops=[%s]" preset
    bounded
    (match deadline with None -> "-" | Some d -> string_of_float d)
    clients
    (String.concat ";"
       (List.map
          (function
            | `Call -> "call"
            | `Slow_call -> "slow"
            | `Query -> "query"
            | `Pipelined -> "pipelined"
            | `Failing_call -> "fail")
          ops))

let run_random_program (preset, bounded, deadline, clients, ops) =
  let config =
    match preset with
    | "none" -> Cfg.none
    | "dynamic" -> Cfg.dynamic
    | "static" -> Cfg.static_
    | "qoq" -> Cfg.qoq
    | _ -> Cfg.all
  in
  let config =
    if bounded then Cfg.(config |> with_bound 2 |> with_overflow `Shed_oldest)
    else config
  in
  let sink = Qs_obs.Sink.create () in
  R.run ~domains:2 ~config ~obs:sink (fun rt ->
    let h = R.processor rt in
    let r = ref 0 in
    let latch = Qs_sched.Latch.create clients in
    for _ = 1 to clients do
      S.spawn (fun () ->
        (try
           R.separate rt h (fun reg ->
             List.iter
               (fun op ->
                 try
                   match op with
                   | `Call -> Reg.call reg (fun () -> incr r)
                   | `Slow_call -> Reg.call reg (fun () -> S.sleep 0.002)
                   | `Failing_call -> Reg.call reg (fun () -> failwith "boom")
                   | `Query ->
                     ignore (Reg.query ?timeout:deadline reg (fun () -> !r))
                   | `Pipelined ->
                     let p = Reg.query_async reg (fun () -> !r) in
                     ignore (Scoop.Promise.await ?timeout:deadline p : int)
                 with
                 | Scoop.Timeout -> ()
                 (* A shed rendezvous delivers the failure at the query /
                    await site as a raw [Overloaded] (only async calls
                    poison and defer to block exit). *)
                 | Scoop.Overloaded _ -> ())
               ops)
         with Scoop.Handler_failure _ -> ());
        Qs_sched.Latch.count_down latch)
    done;
    Qs_sched.Latch.wait latch);
  Qs_conform.check_trace (T.of_sink sink)

let prop_random_runs_conform =
  QCheck2.Test.make ~count:25
    ~name:"random traced runs replay with zero violations"
    ~print:print_runtime_program gen_runtime_program (fun program ->
      match run_random_program program with
      | Ok rep -> rep.Qs_conform.violations = []
      | Error _ -> false)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "qs_conform"
    [
      ( "fig1 differential",
        List.map
          (fun p ->
            Alcotest.test_case (fst p) `Quick (fig1_differential p))
          presets );
      ( "failure differential",
        [
          Alcotest.test_case "timeout" `Quick test_timeout_differential;
          Alcotest.test_case "shed" `Quick test_shed_differential;
          Alcotest.test_case "poison" `Quick test_poison_differential;
          Alcotest.test_case "shed pipelined query" `Quick test_shed_pipelined;
        ] );
      ( "partitioning",
        [
          Alcotest.test_case "merged streams partitioned soundly" `Quick
            test_partitioning_soundness;
          Alcotest.test_case "unattributed streams rejected" `Quick
            test_unattributed_rejected;
          Alcotest.test_case "skipped kinds counted" `Quick
            test_skipped_kinds_counted;
          Alcotest.test_case "hand-broken trace flagged" `Quick
            test_broken_trace_flagged;
          Alcotest.test_case "truncated trace rejected" `Quick
            test_truncated_trace_rejected;
        ] );
      ( "scenarios",
        List.concat_map
          (fun (sc : Qs_scenarios.Scenario.t) ->
            List.map
              (fun (mname, m) ->
                Alcotest.test_case
                  (sc.Qs_scenarios.Scenario.name ^ " " ^ mname)
                  `Quick (scenario_conforms sc m))
              [ ("qoq", `Qoq); ("direct", `Direct) ])
          Qs_scenarios.Scenario.all );
      ( "one domain",
        List.map
          (fun (sc : Qs_scenarios.Scenario.t) ->
            Alcotest.test_case sc.Qs_scenarios.Scenario.name `Quick
              (scenario_conforms ~domains:1 sc `Qoq))
          Qs_scenarios.Scenario.all );
      ("properties", [ qc prop_random_runs_conform ]);
    ]
