(* Tests for the qs_obs observability substrate: the counter registry,
   the per-domain bounded event rings (multi-domain retention and
   counted overflow), the Chrome trace export, and the Stats/Trace
   compatibility views built on top of it. *)

module Counter = Qs_obs.Counter
module Sink = Qs_obs.Sink
module Chrome = Qs_obs.Chrome
module Json = Qs_obs.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* -- counters ---------------------------------------------------------------- *)

let test_counter_basics () =
  let r = Counter.registry () in
  let a = Counter.make r "a" in
  let b = Counter.make r "b" in
  Counter.incr a;
  Counter.add b 5;
  Counter.incr b;
  check_int "a" 1 (Counter.get a);
  check_int "b" 6 (Counter.get b);
  Alcotest.(check (list (pair string int)))
    "snapshot in registration order"
    [ ("a", 1); ("b", 6) ]
    (Counter.snapshot r)

let test_counter_duplicate_rejected () =
  let r = Counter.registry () in
  let _a = Counter.make r "dup" in
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Qs_obs.Counter.make: duplicate counter dup") (fun () ->
      ignore (Counter.make r "dup" : Counter.t))

let test_counter_diff () =
  let r = Counter.registry () in
  let a = Counter.make r "a" in
  let before = Counter.snapshot r in
  (* A counter registered after the first snapshot diffs against 0. *)
  let b = Counter.make r "b" in
  Counter.add a 3;
  Counter.add b 7;
  let d = Counter.diff (Counter.snapshot r) before in
  check_int "a delta" 3 (Counter.value d "a");
  check_int "b counts from zero" 7 (Counter.value d "b");
  check_int "absent name is zero" 0 (Counter.value d "missing")

let test_counter_multi_domain () =
  let r = Counter.registry () in
  let c = Counter.make r "hits" in
  let per = 10_000 and domains = 4 in
  let ds =
    List.init domains (fun _ ->
      Domain.spawn (fun () ->
        for _ = 1 to per do
          Counter.incr c
        done))
  in
  List.iter Domain.join ds;
  check_int "no lost increments" (per * domains) (Counter.get c)

(* -- histograms -------------------------------------------------------------- *)

module H = Qs_obs.Histogram

let test_histogram_basics () =
  let r = H.registry () in
  let lat = H.make r "lat" in
  let other = H.make r "other" in
  List.iter (H.record lat) [ 0; 1; 31; 32; 1000; 1_000_000 ];
  H.record other 5;
  let d = H.dist r "lat" in
  check_int "total" 6 d.H.total;
  check_int "sum" (0 + 1 + 31 + 32 + 1000 + 1_000_000) d.H.sum;
  check_int "no overflow" 0 d.H.overflow;
  (* Exact region: values below [sub_count] land in their own bucket. *)
  check_int "p50 within a bucket" (H.bound_of_index (H.index_of 31))
    (H.quantile d 0.5);
  check_int "q=1 bounds the max" (H.bound_of_index (H.index_of 1_000_000))
    (H.quantile d 1.0);
  check_bool "registration order" true
    (List.map fst (H.snapshot r) = [ "lat"; "other" ]);
  (* Empty and edge inputs answer, not raise. *)
  check_int "empty quantile" 0 (H.quantile H.zero 0.99);
  check_float "empty mean" 0.0 (H.mean H.zero)

let test_histogram_duplicate_rejected () =
  let r = H.registry () in
  let _h = H.make r "dup" in
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Qs_obs.Histogram.make: duplicate histogram dup")
    (fun () -> ignore (H.make r "dup" : H.t))

let test_histogram_overflow_and_clamp () =
  let r = H.registry () in
  let h = H.make r "edge" in
  H.record h (-5);
  H.record h H.max_value;
  H.record h (H.max_value + 1);
  H.record h max_int;
  let d = H.dist r "edge" in
  check_int "negatives clamp into bucket 0" 1 d.H.counts.(0);
  check_int "max_value still bucketed" 1 d.H.counts.(H.index_of H.max_value);
  check_int "beyond max_value counted as overflow" 2 d.H.overflow;
  check_int "overflow outside total" 2 d.H.total

let test_bucket_roundtrip () =
  (* Every value must fall inside its bucket's bounds, and the inclusive
     upper bound must map back to the same bucket. *)
  let check_v v =
    let i = H.index_of v in
    let hi = H.bound_of_index i in
    check_bool (Printf.sprintf "v=%d within bound" v) true (v <= hi);
    check_int (Printf.sprintf "bound of %d in same bucket" v) i (H.index_of hi);
    check_bool
      (Printf.sprintf "relative error at %d" v)
      true
      (hi - v <= max 1 (v / H.sub_count * 2))
  in
  for v = 0 to 4096 do
    check_v v
  done;
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 10_000 do
    check_v (Random.State.full_int st H.max_value)
  done;
  check_v H.max_value;
  check_int "last bucket is the top" (H.buckets - 1) (H.index_of H.max_value)

(* Build a dist by recording into a scratch registry. *)
let dist_of_values vs =
  let r = H.registry () in
  let h = H.make r "x" in
  List.iter (H.record h) vs;
  H.dist r "x"

let dist_equal a b =
  a.H.counts = b.H.counts && a.H.total = b.H.total && a.H.sum = b.H.sum
  && a.H.overflow = b.H.overflow

(* A dist keeps its buckets only up to the last non-empty one, so a
   snapshot costs its occupied range, not the whole bucket scheme. *)
let test_histogram_trimmed () =
  check_int "empty dist has no buckets" 0
    (Array.length (dist_of_values []).H.counts);
  let d = dist_of_values [ 3; 1000 ] in
  check_int "buckets end at the highest sample" (H.index_of 1000 + 1)
    (Array.length d.H.counts);
  check_int "quantile 1.0 still bounds the maximum"
    (H.bound_of_index (H.index_of 1000))
    (H.quantile d 1.0)

let value_gen =
  (* Mix magnitudes so both the exact and the log-linear regions get
     exercised, plus the occasional overflow. *)
  QCheck2.Gen.(
    oneof
      [
        int_bound (H.sub_count - 1);
        int_bound 100_000;
        map (fun v -> v * 1_000_000) (int_bound 4_000_000);
        return (H.max_value + 1);
      ])

let prop_merge_assoc_comm =
  QCheck2.Test.make ~count:200
    ~name:"histogram merge is associative and commutative"
    QCheck2.Gen.(
      triple
        (list_size (int_bound 50) value_gen)
        (list_size (int_bound 50) value_gen)
        (list_size (int_bound 50) value_gen))
    (fun (xs, ys, zs) ->
      let a = dist_of_values xs
      and b = dist_of_values ys
      and c = dist_of_values zs in
      dist_equal (H.merge a (H.merge b c)) (H.merge (H.merge a b) c)
      && dist_equal (H.merge a b) (H.merge b a)
      && dist_equal (H.merge a H.zero) a
      (* ...and merging partitions equals recording everything at once. *)
      && dist_equal (H.merge a (H.merge b c))
           (dist_of_values (xs @ ys @ zs)))

let prop_quantile_vs_oracle =
  QCheck2.Test.make ~count:200
    ~name:"quantiles match the exact oracle within one bucket"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 200)
           (oneof [ int_bound (H.sub_count - 1); int_bound 50_000_000 ]))
        (oneofl [ 0.5; 0.9; 0.99; 0.999; 1.0 ]))
    (fun (vs, q) ->
      let d = dist_of_values vs in
      let sorted = List.sort Int.compare vs in
      let n = List.length sorted in
      let rank =
        Int.max 1 (Int.min n (int_of_float (Float.ceil (q *. float_of_int n))))
      in
      let exact = List.nth sorted (rank - 1) in
      let est = H.quantile d q in
      (* The estimate is the inclusive upper bound of the exact value's
         bucket: never below it, high by at most one bucket width. *)
      est >= exact && est - exact <= Int.max 1 (exact / H.sub_count * 2))

let test_histogram_multi_domain () =
  (* Concurrent recording with snapshots racing the writers: the final
     quiesced read accounts for every sample (total + overflow), and no
     racy mid-snapshot can exceed what was ever recorded. *)
  let r = H.registry () in
  let h = H.make r "race" in
  let per = 25_000 and domains = 4 in
  let mid_over = Atomic.make false in
  let writers =
    List.init domains (fun d ->
      Domain.spawn (fun () ->
        let st = Random.State.make [| d |] in
        for _ = 1 to per do
          let v =
            if Random.State.int st 100 = 0 then H.max_value + 1
            else Random.State.int st 1_000_000
          in
          H.record h v
        done))
  in
  let reader =
    Domain.spawn (fun () ->
      for _ = 1 to 50 do
        let d = H.read h in
        if d.H.total + d.H.overflow > per * domains then
          Atomic.set mid_over true;
        Domain.cpu_relax ()
      done)
  in
  List.iter Domain.join writers;
  Domain.join reader;
  let d = H.read h in
  check_int "quiesced read is exact" (per * domains)
    (d.H.total + d.H.overflow);
  check_bool "overflow present" true (d.H.overflow > 0);
  check_int "counts sum to total" d.H.total
    (Array.fold_left ( + ) 0 d.H.counts);
  check_bool "no mid-snapshot overcount" false (Atomic.get mid_over)

(* -- event rings ------------------------------------------------------------- *)

let test_sink_retains_below_capacity () =
  (* Hammer one sink from several domains; the total stays below each
     ring's capacity, so no event may be lost and none counted dropped. *)
  let capacity = 4096 in
  let sink = Sink.create ~capacity () in
  let per = 500 and domains = 4 in
  let ds =
    List.init domains (fun d ->
      Domain.spawn (fun () ->
        for i = 1 to per do
          Sink.instant sink ~cat:"test" ~name:"hit" ~track:d ~arg:i ()
        done))
  in
  List.iter Domain.join ds;
  check_int "all events retained" (per * domains) (Sink.recorded sink);
  check_int "none dropped" 0 (Sink.dropped sink);
  check_int "events lists them all" (per * domains)
    (List.length (Sink.events sink));
  (* Per-track accounting survives the merge. *)
  List.iter
    (fun d ->
      let n =
        List.length
          (List.filter
             (fun (e : Sink.event) -> e.track = d)
             (Sink.events sink))
      in
      check_int (Printf.sprintf "track %d complete" d) per n)
    (List.init domains Fun.id)

let test_sink_overflow_counted () =
  (* One domain, tiny ring: overflow must be counted, not silent. *)
  let capacity = 64 in
  let sink = Sink.create ~capacity () in
  let total = 1000 in
  for i = 1 to total do
    Sink.instant sink ~cat:"test" ~name:"hit" ~track:0 ~arg:i ()
  done;
  check_int "ring holds capacity" capacity (Sink.recorded sink);
  check_int "overflow counted" (total - capacity) (Sink.dropped sink);
  (* Wraparound keeps the newest events: the retained args are the last
     [capacity] ones. *)
  let args =
    List.map (fun (e : Sink.event) -> e.arg) (Sink.events sink)
    |> List.sort Int.compare
  in
  check_int "oldest retained arg" (total - capacity + 1) (List.hd args);
  check_int "newest retained arg" total (List.nth args (capacity - 1))

let test_sink_events_sorted () =
  let sink = Sink.create () in
  let ds =
    List.init 4 (fun d ->
      Domain.spawn (fun () ->
        for _ = 1 to 200 do
          Sink.instant sink ~cat:"test" ~name:"hit" ~track:d ()
        done))
  in
  List.iter Domain.join ds;
  let rec monotone = function
    | (a : Sink.event) :: (b : Sink.event) :: rest ->
      a.ts <= b.ts && (a.ts < b.ts || a.seq < b.seq) && monotone (b :: rest)
    | _ -> true
  in
  check_bool "merged chronologically, seq breaks ties" true
    (monotone (Sink.events sink))

let test_sink_span () =
  let sink = Sink.create () in
  let v =
    Sink.span sink ~cat:"test" ~name:"work" ~track:3 (fun () ->
      Unix.sleepf 0.002;
      17)
  in
  check_int "span returns the thunk's value" 17 v;
  (match Sink.events sink with
  | [ e ] ->
    check_bool "positive duration" true (e.dur >= 0.001);
    check_int "track" 3 e.track
  | es -> Alcotest.failf "expected 1 event, got %d" (List.length es));
  (* The span records even when the thunk raises. *)
  (try
     Sink.span sink ~cat:"test" ~name:"boom" ~track:3 (fun () ->
       failwith "boom")
   with Failure _ -> ());
  check_int "exceptional span recorded" 2 (Sink.recorded sink)

let test_sink_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Qs_obs.Sink.create: capacity must be >= 1") (fun () ->
      ignore (Sink.create ~capacity:0 () : Sink.t))

(* -- chrome export ----------------------------------------------------------- *)

let test_chrome_export () =
  let sink = Sink.create () in
  Sink.instant sink ~cat:"sched" ~name:"steal" ~track:1 ();
  Sink.complete sink ~cat:"core" ~name:"batch" ~track:0 ~arg:4 ~ts:0.001
    ~dur:0.002 ();
  let s = Chrome.to_string ~counters:[ ("calls", 42) ] sink in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "has traceEvents" true (contains "\"traceEvents\"");
  check_bool "instant phase" true (contains "\"ph\":\"i\"");
  check_bool "complete phase" true (contains "\"ph\":\"X\"");
  check_bool "per-layer process metadata" true (contains "process_name");
  check_bool "embedded counters" true (contains "\"calls\":42");
  check_bool "overflow is reported" true (contains "\"droppedEvents\":0")

let test_json_escaping () =
  Alcotest.(check string)
    "escapes specials" "{\"k\\\"\\n\":\"a\\\\b\"}"
    (Json.to_string (Json.Obj [ ("k\"\n", Json.String "a\\b") ]));
  Alcotest.(check string)
    "non-finite floats become 0" "[0,0]"
    (Json.to_string (Json.List [ Json.Float nan; Json.Float infinity ]))

(* -- Stats: one name per counter ------------------------------------------- *)

let test_stats_diff_and_mean_batch () =
  let st = Scoop.Stats.create () in
  let value = Qs_obs.Counter.value in
  let before = Scoop.Stats.assoc st in
  (* Zero-wakeup edge case: mean batch must be 0, not a NaN/div-by-zero. *)
  check_float "mean batch with no wakeups" 0.0 (Scoop.Stats.mean_batch before);
  Qs_obs.Counter.add st.Scoop.Stats.handler_wakeups 4;
  Qs_obs.Counter.add st.Scoop.Stats.batched_requests 10;
  Qs_obs.Counter.incr st.Scoop.Stats.calls;
  let d = Qs_obs.Counter.diff (Scoop.Stats.assoc st) before in
  check_int "calls delta" 1 (value d "calls");
  check_int "untouched field delta" 0 (value d "queries");
  check_float "mean batch" 2.5 (Scoop.Stats.mean_batch d);
  (* The typed handle and the registry read the same counter. *)
  check_int "assoc view" 1 (value (Scoop.Stats.assoc st) "calls");
  check_int "handle view" 1 (Qs_obs.Counter.get st.Scoop.Stats.calls);
  (* Diffing a snapshot against itself is all zeros. *)
  let s = Scoop.Stats.assoc st in
  let z = Qs_obs.Counter.diff s s in
  check_int "self-diff wakeups" 0 (value z "handler_wakeups");
  check_float "self-diff mean batch" 0.0 (Scoop.Stats.mean_batch z)

let test_stats_counter_names () =
  (* Every counter field, in registration order: the field's name is
     the counter's registry name, so one name reaches a counter through
     the record, the registry and the bench JSON alike. *)
  let st = Scoop.Stats.create () in
  let fields =
    Scoop.Stats.
      [
        ("processors", st.processors);
        ("reservations", st.reservations);
        ("multi_reservations", st.multi_reservations);
        ("calls", st.calls);
        ("queries", st.queries);
        ("packaged_queries", st.packaged_queries);
        ("promises_created", st.promises_created);
        ("promises_fulfilled", st.promises_fulfilled);
        ("promises_ready_on_first_poll", st.promises_ready_on_first_poll);
        ("promises_forced_blocking", st.promises_forced_blocking);
        ("syncs_sent", st.syncs_sent);
        ("syncs_elided", st.syncs_elided);
        ("eve_lookups", st.eve_lookups);
        ("wait_retries", st.wait_retries);
        ("handler_wakeups", st.handler_wakeups);
        ("batched_requests", st.batched_requests);
        ("ends_drained", st.ends_drained);
        ("handler_failures", st.handler_failures);
        ("poisoned_registrations", st.poisoned_registrations);
        ("rejected_promises", st.rejected_promises);
        ("aborted_requests", st.aborted_requests);
        ("timer_arms", st.timer_arms);
        ("timeouts_fired", st.timeouts_fired);
        ("deadline_exceeded", st.deadline_exceeded);
        ("shed_requests", st.shed_requests);
        ("remote_requests", st.remote_requests);
        ("remote_replies", st.remote_replies);
        ("remote_failures", st.remote_failures);
      ]
  in
  List.iter
    (fun (field, c) ->
      Alcotest.(check string) ("name of " ^ field) field (Qs_obs.Counter.name c))
    fields;
  check_int "28 counters" 28 (List.length fields);
  Alcotest.(check (list string))
    "registry lists exactly the fields, in registration order"
    (List.map fst fields)
    (List.map fst (Scoop.Stats.assoc st))

let test_stats_overlap_ratio_region () =
  (* [overlap_ratio] reads a [Counter.diff] region as readily as the
     whole run: only the forces inside the region count. *)
  let st = Scoop.Stats.create () in
  let open Scoop.Stats in
  check_float "no forces yet" 0.0 (overlap_ratio (assoc st));
  Qs_obs.Counter.add st.promises_ready_on_first_poll 3;
  Qs_obs.Counter.add st.promises_forced_blocking 1;
  let before = assoc st in
  check_float "whole run so far" 0.75 (overlap_ratio before);
  Qs_obs.Counter.add st.promises_ready_on_first_poll 1;
  Qs_obs.Counter.add st.promises_forced_blocking 3;
  check_float "region" 0.25
    (overlap_ratio (Qs_obs.Counter.diff (assoc st) before));
  check_float "whole run" 0.5 (overlap_ratio (assoc st))

let test_stats_histogram_names () =
  (* The latency histograms keep their registry names and order: the
     bench JSON and the trace printouts key on them. *)
  let st = Scoop.Stats.create () in
  Alcotest.(check (list string))
    "histograms in registration order"
    [
      "call_local_ns";
      "query_local_ns";
      "pipelined_local_ns";
      "call_remote_ns";
      "query_remote_ns";
      "pipelined_remote_ns";
      "queue_wait_ns";
      "exec_ns";
    ]
    (List.map fst (Scoop.Stats.hist_assoc st))

(* -- Trace view over the sink ---------------------------------------------- *)

let test_trace_roundtrip_through_sink () =
  (* Record through the compat API, read back: kinds and durations
     survive the sink encoding, and [events] is oldest-first. *)
  let tr = Scoop.Trace.create () in
  Scoop.Trace.record tr ~proc:2 Scoop.Trace.Reserved;
  Scoop.Trace.record tr ~proc:2 Scoop.Trace.Call_logged;
  Scoop.Trace.record tr ~proc:2 (Scoop.Trace.Call_executed 0.005);
  Scoop.Trace.record tr ~proc:2 Scoop.Trace.Sync_elided;
  (match Scoop.Trace.events tr with
  | [ a; b; c; d ] ->
    check_bool "reserved first" true (a.Scoop.Trace.kind = Scoop.Trace.Reserved);
    check_bool "logged second" true
      (b.Scoop.Trace.kind = Scoop.Trace.Call_logged);
    (match c.Scoop.Trace.kind with
    | Scoop.Trace.Call_executed dur -> check_float "duration kept" 0.005 dur
    | _ -> Alcotest.fail "third event should be Call_executed");
    check_bool "elided last" true
      (d.Scoop.Trace.kind = Scoop.Trace.Sync_elided);
    check_bool "oldest first" true
      (a.Scoop.Trace.at <= b.Scoop.Trace.at
      && b.Scoop.Trace.at <= c.Scoop.Trace.at
      && c.Scoop.Trace.at <= d.Scoop.Trace.at)
  | es -> Alcotest.failf "expected 4 events, got %d" (List.length es));
  (* Foreign-layer events in the same sink are filtered out of the view. *)
  Sink.instant (Scoop.Trace.sink tr) ~cat:"sched" ~name:"steal" ~track:0 ();
  check_int "sched events invisible to Trace" 4
    (List.length (Scoop.Trace.events tr))

let test_trace_events_fixture () =
  (* Per-processor figures of an explicit event list, read straight off
     [Trace.events] by processor and kind. *)
  let open Scoop.Trace in
  let tr = create () in
  let r proc kind = record tr ~proc ~client:1 kind in
  r 0 Reserved;
  r 0 Call_logged;
  r 0 (Call_executed 0.010);
  r 0 Call_logged;
  r 0 (Call_executed 0.030);
  r 0 (Sync_round_trip 0.004);
  r 0 Sync_elided;
  r 1 Reserved;
  r 1 (Query_round_trip 0.002);
  let events = events tr in
  let of_proc p = List.filter (fun e -> e.proc = p) events in
  let count p pred = List.length (List.filter (fun e -> pred e.kind) (of_proc p)) in
  let durations p sel = List.filter_map (fun e -> sel e.kind) (of_proc p) in
  let executed = function Call_executed d -> Some d | _ -> None in
  let synced = function Sync_round_trip d -> Some d | _ -> None in
  let queried = function Query_round_trip d -> Some d | _ -> None in
  let mean = function
    | [] -> 0.0
    | ds -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)
  in
  check_int "all events kept" 9 (List.length events);
  check_bool "every event attributed to client 1" true
    (List.for_all (fun e -> e.client = 1) events);
  check_int "p0 reservations" 1 (count 0 (( = ) Reserved));
  check_int "p0 calls" 2 (count 0 (( = ) Call_logged));
  check_int "p0 latency count" 2 (List.length (durations 0 executed));
  check_float "p0 latency mean" 0.020 (mean (durations 0 executed));
  check_float "p0 latency max" 0.030
    (List.fold_left Float.max 0.0 (durations 0 executed));
  check_int "p0 syncs" 1 (List.length (durations 0 synced));
  check_float "p0 sync mean" 0.004 (mean (durations 0 synced));
  check_int "p0 elided" 1 (count 0 (( = ) Sync_elided));
  check_int "p1 reservations" 1 (count 1 (( = ) Reserved));
  check_int "p1 queries" 1 (List.length (durations 1 queried));
  check_float "p1 query mean" 0.002 (mean (durations 1 queried));
  check_int "p1 no calls" 0 (count 1 (( = ) Call_logged));
  check_int "p1 no executed calls" 0 (List.length (durations 1 executed))

(* -- whole-stack integration -------------------------------------------------- *)

let test_runtime_obs_three_layers () =
  (* One traced run must produce events from the scheduler, the handler
     and the client layers in the same sink. *)
  let sink = Sink.create () in
  Scoop.Runtime.run ~domains:2 ~obs:sink (fun rt ->
    let h = Scoop.Runtime.processor rt in
    let cell = Scoop.Shared.create h (ref 0) in
    for _ = 1 to 50 do
      Scoop.Runtime.separate rt h (fun reg ->
        Scoop.Shared.apply reg cell incr;
        ignore (Scoop.Shared.get reg cell (fun r -> !r) : int))
    done);
  let cats =
    List.sort_uniq String.compare
      (List.map (fun (e : Sink.event) -> e.cat) (Sink.events sink))
  in
  List.iter
    (fun layer ->
      check_bool (layer ^ " events present") true (List.mem layer cats))
    [ "sched"; "core"; "client" ];
  check_int "nothing dropped" 0 (Sink.dropped sink)

let () =
  Alcotest.run "qs_obs"
    [
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "duplicate rejected" `Quick
            test_counter_duplicate_rejected;
          Alcotest.test_case "diff" `Quick test_counter_diff;
          Alcotest.test_case "multi-domain increments" `Quick
            test_counter_multi_domain;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "duplicate rejected" `Quick
            test_histogram_duplicate_rejected;
          Alcotest.test_case "overflow and clamp" `Quick
            test_histogram_overflow_and_clamp;
          Alcotest.test_case "bucket roundtrip" `Quick test_bucket_roundtrip;
          Alcotest.test_case "trimmed to occupied buckets" `Quick
            test_histogram_trimmed;
          QCheck_alcotest.to_alcotest prop_merge_assoc_comm;
          QCheck_alcotest.to_alcotest prop_quantile_vs_oracle;
          Alcotest.test_case "multi-domain record vs snapshot" `Quick
            test_histogram_multi_domain;
        ] );
      ( "event rings",
        [
          Alcotest.test_case "retention below capacity" `Quick
            test_sink_retains_below_capacity;
          Alcotest.test_case "overflow counted" `Quick
            test_sink_overflow_counted;
          Alcotest.test_case "events sorted" `Quick test_sink_events_sorted;
          Alcotest.test_case "span" `Quick test_sink_span;
          Alcotest.test_case "bad capacity" `Quick test_sink_bad_capacity;
        ] );
      ( "chrome export",
        [
          Alcotest.test_case "structure" `Quick test_chrome_export;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
        ] );
      ( "compat views",
        [
          Alcotest.test_case "stats diff and mean batch" `Quick
            test_stats_diff_and_mean_batch;
          Alcotest.test_case "stats field names are registry names" `Quick
            test_stats_counter_names;
          Alcotest.test_case "stats overlap ratio over a region" `Quick
            test_stats_overlap_ratio_region;
          Alcotest.test_case "stats histogram names" `Quick
            test_stats_histogram_names;
          Alcotest.test_case "trace events fixture" `Quick
            test_trace_events_fixture;
          Alcotest.test_case "trace roundtrip through sink" `Quick
            test_trace_roundtrip_through_sink;
        ] );
      ( "integration",
        [
          Alcotest.test_case "three layers in one sink" `Quick
            test_runtime_obs_three_layers;
        ] );
    ]
