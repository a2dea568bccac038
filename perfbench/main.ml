(* The runtime benchmark: four workloads against the public API of the
   SCOOP/Qs runtime, each run in its own process on one scheduler domain.

     serve     open loop: Poisson arrivals at 10k/s and 30k/s, 20 us of
               busy service per request (the `qs serve` admission defaults)
     coord     closed loop: Table 2's five coordination tasks under `all`
     cowichan  closed loop: Table 1's six Cowichan tasks under `all`
     remote    closed loop: blocking and pipelined queries to an
               in-process node over a unix socket (the node takes a
               second domain)

   An untraced run (--trace 0) reports the end-to-end metrics.  A traced
   run (--trace 1) reports per-layer metrics: it stamps around the public
   calls it makes, the closures it submits stamp their own start and end,
   and it reads the counters and histograms the runtime already exports.
   It never attaches a runtime trace sink, because a sink sends calls down
   a different request path and a traced run would then measure another
   program.  Spans are kept in memory and written when the run ends.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  Any correctness failure
   exits 1 without printing it. *)

module R = Scoop.Runtime
module Reg = Scoop.Registration
module Sh = Scoop.Shared
module P = Scoop.Promise
module Sched = Qs_sched.Sched
module Latch = Qs_sched.Latch
module Hist = Qs_obs.Histogram
module Counter = Qs_obs.Counter
module B = Qs_benchmarks.Bench_types
module S = Pbstats
module Ba = Bigarray.Array1

let now = Qs_obs.Clock.now_ns

exception Incorrect of string

let incorrect fmt = Printf.ksprintf (fun s -> raise (Incorrect s)) fmt

(* Diagnostics go to standard output ahead of the result line. *)
let note fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

let ratio a b = if b = 0. then 0. else a /. b

(* Directory (inside the working copy) for the socket and the span file. *)
let work_dir = ".bench_build"

let ensure_work_dir () =
  try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* -- sample buffers --------------------------------------------------------- *)

(* Samples live off the OCaml heap, so the benchmark's own bookkeeping
   stays out of [heap_mb]; recording one is a store and an increment.
   Past [max_kept] samples a buffer keeps the latest ones. *)
type samples = {
  mutable n : int;
  mutable data : (int, Bigarray.int_elt, Bigarray.c_layout) Ba.t;
}

let max_kept = 1 lsl 21

let samples () = { n = 0; data = Ba.create Bigarray.int Bigarray.c_layout 0 }

let add b v =
  let cap = Ba.dim b.data in
  if b.n >= cap && cap < max_kept then begin
    let bigger =
      Ba.create Bigarray.int Bigarray.c_layout (min max_kept (max 4096 (2 * cap)))
    in
    Ba.blit b.data (Ba.sub bigger 0 cap);
    b.data <- bigger
  end;
  Ba.unsafe_set b.data (b.n land (max_kept - 1)) v;
  b.n <- b.n + 1

let sorted b =
  let a = Array.init (min b.n (Ba.dim b.data)) (Ba.unsafe_get b.data) in
  Array.sort compare a;
  a

(* -- probes of the traced run ----------------------------------------------- *)

let tracing = ref false

type probes = {
  enter : samples;  (** [Runtime.separate*] call to body start *)
  call : samples;  (** [Registration.call] / [Shared.apply] *)
  query : samples;  (** [Registration.query] / [Shared.get] round trip *)
  wake : samples;  (** last stamp in a query closure to the client resuming *)
  await : samples;  (** [Promise.await] *)
  sleep_late : samples;  (** [Sched.sleep] overshoot past an intended arrival *)
  out : samples;  (** remote: issue to closure start on the node *)
  node_exec : samples;  (** remote: closure start to end on the node *)
  back : samples;  (** remote: closure end to client resume *)
}

let pr =
  {
    enter = samples ();
    call = samples ();
    query = samples ();
    wake = samples ();
    await = samples ();
    sleep_late = samples ();
    out = samples ();
    node_exec = samples ();
    back = samples ();
  }

(* Spans of a request: a root ([Request]) and the layers it crossed, all
   under the request's id.  The latest [span_cap] spans are kept. *)
type layer = Request | Timer | Separate | Registration | Processor | Completion | Remote

let layer_name = function
  | Request -> "request"
  | Timer -> "timer"
  | Separate -> "separate"
  | Registration -> "registration"
  | Processor -> "processor"
  | Completion -> "completion"
  | Remote -> "remote"

let span_cap = 1 lsl 15

type span = { id : int; layer : layer; t0 : int; t1 : int }

let spans = lazy (Array.make span_cap { id = 0; layer = Request; t0 = 0; t1 = 0 })

let span_count = ref 0

let span id layer t0 t1 =
  let a = Lazy.force spans in
  a.(!span_count land (span_cap - 1)) <- { id; layer; t0; t1 };
  incr span_count

let kept_spans () =
  let a = Lazy.force spans in
  Array.sub a 0 (min !span_count span_cap) |> Array.to_list

(* Mean self time of the kept requests' root spans: the share of a
   request's latency that no recorded layer accounts for. *)
let unattributed () =
  let by_id = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace by_id s.id
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_id s.id)))
    (kept_spans ());
  let total = ref 0 and self = ref 0 in
  Hashtbl.iter
    (fun _ ss ->
      match List.partition (fun s -> s.layer = Request) ss with
      | [ root ], children ->
        total := !total + (root.t1 - root.t0);
        self :=
          !self
          + S.self_time ~start:root.t0 ~stop:root.t1
              (List.map (fun c -> (c.t0, c.t1)) children)
      | _ -> ())
    by_id;
  ratio (float_of_int !self) (float_of_int !total)

let write_spans workload =
  let path = Printf.sprintf "%s/perfbench-%s-spans.json" work_dir workload in
  ensure_work_dir ();
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"request\": %d}}\n"
        (if i = 0 then "" else ",")
        (layer_name s.layer) (s.id land 63)
        (float_of_int s.t0 /. 1e3)
        (float_of_int (s.t1 - s.t0) /. 1e3)
        s.id)
    (kept_spans ());
  output_string oc "]}\n";
  close_out oc;
  note "spans: %d kept of %d recorded, written to %s" (min !span_count span_cap)
    !span_count path

(* -- results ------------------------------------------------------------------ *)

(* Every workload prints the same metrics, as BENCHMARK.json lists them.
   End-to-end, with tracing off:
     setup_s    median set-up time of the run's fresh runtimes
     heap_mb    peak major heap
     geomean_s  geometric mean over the workload's parts of each part's
                median time (the §4.4 statistic): coord's five tasks,
                cowichan's six tasks, serve's median request latency at
                each of its two rates, remote's median blocking round
                trip and its time per pipelined query *)
let end_to_end = [ ("setup_s", "s"); ("heap_mb", "MB"); ("geomean_s", "s") ]

(* Per layer, from the traced run.  A layer a workload does not cross
   (the timer on coord, the node on serve, the pull everywhere but
   cowichan, ...) reads 0 there, and the run says which it left at 0. *)
let per_layer =
  List.map (fun n -> (n, "ns"))
    [
      "separate.enter_ns.p50"; "separate.enter_ns.p99";
      "registration.call_ns.p50"; "registration.call_ns.p99";
      "registration.query_ns.p50"; "registration.query_ns.p99";
      "processor.queue_wait_ns.p50"; "processor.queue_wait_ns.p99";
      "processor.exec_ns.p50"; "processor.exec_ns.p99";
      "timer.sleep_late_ns.p50"; "timer.sleep_late_ns.p99";
      "completion.wake_ns.p50"; "completion.wake_ns.p99";
      "completion.await_ns.p50"; "completion.await_ns.p99";
      "remote.out_ns.p50"; "remote.out_ns.p99"; "remote.node_exec_ns.p50";
      "remote.back_ns.p50"; "remote.back_ns.p99";
    ]
  @ List.map (fun n -> (n, "ratio"))
      [
        "separate.retries_per_block"; "registration.sync_elided_ratio";
        "registration.pool_hit_ratio"; "completion.overlap_ratio";
        "remote.overlap_ratio"; "obs.trace_overhead";
      ]
  @ List.map (fun n -> (n, "words"))
      [ "registration.minor_words_per_op"; "registration.major_words_per_op" ]
  @ List.map (fun n -> (n, "count"))
      [
        "processor.mean_batch"; "processor.shed"; "processor.timeouts";
        "sched.dispatches_per_op"; "sched.handoffs_per_op"; "sched.parks_per_op";
        "sched.steals_per_op";
      ]
  @ List.concat_map
      (fun task -> [ ("pull.comm_s." ^ task, "s"); ("pull.compute_s." ^ task, "s") ])
      Qs_benchmarks.Paper_data.parallel_tasks

let metrics : (string * float * string) list ref = ref []

let metric name unit v = metrics := (name, v, unit) :: !metrics

(* [name.p50] and [name.p99] of a buffer of nanosecond samples, with the
   sample count printed beside them. *)
let ns_tail name b =
  let s = sorted b in
  let n = Array.length s in
  if n = 0 then incorrect "%s: no samples" name;
  let q p = float_of_int (S.quantile s p) in
  metric (name ^ ".p50") "ns" (q 0.5);
  metric (name ^ ".p99") "ns" (q 0.99);
  note "%s: n=%d p50=%.0f ns p99=%.0f ns (%d beyond p99%s)" name n (q 0.5) (q 0.99)
    (S.beyond n 0.99)
    (if S.tail_ok n 0.99 then "" else ", too few to trust")

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let number v =
  if Float.is_finite v then Printf.sprintf "%.12g" v
  else incorrect "non-finite metric value"

(* The result line holds exactly the manifest's metrics of the run's kind,
   in the manifest's order: a metric the code recorded under another name
   or unit is a bug in the benchmark, and is reported as one. *)
let print_result ~trace ~attempted ~failed =
  let wanted = if trace then per_layer else end_to_end in
  List.iter
    (fun (n, _, u) ->
      if List.assoc_opt n wanted <> Some u then incorrect "metric %s (%s) is not in the manifest" n u)
    !metrics;
  let absent = List.filter (fun (n, _) -> not (List.exists (fun (m, _, _) -> m = n) !metrics)) wanted in
  if absent <> [] then begin
    if not trace then incorrect "no value for %s" (fst (List.hd absent));
    note "not crossed by this workload, so 0: %s" (String.concat " " (List.map fst absent))
  end;
  let body =
    wanted
    |> List.map (fun (n, u) ->
           match List.find_opt (fun (m, _, _) -> m = n) !metrics with
           | Some (_, v, _) -> (n, v, u)
           | None -> (n, 0., u))
    |> List.map (fun (n, v, u) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (number v) u)
    |> String.concat ", "
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed body

(* -- host record -------------------------------------------------------------- *)

(* Two domains spinning on the same total work: > 1.9 on two real cores,
   about 1.0 when the host gives one core of throughput.  Also returns
   one spin's time in ms, a gauge of how fast the host ran this run. *)
let two_domain_speedup () =
  let work () =
    let acc = ref 0 in
    for i = 1 to 30_000_000 do
      acc := !acc + (i land 7)
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let t0 = now () in
  work ();
  work ();
  let seq = now () - t0 in
  let t1 = now () in
  let d = Domain.spawn work in
  work ();
  Domain.join d;
  (float_of_int seq /. 2e6, ratio (float_of_int seq) (float_of_int (now () - t1)))

let host_record () =
  let one, speedup = two_domain_speedup () in
  Printf.printf
    "{\"host\": {\"nproc\": %d, \"two_domain_speedup\": %.3f, \"spin_ms\": %.2f, \
     \"ocaml\": \"%s\", \"revision\": \"%s\"}}\n%!"
    (Domain.recommended_domain_count ())
    speedup one Sys.ocaml_version
    (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_REVISION"))

(* -- shared helpers ----------------------------------------------------------- *)

let busy ns =
  let stop = now () + ns in
  while now () < stop do
    ()
  done

(* Warm one handler before timing: log a pool's worth of calls and
   exercise every request kind, so first-use costs land in set-up. *)
let warm rt h =
  R.separate rt h (fun reg ->
      for _ = 1 to 64 do
        Reg.call reg (fun () -> ())
      done;
      Reg.sync reg;
      ignore (Reg.query reg (fun () -> 0) : int);
      ignore (P.await (Reg.query_async reg (fun () -> 0)) : int))

let counter snap name = float_of_int (Counter.value snap name)

type sched_delta = { dispatches : int; handoffs : int; parks : int; steals : int }

let sched_zero = { dispatches = 0; handoffs = 0; parks = 0; steals = 0 }

let sched_delta (a : Sched.counters option) (b : Sched.counters option) =
  match (a, b) with
  | Some a, Some b ->
    {
      dispatches = b.c_executed - a.c_executed;
      handoffs = b.c_handoffs - a.c_handoffs;
      parks = b.c_parks - a.c_parks;
      steals = b.c_steals - a.c_steals;
    }
  | _ -> sched_zero

let sched_add a b =
  {
    dispatches = a.dispatches + b.dispatches;
    handoffs = a.handoffs + b.handoffs;
    parks = a.parks + b.parks;
    steals = a.steals + b.steals;
  }

let sched_metrics d ~ops =
  let per x = ratio (float_of_int x) ops in
  metric "sched.dispatches_per_op" "count" (per d.dispatches);
  metric "sched.handoffs_per_op" "count" (per d.handoffs);
  metric "sched.parks_per_op" "count" (per d.parks);
  metric "sched.steals_per_op" "count" (per d.steals)

(* Flat requests served from the pool, out of every flat attempt.  A hit
   bumps [requests_flat] and [requests_pooled] together and a miss bumps
   only [pool_misses], so the misses belong in the denominator. *)
let pool_hit_ratio snap =
  ratio (counter snap "requests_pooled")
    (counter snap "requests_flat" +. counter snap "pool_misses")

let sync_elided_ratio snap =
  ratio (counter snap "syncs_elided") (counter snap "syncs_elided" +. counter snap "syncs_sent")

let sum_snap a b =
  if a = [] then b
  else List.map (fun (k, v) -> (k, v + Counter.value b k)) a

(* The processor layer and the promises' overlap, from the runtime's own
   counters and histograms (one snapshot per fresh runtime). *)
let processor_metrics counters hists =
  let dist name = List.fold_left (fun d h -> Hist.merge d (List.assoc name h)) Hist.zero hists in
  List.iter
    (fun (metric_name, hist_name) ->
      let d = dist hist_name in
      metric (metric_name ^ ".p50") "ns" (float_of_int (Hist.quantile d 0.5));
      metric (metric_name ^ ".p99") "ns" (float_of_int (Hist.quantile d 0.99)))
    [ ("processor.queue_wait_ns", "queue_wait_ns"); ("processor.exec_ns", "exec_ns") ];
  metric "processor.mean_batch" "count"
    (ratio (counter counters "batched_requests") (counter counters "handler_wakeups"));
  metric "processor.shed" "count" (counter counters "shed_requests");
  metric "processor.timeouts" "count" (counter counters "deadline_exceeded");
  let ready = counter counters "promises_ready_on_first_poll"
  and blocked = counter counters "promises_forced_blocking" in
  metric "completion.overlap_ratio" "ratio" (ratio ready (ready +. blocked))

(* -- serve: open loop ----------------------------------------------------------- *)

let serve_clients = 4
let serve_handlers = 2
let service_ns = 20_000

(* The `qs serve` defaults: 50 ms deadline, bound 512, shed the oldest. *)
let serve_config =
  Scoop.Config.(
    qoq |> with_deadline 0.05 |> with_bound 512 |> with_overflow `Shed_oldest)

(* One client's generated requests: intended arrival (ns from the start),
   kind (0 call, 1 query, 2-3 pipelined query: the 1:1:2 mix) and
   handler.  Generated from the seed before the runtime starts. *)
type plan = { at : int array; kind : int array; dst : int array }

let plan ~seed ~seg ~rate ~duration_ns c =
  let rng = Random.State.make [| seed; seg; c |] in
  let gap = 1e9 *. float_of_int serve_clients /. rate in
  let rec go t acc =
    let t = t + int_of_float (-.log (1. -. Random.State.float rng 1.) *. gap) in
    if t >= duration_ns then List.rev acc
    else
      let kind = Random.State.int rng 4 in
      go t ((t, kind, Random.State.int rng serve_handlers) :: acc)
  in
  let reqs = Array.of_list (go 0 []) in
  {
    at = Array.map (fun (t, _, _) -> t) reqs;
    kind = Array.map (fun (_, k, _) -> k) reqs;
    dst = Array.map (fun (_, _, d) -> d) reqs;
  }

type segment = {
  label : string;  (** "10k" or "30k" *)
  seg_traced : bool;
  lat : samples;  (** completed requests' latency from intended arrival *)
  outcomes : S.outcomes;
  overloaded : int;
  setup_ns : int;
  seg_counters : Counter.snapshot;
  seg_hists : Hist.snapshot;
  seg_sched : sched_delta;
  minor : float;
  major : float;
}

let serve_segment ~seed ~seg ~rate ~label ~duration_ns ~traced =
  let plans = Array.init serve_clients (plan ~seed ~seg ~rate ~duration_ns) in
  let offsets = Array.make (serve_clients + 1) 0 in
  Array.iteri (fun c p -> offsets.(c + 1) <- offsets.(c) + Array.length p.at) plans;
  let total = offsets.(serve_clients) in
  let lat = Ba.create Bigarray.int Bigarray.c_layout total in
  Ba.fill lat (-1);
  let issued = ref 0 and timed_out = ref 0 and failed = ref 0 in
  let overloaded = ref 0 and calls_run = ref 0 in
  let stats = ref None and base = ref [] in
  let s0 = ref None and s1 = ref None and words = ref (0., 0.) in
  let setup = ref 0 in
  let t_entry = now () in
  R.run ~domains:1 ~config:serve_config
    ~on_counters:(fun c -> s1 := Some c)
    (fun rt ->
      let hs = Array.init serve_handlers (fun _ -> R.processor rt) in
      Array.iter (warm rt) hs;
      setup := now () - t_entry;
      let st = R.stats rt in
      stats := Some st;
      base := Scoop.Stats.assoc st;
      s0 := Sched.current_counters ();
      let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_words in
      let start = now () in
      let complete slot intended t =
        Ba.unsafe_set lat slot (S.open_loop_latency ~intended ~completed:t);
        if traced then span slot Request intended t
      in
      let issue slot intended kind h pending =
        incr issued;
        let t_sep = if traced then now () else 0 in
        let body reg =
          if traced then begin
            let t = now () in
            add pr.enter (t - t_sep);
            span slot Separate t_sep t
          end;
          match kind with
          | 0 ->
            let t0 = if traced then now () else 0 in
            Reg.call reg (fun () ->
                incr calls_run;
                let ts = now () in
                busy service_ns;
                let te = now () in
                (* from issue, so the span covers the mailbox wait too *)
                if traced then span slot Processor (min t0 ts) te;
                complete slot intended te);
            if traced then begin
              let t = now () in
              add pr.call (t - t0);
              span slot Registration t0 t
            end
          | 1 ->
            let t0 = now () in
            let ts, te =
              Reg.query reg (fun () ->
                  let ts = now () in
                  busy service_ns;
                  (ts, now ()))
            in
            let t = now () in
            if traced then begin
              add pr.query (t - t0);
              add pr.wake (t - te);
              span slot Registration t0 t;
              span slot Processor ts te;
              span slot Completion te t
            end;
            complete slot intended t
          | _ ->
            let t0 = if traced then now () else 0 in
            let p =
              Reg.query_async reg (fun () ->
                  let ts = now () in
                  busy service_ns;
                  (ts, now ()))
            in
            P.on_resolve p (function
              | Ok (ts, te) ->
                let t = now () in
                if traced then begin
                  span slot Processor (min t0 ts) te;
                  span slot Completion te t
                end;
                complete slot intended t
              | Error ((Scoop.Overloaded _ | Scoop.Handler_failure (_, Scoop.Overloaded _)), _)
                ->
                incr overloaded
              | Error _ -> incr failed);
            pending := p :: !pending
        in
        match R.separate rt h body with
        | () -> ()
        | exception Scoop.Timeout -> incr timed_out
        | exception (Scoop.Overloaded _ | Scoop.Handler_failure (_, Scoop.Overloaded _)) ->
          incr overloaded
        | exception _ -> incr failed
      in
      (* Pipelined reads are forced at the client's next arrival, so a
         read that kept pace with the schedule never blocks its client. *)
      let settle pending =
        List.iter
          (fun p ->
            let t0 = if traced then now () else 0 in
            (try ignore (P.await p : int * int) with _ -> ());
            if traced then add pr.await (now () - t0))
          (List.rev !pending);
        pending := []
      in
      let client c () =
        let p = plans.(c) and pending = ref [] in
        for i = 0 to Array.length p.at - 1 do
          let intended = start + p.at.(i) in
          let t = now () in
          if intended > t then begin
            Sched.sleep (float_of_int (intended - t) *. 1e-9);
            if traced then add pr.sleep_late (now () - intended)
          end;
          settle pending;
          (* The timer span runs from the intended arrival to the issue:
             sleep overshoot plus any time the client fell behind. *)
          if traced then span (offsets.(c) + i) Timer intended (max intended (now ()));
          issue (offsets.(c) + i) intended p.kind.(i) hs.(p.dst.(i)) pending
        done;
        settle pending
      in
      let finished = Latch.create serve_clients in
      for c = 0 to serve_clients - 1 do
        Sched.spawn (fun () ->
            client c ();
            Latch.count_down finished)
      done;
      Latch.wait finished;
      words :=
        ( Gc.minor_words () -. minor0,
          (Gc.quick_stat ()).Gc.major_words -. major0 ));
  (* The runtime has shut down: every handler has drained, so the
     counters and the latency slots are final. *)
  let st = Option.get !stats in
  let counters = Counter.diff (Scoop.Stats.assoc st) !base in
  let buf = samples () in
  let completed = ref 0 and completed_calls = ref 0 in
  Array.iteri
    (fun c p ->
      Array.iteri
        (fun i kind ->
          let v = Ba.get lat (offsets.(c) + i) in
          if v >= 0 then begin
            incr completed;
            if kind = 0 then incr completed_calls;
            add buf v
          end)
        p.kind)
    plans;
  let outcomes =
    {
      S.issued = !issued;
      completed = !completed;
      shed = Counter.value counters "shed_requests";
      timed_out = !timed_out;
      failed = !failed;
    }
  in
  if !issued <> total then incorrect "serve: issued %d of %d planned requests" !issued total;
  if not (S.balanced outcomes) then
    incorrect "serve %s: issued %d <> completed %d + shed %d + timed out %d + failed %d"
      label outcomes.issued outcomes.completed outcomes.shed outcomes.timed_out
      outcomes.failed;
  if !calls_run <> !completed_calls then
    incorrect "serve %s: handlers executed %d calls, %d completed" label !calls_run
      !completed_calls;
  if !overloaded > outcomes.shed then
    incorrect "serve %s: %d clients saw Overloaded but only %d requests were shed" label
      !overloaded outcomes.shed;
  let minor, major = !words in
  {
    label;
    seg_traced = traced;
    lat = buf;
    outcomes;
    overloaded = !overloaded;
    setup_ns = !setup;
    seg_counters = counters;
    seg_hists = Scoop.Stats.hist_assoc st;
    seg_sched = sched_delta !s0 !s1;
    minor;
    major;
  }

(* Set-up alone: runtime entry to warm handlers.  A few of these before
   the first segment also warm the process itself. *)
let serve_setup_only () =
  let t_entry = now () in
  R.run ~domains:1 ~config:serve_config (fun rt ->
      let hs = Array.init serve_handlers (fun _ -> R.processor rt) in
      Array.iter (warm rt) hs;
      now () - t_entry)

let serve ~seed ~budget_ns ~trace =
  let rates = [ ("10k", 10_000.); ("30k", 30_000.) ] in
  (* Many short segments with the rates alternating, so a burst of
     interference on the host spoils a few segments, not the run; each
     metric is the median over its segments.  The traced run interleaves
     untraced and traced segments the same way. *)
  let order =
    List.concat
      (List.init 4 (fun _ ->
           if trace then [ ("10k", false); ("10k", true); ("30k", true); ("30k", false) ]
           else [ ("10k", false); ("30k", false); ("30k", false); ("10k", false) ]))
  in
  let setups = List.init 3 (fun _ -> serve_setup_only ()) in
  let duration_ns = budget_ns / List.length order in
  let segs =
    List.mapi
      (fun seg (label, traced) ->
        serve_segment ~seed ~seg ~rate:(List.assoc label rates) ~label ~duration_ns ~traced)
      order
  in
  let heap = heap_mb () in
  let attempted = List.fold_left (fun a s -> a + s.outcomes.issued) 0 segs in
  let failed =
    List.fold_left
      (fun a s -> a + s.outcomes.shed + s.outcomes.timed_out + s.outcomes.failed)
      0 segs
  in
  List.iter
    (fun s ->
      if s.outcomes.completed < s.outcomes.issued then
        note "serve %s%s: issued %d completed %d shed %d timed out %d failed %d (Overloaded seen %d)"
          s.label
          (if s.seg_traced then " traced" else "")
          s.outcomes.issued s.outcomes.completed s.outcomes.shed s.outcomes.timed_out
          s.outcomes.failed s.overloaded)
    segs;
  let chosen ~traced label = List.filter (fun s -> s.label = label && s.seg_traced = traced) segs in
  (* Median over the segments of each segment's own quantile, in us. *)
  let median_of ~traced label q =
    S.median
      (List.map
         (fun s ->
           let l = sorted s.lat in
           if Array.length l = 0 then incorrect "serve %s: no completed requests" label;
           float_of_int (S.quantile l q) /. 1e3)
         (chosen ~traced label))
  in
  if not trace then begin
    metric "setup_s" "s"
      (S.median (List.map (fun ns -> float_of_int ns /. 1e9) (setups @ List.map (fun s -> s.setup_ns) segs)));
    metric "heap_mb" "MB" heap;
    metric "geomean_s" "s"
      (S.geomean (List.map (fun (label, _) -> median_of ~traced:false label 0.5 /. 1e6) rates));
    List.iter
      (fun (label, _) ->
        let p50 = median_of ~traced:false label 0.5 and p90 = median_of ~traced:false label 0.9 in
        let all = samples () in
        List.iter
          (fun s -> Array.iter (add all) (sorted s.lat))
          (chosen ~traced:false label);
        let l = sorted all in
        let n = Array.length l in
        note "serve %s: %d segments, n=%d, p50 %.1f us, p90 %.1f us, pooled p99 %.1f us (%d beyond it); limit p90 <= 1000 us with no failures: %s"
          label (List.length (chosen ~traced:false label)) n p50 p90
          (float_of_int (S.quantile l 0.99) /. 1e3)
          (S.beyond n 0.99)
          (if p90 <= 1000. && failed = 0 then "met" else "missed"))
      rates
  end
  else begin
    (* Counters and the runtime's own histograms come from the untraced
       segments: they are recorded either way, and the stamps allocate. *)
    let untraced = List.filter (fun s -> not s.seg_traced) segs in
    let counters =
      List.fold_left (fun acc s -> sum_snap acc s.seg_counters) [] untraced
    in
    let ops = float_of_int (List.fold_left (fun a s -> a + s.outcomes.issued) 0 untraced) in
    ns_tail "separate.enter_ns" pr.enter;
    ns_tail "registration.call_ns" pr.call;
    ns_tail "registration.query_ns" pr.query;
    metric "separate.retries_per_block" "ratio" (ratio (counter counters "wait_retries") ops);
    metric "registration.sync_elided_ratio" "ratio" (sync_elided_ratio counters);
    metric "registration.pool_hit_ratio" "ratio" (pool_hit_ratio counters);
    metric "registration.minor_words_per_op" "words"
      (ratio (List.fold_left (fun a s -> a +. s.minor) 0. untraced) ops);
    metric "registration.major_words_per_op" "words"
      (ratio (List.fold_left (fun a s -> a +. s.major) 0. untraced) ops);
    processor_metrics counters (List.map (fun s -> s.seg_hists) untraced);
    sched_metrics
      (List.fold_left (fun a s -> sched_add a s.seg_sched) sched_zero untraced)
      ~ops;
    ns_tail "timer.sleep_late_ns" pr.sleep_late;
    ns_tail "completion.wake_ns" pr.wake;
    ns_tail "completion.await_ns" pr.await;
    metric "obs.trace_overhead" "ratio"
      ((median_of ~traced:true "10k" 0.5 /. median_of ~traced:false "10k" 0.5) -. 1.);
    note "serve traced: %.1f%% of a request's latency lies outside every recorded layer"
      (100. *. unattributed ());
    write_spans "serve"
  end;
  (attempted, failed)

(* -- coord: Table 2's coordination tasks ---------------------------------------- *)

(* The five tasks of [Qs_benchmarks.Conc_scoop], restated against the
   public API so the traced run can stamp around each call it makes (the
   library versions own their runtime and offer no such hook).  The
   untraced run executes the same code with the stamps switched off. *)

let blocks = ref 0

let sep rt p body =
  incr blocks;
  if !tracing then begin
    let t0 = now () in
    R.separate rt p (fun reg ->
        add pr.enter (now () - t0);
        body reg)
  end
  else R.separate rt p body

let sep_when rt p ~pred body =
  incr blocks;
  if !tracing then begin
    let t0 = now () in
    R.separate_when rt p ~pred (fun reg ->
        add pr.enter (now () - t0);
        body reg)
  end
  else R.separate_when rt p ~pred body

(* Each wrapper calls the runtime directly when untraced, so the untraced
   run allocates nothing the library versions would not. *)
let apply reg sh f =
  if !tracing then begin
    let t0 = now () in
    Sh.apply reg sh f;
    add pr.call (now () - t0)
  end
  else Sh.apply reg sh f

let call reg f =
  if !tracing then begin
    let t0 = now () in
    Reg.call reg f;
    add pr.call (now () - t0)
  end
  else Reg.call reg f

let get reg sh f =
  if !tracing then begin
    let t_end = ref 0 in
    let t0 = now () in
    let v =
      Sh.get reg sh (fun x ->
          let v = f x in
          t_end := now ();
          v)
    in
    let t = now () in
    add pr.query (t - t0);
    add pr.wake (t - !t_end);
    v
  end
  else Sh.get reg sh f

(* 2.5 times the container default of [Harness] (n = 32 workers per role,
   m = 2000 rounds, a 64-ring passed 50 000 times, 8 chameneos meeting
   12 500 times), so one round of the five tasks takes about a second and
   a run's medians rest on many rounds.  condition stays at m = 1000: its
   wait-condition backoff grows faster than linearly in m. *)
let coord_n = 32
let coord_m = 2000
let condition_m = 1000
let ring = 64
let ring_passes = 50_000
let creatures = 8
let meetings = 12_500

let mutex rt ps =
  let resource = ps.(0) in
  let counter = Sh.create resource (ref 0) in
  let latch = Latch.create coord_n in
  for _ = 1 to coord_n do
    Sched.spawn (fun () ->
        for _ = 1 to coord_m do
          sep rt resource (fun reg -> apply reg counter incr)
        done;
        Latch.count_down latch)
  done;
  Latch.wait latch;
  let total = sep rt resource (fun reg -> get reg counter (fun r -> !r)) in
  B.validate_int "mutex" ~expected:(coord_n * coord_m) ~actual:total

let prodcons rt ps =
  let buffer = ps.(0) in
  let queue = Sh.create buffer (Queue.create ()) in
  let latch = Latch.create (2 * coord_n) in
  let consumed = Atomic.make 0 in
  for i = 1 to coord_n do
    Sched.spawn (fun () ->
        for k = 1 to coord_m do
          sep rt buffer (fun reg ->
              apply reg queue (fun q -> Queue.push ((i * coord_m) + k) q))
        done;
        Latch.count_down latch);
    Sched.spawn (fun () ->
        for _ = 1 to coord_m do
          let (_ : int) =
            sep_when rt buffer
              ~pred:(fun reg -> get reg queue (fun q -> not (Queue.is_empty q)))
              (fun reg -> get reg queue Queue.pop)
          in
          Atomic.incr consumed
        done;
        Latch.count_down latch)
  done;
  Latch.wait latch;
  B.validate_int "prodcons" ~expected:(coord_n * coord_m) ~actual:(Atomic.get consumed)

let condition rt ps =
  let proc = ps.(0) in
  let counter = Sh.create proc (ref 0) in
  let latch = Latch.create (2 * coord_n) in
  for w = 0 to (2 * coord_n) - 1 do
    let parity = w mod 2 in
    Sched.spawn (fun () ->
        for _ = 1 to condition_m do
          sep_when rt proc
            ~pred:(fun reg -> get reg counter (fun r -> !r mod 2 = parity))
            (fun reg -> apply reg counter incr)
        done;
        Latch.count_down latch)
  done;
  Latch.wait latch;
  let total = sep rt proc (fun reg -> get reg counter (fun r -> !r)) in
  B.validate_int "condition" ~expected:(2 * coord_n * condition_m) ~actual:total

let threadring rt procs =
  let n = Array.length procs in
  let finished = Qs_sched.Ivar.create () in
  let rec pass i k =
    if k = 0 then Qs_sched.Ivar.fill finished i
    else begin
      let next = (i + 1) mod n in
      sep rt procs.(next) (fun reg -> call reg (fun () -> pass next (k - 1)))
    end
  in
  sep rt procs.(0) (fun reg -> call reg (fun () -> pass 0 ring_passes));
  let winner = Qs_sched.Ivar.read finished in
  B.validate_int "threadring" ~expected:(ring_passes mod n) ~actual:winner

type meet = Partner of int | Waiting | Stop

type place = {
  mutable slot : (int * int) option;  (** creature id, colour *)
  results : (int, int) Hashtbl.t;  (** waiting creature -> partner colour *)
  mutable held : int;  (** meetings so far *)
}

let chameneos rt ps =
  let broker = ps.(0) in
  let place = Sh.create broker { slot = None; results = Hashtbl.create 16; held = 0 } in
  let latch = Latch.create creatures in
  let met = Atomic.make 0 in
  for id = 0 to creatures - 1 do
    Sched.spawn (fun () ->
        let colour = ref (id mod 3) in
        let meet () =
          sep rt broker (fun reg ->
              get reg place (fun st ->
                  if st.held >= meetings then begin
                    (match st.slot with
                    | Some (waiter, _) ->
                      Hashtbl.replace st.results waiter (-1);
                      st.slot <- None
                    | None -> ());
                    Stop
                  end
                  else
                    match st.slot with
                    | None ->
                      st.slot <- Some (id, !colour);
                      Waiting
                    | Some (other, other_colour) ->
                      st.slot <- None;
                      st.held <- st.held + 1;
                      Hashtbl.replace st.results other !colour;
                      Partner other_colour))
        in
        let rec poll () =
          match
            sep rt broker (fun reg ->
                get reg place (fun st ->
                    match Hashtbl.find_opt st.results id with
                    | Some c ->
                      Hashtbl.remove st.results id;
                      Some c
                    | None -> None))
          with
          | Some c -> c
          | None ->
            Sched.yield ();
            poll ()
        in
        let rec live () =
          match meet () with
          | Stop -> ()
          | Partner other ->
            colour := (!colour + other) mod 3;
            Atomic.incr met;
            live ()
          | Waiting ->
            let other = poll () in
            if other >= 0 then begin
              colour := (!colour + other) mod 3;
              Atomic.incr met;
              live ()
            end
        in
        live ();
        Latch.count_down latch)
  done;
  Latch.wait latch;
  B.validate_int "chameneos" ~expected:(2 * meetings) ~actual:(Atomic.get met)

let coord_tasks =
  [
    ("mutex", 1, mutex);
    ("prodcons", 1, prodcons);
    ("condition", 1, condition);
    ("threadring", ring, threadring);
    ("chameneos", 1, chameneos);
  ]

type task_run = {
  secs : float;
  run_setup_ns : int;
  run_counters : Counter.snapshot;
  run_hists : Hist.snapshot;
  run_sched : sched_delta;
  run_minor : float;
  run_major : float;
  run_blocks : int;
}

(* One task in a fresh runtime: set-up (processors created and warmed) is
   timed apart from the task itself. *)
let coord_run ~procs body =
  let result = ref None and s1 = ref None in
  let t_entry = now () in
  R.run ~domains:1 ~config:Scoop.Config.all
    ~on_counters:(fun c -> s1 := Some c)
    (fun rt ->
      let ps = Array.init procs (fun _ -> R.processor rt) in
      Array.iter (warm rt) ps;
      let setup = now () - t_entry in
      let st = R.stats rt in
      let c0 = Scoop.Stats.assoc st and s0 = Sched.current_counters () in
      let b0 = !blocks in
      let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_words in
      let t0 = now () in
      body rt ps;
      let t1 = now () in
      let minor = Gc.minor_words () -. minor0
      and major = (Gc.quick_stat ()).Gc.major_words -. major0 in
      result := Some (st, c0, s0, setup, t1 - t0, minor, major, !blocks - b0));
  let st, c0, s0, setup, dt, minor, major, nblocks = Option.get !result in
  {
    secs = float_of_int dt /. 1e9;
    run_setup_ns = setup;
    run_counters = Counter.diff (Scoop.Stats.assoc st) c0;
    run_hists = Scoop.Stats.hist_assoc st;
    run_sched = sched_delta s0 !s1;
    run_minor = minor;
    run_major = major;
    run_blocks = nblocks;
  }

(* Rounds of every task until the next round would overrun the budget;
   the traced run alternates untraced and traced rounds. *)
let rounds ~budget_ns ~trace one_round =
  let start = now () in
  let rec go k acc =
    let elapsed = now () - start in
    let enough = k >= if trace then 2 else 1 in
    if enough && elapsed + (elapsed / max 1 k) > budget_ns then List.rev acc
    else begin
      let traced = trace && k mod 2 = 1 in
      tracing := traced;
      let r = one_round () in
      tracing := false;
      go (k + 1) ((traced, r) :: acc)
    end
  in
  go 0 []

let ops_of r = Counter.value r.run_counters "calls" + Counter.value r.run_counters "queries"

let coord ~budget_ns ~trace =
  let rounds =
    rounds ~budget_ns ~trace (fun () ->
        List.map (fun (name, procs, body) -> (name, coord_run ~procs body)) coord_tasks)
  in
  let heap = heap_mb () in
  let runs traced = List.concat_map (fun (t, rs) -> if t = traced then rs else []) rounds in
  let med traced name =
    S.median (List.map (fun (_, r) -> r.secs) (List.filter (fun (n, _) -> n = name) (runs traced)))
  in
  let geo traced = S.geomean (List.map (fun (name, _, _) -> med traced name) coord_tasks) in
  let attempted = List.fold_left (fun a (_, r) -> a + ops_of r) 0 (runs false @ runs true) in
  note "coord: %d rounds of %d tasks" (List.length rounds) (List.length coord_tasks);
  if not trace then begin
    metric "setup_s" "s"
      (S.median
         (List.map
            (fun (_, rs) ->
              List.fold_left (fun a (_, r) -> a +. (float_of_int r.run_setup_ns /. 1e9)) 0. rs)
            rounds));
    metric "heap_mb" "MB" heap;
    metric "geomean_s" "s" (geo false);
    List.iter
      (fun (name, _, _) ->
        let xs = List.map (fun (_, r) -> r.secs) (List.filter (fun (n, _) -> n = name) (runs false)) in
        note "coord %s: n=%d median %.4f s, min %.4f s, max %.4f s" name (List.length xs)
          (med false name) (List.fold_left min infinity xs) (List.fold_left max 0. xs))
      coord_tasks
  end
  else begin
    (* Counts come from the untraced rounds: the stamps allocate. *)
    let plain = List.map snd (runs false) in
    let total f = List.fold_left (fun a r -> a +. f r) 0. plain in
    let counters = List.fold_left (fun acc r -> sum_snap acc r.run_counters) [] plain in
    let count = counter counters in
    let ops = total (fun r -> float_of_int (ops_of r)) in
    ns_tail "separate.enter_ns" pr.enter;
    metric "separate.retries_per_block" "ratio"
      (ratio (count "wait_retries") (total (fun r -> float_of_int r.run_blocks)));
    ns_tail "registration.call_ns" pr.call;
    ns_tail "registration.query_ns" pr.query;
    metric "registration.sync_elided_ratio" "ratio" (sync_elided_ratio counters);
    metric "registration.pool_hit_ratio" "ratio" (pool_hit_ratio counters);
    metric "registration.minor_words_per_op" "words" (ratio (total (fun r -> r.run_minor)) ops);
    metric "registration.major_words_per_op" "words" (ratio (total (fun r -> r.run_major)) ops);
    processor_metrics counters (List.map (fun r -> r.run_hists) plain);
    sched_metrics (List.fold_left (fun a r -> sched_add a r.run_sched) sched_zero plain) ~ops;
    ns_tail "completion.wake_ns" pr.wake;
    metric "obs.trace_overhead" "ratio" ((geo true /. geo false) -. 1.)
  end;
  (attempted, 0)

(* -- cowichan: Table 1's data-parallel tasks ------------------------------------ *)

(* Matrix side and winnow/outer size, scaled well past the container
   default of 220 so computation dominates. *)
let cowichan_nr = 1500
let cowichan_nw = 1500

let cowichan ~seed ~budget_ns ~trace =
  let scale =
    {
      Qs_benchmarks.Harness.default with
      nr = cowichan_nr;
      nw = cowichan_nw;
      workers = 8;
      domains = 1;
      seed;
    }
  in
  let tasks = Qs_benchmarks.Paper_data.parallel_tasks in
  (* The kernels own their runtime, so set-up is timed on a runtime of the
     same shape: a main processor and one per worker, warmed. *)
  let setup_probe () =
    let t_entry = now () in
    R.run ~domains:1 ~config:Scoop.Config.all (fun rt ->
        let ps = Array.init (scale.workers + 1) (fun _ -> R.processor rt) in
        Array.iter (warm rt) ps;
        now () - t_entry)
  in
  (* The kernels time their phases in every run and the benchmark adds no
     stamps here, so traced and untraced rounds run the same code and
     obs.trace_overhead reads as noise around 0. *)
  let rounds =
    rounds ~budget_ns ~trace (fun () ->
        let setup = setup_probe () in
        ( setup,
          List.map
            (fun task ->
              (task, Qs_benchmarks.Harness.scoop_parallel ~config:Scoop.Config.all scale task))
            tasks ))
  in
  let heap = heap_mb () in
  let times traced task f =
    List.filter_map
      (fun (t, (_, rs)) -> if t = traced then Some (f (List.assoc task rs : B.timings)) else None)
      rounds
  in
  let geo traced =
    S.geomean (List.map (fun task -> S.median (times traced task (fun t -> t.B.total))) tasks)
  in
  note "cowichan: %d rounds of %d tasks (nr=%d nw=%d)" (List.length rounds) (List.length tasks)
    cowichan_nr cowichan_nw;
  if not trace then begin
    metric "setup_s" "s"
      (S.median (List.map (fun (_, (s, _)) -> float_of_int s /. 1e9) rounds));
    metric "heap_mb" "MB" heap;
    metric "geomean_s" "s" (geo false);
    List.iter
      (fun task ->
        let m f = S.median (times false task f) in
        note "cowichan %s: total %.4f s compute %.4f s comm %.4f s" task
          (m (fun t -> t.B.total)) (m (fun t -> t.B.compute)) (m (fun t -> t.B.comm)))
      tasks
  end
  else begin
    List.iter
      (fun task ->
        let m f = S.median (times true task f) in
        metric ("pull.comm_s." ^ task) "s" (m (fun t -> t.B.comm));
        metric ("pull.compute_s." ^ task) "s" (m (fun t -> t.B.compute)))
      tasks;
    metric "obs.trace_overhead" "ratio" ((geo true /. geo false) -. 1.)
  end;
  (List.length rounds * List.length tasks, 0)

(* -- remote: the round trip to a node -------------------------------------------- *)

(* The node runs the shipped closures in this same process (same binary),
   so [cell] is the node's counter: closures reach it as a module global,
   not through their environment. *)
let cell = Atomic.make 0

let fetch () = Atomic.fetch_and_add cell 1

let fetch_stamped () =
  let ts = now () in
  let v = Atomic.fetch_and_add cell 1 in
  (v, ts, now ())

let remote_batch = 32

(* Host a node on a second domain, connect to it once and hand the open
   registration to [f].  Set-up runs from before listen until the
   connection (Hello handshake included) has carried a blocking query and
   a pipelined batch.  Results must follow the fetch-and-add sequence. *)
let with_node ?(on_counters = ignore) f =
  ensure_work_dir ();
  let path = Printf.sprintf "%s/perfbench-%d.sock" work_dir (Unix.getpid ()) in
  let addr = Scoop.Config.Unix_sock path in
  let t_entry = now () in
  let node = Domain.spawn (fun () -> Scoop.Remote.listen addr) in
  (* Connect once the node has bound its socket: connecting earlier is
     refused and retried after a fixed pause, which would make set-up
     time depend on who wins the race. *)
  let give_up = now () + 10_000_000_000 in
  while not (Sys.file_exists path) do
    if now () > give_up then incorrect "remote: node did not listen within 10 s";
    Unix.sleepf 0.0001
  done;
  let result =
    R.run ~domains:1 ~config:(Scoop.Remote.connect [ addr ]) ~on_counters (fun rt ->
        let v =
          R.separate rt (R.processor rt) (fun reg ->
              let first = Reg.query reg fetch in
              let expected = ref (first + 1) in
              let check v =
                if v <> !expected then
                  incorrect "remote: query returned %d, expected %d" v !expected;
                incr expected
              in
              Array.init remote_batch (fun _ -> Reg.query_async reg fetch)
              |> Array.iter (fun p -> check (P.await p));
              f rt reg ~check ~setup_ns:(now () - t_entry))
        in
        R.shutdown_nodes rt;
        v)
  in
  Domain.join node;
  result

let remote ~budget_ns ~trace =
  let setups =
    List.init 4 (fun _ -> with_node (fun _ _ ~check:_ ~setup_ns -> setup_ns))
  in
  (* Short alternating phases of blocking and pipelined queries; each
     metric is the median over phases, so a burst of interference on the
     host spoils a few phases, not the run. *)
  let phase_ns = 100_000_000 in
  let rtt = samples () and rtt_traced = samples () in
  let p50s = ref [] and p90s = ref [] in
  let rates = ref [] and ready = ref 0. and blocked = ref 0. and attempted = ref 0 in
  let s0 = ref None and s1 = ref None and minor = ref 0. and major = ref 0. and plain = ref 0 in
  let setup =
    with_node ~on_counters:(fun c -> s1 := Some c) (fun rt reg ~check ~setup_ns ->
        let st = R.stats rt in
        s0 := Sched.current_counters ();
        let start = now () in
        let k = ref 0 in
        while !k < 2 || now () - start < budget_ns do
          let traced = trace && !k mod 2 = 1 in
          let stop = now () + (phase_ns / 2) and n0 = rtt.n and a0 = !attempted in
          let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_words in
          while now () < stop do
            incr attempted;
            let t0 = now () in
            if traced then begin
              let v, ts, te = Reg.query reg fetch_stamped in
              let t = now () in
              check v;
              add rtt_traced (t - t0);
              add pr.query (t - t0);
              add pr.wake (t - te);
              add pr.out (ts - t0);
              add pr.node_exec (te - ts);
              add pr.back (t - te);
              span !attempted Request t0 t;
              span !attempted Remote t0 ts;
              span !attempted Processor ts te;
              span !attempted Completion te t
            end
            else begin
              let v = Reg.query reg fetch in
              add rtt (now () - t0);
              check v
            end
          done;
          if not traced then begin
            let phase =
              Array.init (rtt.n - n0) (fun i -> Ba.get rtt.data ((n0 + i) land (max_kept - 1)))
            in
            Array.sort compare phase;
            let us q = float_of_int (S.quantile phase q) /. 1e3 in
            p50s := us 0.5 :: !p50s;
            p90s := us 0.9 :: !p90s
          end;
          let c0 = Scoop.Stats.assoc st in
          let t0 = now () and ops = ref 0 in
          while now () - t0 < phase_ns / 2 do
            Array.init remote_batch (fun _ -> Reg.query_async reg fetch)
            |> Array.iter (fun p ->
                   if traced then begin
                     let ta = now () in
                     check (P.await p);
                     add pr.await (now () - ta)
                   end
                   else check (P.await p));
            ops := !ops + remote_batch
          done;
          attempted := !attempted + !ops;
          if not traced then begin
            minor := !minor +. Gc.minor_words () -. minor0;
            major := !major +. (Gc.quick_stat ()).Gc.major_words -. major0;
            plain := !plain + !attempted - a0;
            rates := (float_of_int !ops /. (float_of_int (now () - t0) /. 1e9)) :: !rates;
            let c = Counter.diff (Scoop.Stats.assoc st) c0 in
            ready := !ready +. counter c "promises_ready_on_first_poll";
            blocked := !blocked +. counter c "promises_forced_blocking"
          end;
          incr k
        done;
        setup_ns)
  in
  let heap = heap_mb () in
  if not trace then begin
    metric "setup_s" "s" (S.median (List.map (fun ns -> float_of_int ns /. 1e9) (setup :: setups)));
    metric "heap_mb" "MB" heap;
    let p50 = S.median !p50s and rate = S.median !rates in
    metric "geomean_s" "s" (S.geomean [ p50 /. 1e6; 1. /. rate ]);
    let l = sorted rtt in
    let n = Array.length l in
    note "remote blocking: %d phases, n=%d, p50 %.1f us, p90 %.1f us, pooled p99 %.1f us (%d beyond it)"
      (List.length !p50s) n p50 (S.median !p90s)
      (float_of_int (S.quantile l 0.99) /. 1e3)
      (S.beyond n 0.99);
    note "remote pipelined: %d phases of batches of %d, %.0f queries/s" (List.length !rates)
      remote_batch rate
  end
  else begin
    ns_tail "remote.out_ns" pr.out;
    let s = sorted pr.node_exec in
    if Array.length s = 0 then incorrect "remote: no traced queries";
    metric "remote.node_exec_ns.p50" "ns" (float_of_int (S.quantile s 0.5));
    ns_tail "processor.exec_ns" pr.node_exec;
    ns_tail "remote.back_ns" pr.back;
    metric "remote.overlap_ratio" "ratio" (ratio !ready (!ready +. !blocked));
    metric "completion.overlap_ratio" "ratio" (ratio !ready (!ready +. !blocked));
    ns_tail "registration.query_ns" pr.query;
    ns_tail "completion.wake_ns" pr.wake;
    ns_tail "completion.await_ns" pr.await;
    let ops = float_of_int !plain in
    metric "registration.minor_words_per_op" "words" (ratio !minor ops);
    metric "registration.major_words_per_op" "words" (ratio !major ops);
    sched_metrics (sched_delta !s0 !s1) ~ops:(float_of_int !attempted);
    let p50 b = float_of_int (S.quantile (sorted b) 0.5) in
    metric "obs.trace_overhead" "ratio" ((p50 rtt_traced /. p50 rtt) -. 1.);
    note "remote traced: %.1f%% of a round trip lies outside every recorded layer"
      (100. *. unattributed ());
    write_spans "remote"
  end;
  (!attempted, 0)

(* -- entry point ------------------------------------------------------------------- *)

let workloads = [ "serve"; "coord"; "cowichan"; "remote" ]

let run_one ~workload ~seed ~seconds ~trace =
  host_record ();
  let budget_ns = seconds * 1_000_000_000 in
  let attempted, failed =
    match workload with
    | "serve" -> serve ~seed ~budget_ns ~trace
    | "coord" -> coord ~budget_ns ~trace
    | "cowichan" -> cowichan ~seed ~budget_ns ~trace
    | _ -> remote ~budget_ns ~trace
  in
  print_result ~trace ~attempted ~failed

(* Every workload, each in its own process (so each has its own heap). *)
let run_all ~seed ~seconds ~trace =
  List.iter
    (fun w ->
      let argv =
        [|
          Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed;
          "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0");
        |]
      in
      let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ ->
        Printf.eprintf "perfbench: workload %s failed\n%!" w;
        exit 1)
    workloads

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " serve | coord | cowichan | remote | all");
      ("--seed", Arg.Set_int seed, " seed of the generated inputs (default 1)");
      ("--seconds", Arg.Set_int seconds, " measuring time per run (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]";
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  try
    if !workload = "all" then run_all ~seed:!seed ~seconds:!seconds ~trace
    else if List.mem !workload workloads then
      run_one ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace
    else begin
      Printf.eprintf "perfbench: unknown workload %S\n" !workload;
      exit 2
    end
  with
  | Incorrect msg | B.Validation_failed msg ->
    Printf.eprintf "perfbench: incorrect result: %s\n%!" msg;
    exit 1
  | e ->
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    exit 1
