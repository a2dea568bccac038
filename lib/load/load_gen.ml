(* Open-loop load generator for the SCOOP runtime.

   The generator models N independent clients, each a fiber with its own
   deterministic RNG stream, issuing requests against a pool of handler
   processors at a target *aggregate* arrival rate.  Arrivals follow the
   clock, not the service: each client computes the absolute intended
   arrival time of its next request up front and sleeps until then.  When
   the system falls behind, intended timestamps keep advancing anyway, so
   a request issued late carries its backlog in its measured latency —
   the coordinated-omission-safe discipline of wrk2/HdrHistogram, as
   opposed to closed-loop harnesses that silently stop the clock while
   waiting.

   Latency is therefore measured from the *intended* arrival to the
   moment the request's effect is client-observable:
     - [call]         completion recorded inside the handler body
     - [query]        recorded on the client once the reply lands
     - [query_async]  recorded in the promise's fulfil hook (never blocks)

   Every operation runs under a fresh [Runtime.separate] block, so a
   poisoned registration (shed call, handler fault) never leaks into
   subsequent traffic.  Errors are counted, not fatal. *)

type arrivals = Poisson | Bursty of int

type spec = {
  rate : float;
  clients : int;
  handlers : int;
  duration : float;
  arrivals : arrivals;
  service_us : float;
  mix : int * int * int;
  seed : int;
}

let default =
  {
    rate = 500.;
    clients = 8;
    handlers = 2;
    duration = 2.;
    arrivals = Poisson;
    service_us = 50.;
    mix = (1, 1, 2);
    seed = 42;
  }

type point = {
  p_rate : float;
  p_issued : int;
  p_measured : int;
  p_achieved : float;
  p_p50_ns : int;
  p_p99_ns : int;
  p_p999_ns : int;
  p_max_ns : int;
  p_mean_ns : float;
  p_sheds : int;
  p_timeouts : int;
  p_failures : int;
  p_queue_p99_ns : int;
  p_exec_p99_ns : int;
}

let in_slo ?deadline p =
  p.p_sheds = 0 && p.p_timeouts = 0 && p.p_failures = 0
  &&
  match deadline with
  | None -> true
  | Some d -> float_of_int p.p_p99_ns <= d *. 1e9

(* Spin for [service_ns] of wall clock.  Burning cycles (rather than
   sleeping) is deliberate: it occupies the handler's domain exactly the
   way real per-request work would, which is what positions the knee. *)
let busy_work service_ns =
  if service_ns > 0 then begin
    let stop = Qs_obs.Clock.now_ns () + service_ns in
    while Qs_obs.Clock.now_ns () < stop do
      ()
    done
  end

let run_point ?(domains = 1) ?config (s : spec) : point =
  if s.rate <= 0. then invalid_arg "Load_gen.run_point: rate must be > 0";
  if s.clients <= 0 then invalid_arg "Load_gen.run_point: clients must be > 0";
  if s.handlers <= 0 then invalid_arg "Load_gen.run_point: handlers must be > 0";
  let config =
    match config with Some c -> c | None -> Scoop.Config.qoq
  in
  let hist = Qs_obs.Histogram.registry () in
  let h_client = Qs_obs.Histogram.make hist "client_ns" in
  let issued = Atomic.make 0
  and measured = Atomic.make 0
  and timeouts = Atomic.make 0
  and failures = Atomic.make 0 in
  let service_ns = int_of_float (s.service_us *. 1e3) in
  let duration_ns = int_of_float (s.duration *. 1e9) in
  let w_call, w_query, w_async = s.mix in
  let w_total = max 1 (w_call + w_query + w_async) in
  let sheds = ref 0 in
  let runtime_p99 = ref (0, 0) in
  Scoop.Runtime.run ~domains ~config (fun rt ->
      let handlers =
        Array.init s.handlers (fun _ -> Scoop.Runtime.processor rt)
      in
      let finished = Array.init s.clients (fun _ -> Qs_sched.Ivar.create ()) in
      let start = Qs_obs.Clock.now_ns () in
      let record intended =
        Qs_obs.Histogram.record h_client (Qs_obs.Clock.now_ns () - intended);
        Atomic.incr measured
      in
      let issue rng intended =
        let h = handlers.(Random.State.int rng s.handlers) in
        let pick = Random.State.int rng w_total in
        Atomic.incr issued;
        try
          Scoop.Runtime.separate rt h (fun reg ->
              if pick < w_call then
                Scoop.Registration.call reg (fun () ->
                    busy_work service_ns;
                    record intended)
              else if pick < w_call + w_query then begin
                let (_ : int) =
                  Scoop.Registration.query reg (fun () ->
                      busy_work service_ns;
                      0)
                in
                record intended
              end
              else
                let p =
                  Scoop.Registration.query_async reg (fun () ->
                      busy_work service_ns;
                      0)
                in
                Qs_sched.Promise.on_fulfill p (fun (_ : int) -> record intended))
        with
        | Scoop.Timeout -> Atomic.incr timeouts
        | Scoop.Overloaded _ | Scoop.Handler_failure _ -> Atomic.incr failures
      in
      let client c =
        let rng = Random.State.make [| s.seed; c |] in
        let rate_c = s.rate /. float_of_int s.clients in
        let mean_gap_ns = 1e9 /. rate_c in
        let intended = ref start in
        let in_burst = ref 0 in
        let running = ref true in
        while !running do
          (match s.arrivals with
          | Poisson ->
              let u = Random.State.float rng 1.0 in
              let u = if u <= 0. then epsilon_float else u in
              intended := !intended + int_of_float (-.log u *. mean_gap_ns)
          | Bursty n ->
              let n = max 1 n in
              if !in_burst >= n then begin
                intended :=
                  !intended + int_of_float (float_of_int n *. mean_gap_ns);
                in_burst := 0
              end;
              incr in_burst);
          if !intended - start >= duration_ns then running := false
          else begin
            let now = Qs_obs.Clock.now_ns () in
            if !intended > now then
              Qs_sched.Sched.sleep (float_of_int (!intended - now) *. 1e-9);
            issue rng !intended
          end
        done;
        Qs_sched.Ivar.fill finished.(c) ()
      in
      for c = 0 to s.clients - 1 do
        Qs_sched.Sched.spawn (fun () -> client c)
      done;
      Array.iter Qs_sched.Ivar.read finished;
      (* Grace: wait for in-flight completions to settle.  A sync barrier
         would be neater but can itself shed or time out past the knee, so
         poll for quiescence with a bounded budget instead. *)
      let settled = ref (-1) in
      let budget = ref 40 in
      let outcomes () =
        Atomic.get measured + Atomic.get timeouts + Atomic.get failures
      in
      while !budget > 0 && outcomes () <> !settled do
        settled := outcomes ();
        Qs_sched.Sched.sleep 0.05;
        decr budget
      done;
      let st = Scoop.Runtime.stats rt in
      sheds := Qs_obs.Counter.get st.Scoop.Stats.shed_requests;
      let rh = Scoop.Stats.histograms st in
      let q d = Qs_obs.Histogram.quantile d 0.99 in
      runtime_p99 :=
        ( q (Qs_obs.Histogram.dist rh "queue_wait_ns"),
          q (Qs_obs.Histogram.dist rh "exec_ns") ));
  let d = Qs_obs.Histogram.dist hist "client_ns" in
  let queue_p99, exec_p99 = !runtime_p99 in
  {
    p_rate = s.rate;
    p_issued = Atomic.get issued;
    p_measured = Atomic.get measured;
    p_achieved = float_of_int (Atomic.get measured) /. s.duration;
    p_p50_ns = Qs_obs.Histogram.quantile d 0.5;
    p_p99_ns = Qs_obs.Histogram.quantile d 0.99;
    p_p999_ns = Qs_obs.Histogram.quantile d 0.999;
    p_max_ns = Qs_obs.Histogram.quantile d 1.0;
    p_mean_ns = Qs_obs.Histogram.mean d;
    p_sheds = !sheds;
    p_timeouts = Atomic.get timeouts;
    p_failures = Atomic.get failures;
    p_queue_p99_ns = queue_p99;
    p_exec_p99_ns = exec_p99;
  }

let sweep ?domains ?config (s : spec) ~rates =
  List.map (fun r -> run_point ?domains ?config { s with rate = r }) rates

let point_json ?deadline p =
  Qs_obs.Json.Obj
    [
      ("rate", Float p.p_rate);
      ("achieved", Float p.p_achieved);
      ("issued", Int p.p_issued);
      ("measured", Int p.p_measured);
      ("p50_ns", Int p.p_p50_ns);
      ("p99_ns", Int p.p_p99_ns);
      ("p999_ns", Int p.p_p999_ns);
      ("max_ns", Int p.p_max_ns);
      ("mean_ns", Float p.p_mean_ns);
      ("shed_requests", Int p.p_sheds);
      ("timeouts", Int p.p_timeouts);
      ("failures", Int p.p_failures);
      ("queue_p99_ns", Int p.p_queue_p99_ns);
      ("exec_p99_ns", Int p.p_exec_p99_ns);
      ("in_slo", Bool (in_slo ?deadline p));
    ]

let report_json ?deadline ?(domains = 1) (s : spec) points =
  let arrivals_json =
    match s.arrivals with
    | Poisson -> Qs_obs.Json.String "poisson"
    | Bursty n -> Qs_obs.Json.String (Printf.sprintf "bursty:%d" (max 1 n))
  in
  let w_call, w_query, w_async = s.mix in
  Qs_obs.Json.Obj
    [
      ("suite", String "qs-load");
      ( "config",
        Obj
          [
            ("clients", Int s.clients);
            ("handlers", Int s.handlers);
            ("domains", Int domains);
            ("duration_s", Float s.duration);
            ("arrivals", arrivals_json);
            ("service_us", Float s.service_us);
            ( "mix",
              Obj
                [
                  ("call", Int w_call);
                  ("query", Int w_query);
                  ("query_async", Int w_async);
                ] );
            ("seed", Int s.seed);
            ( "deadline_s",
              match deadline with None -> Null | Some d -> Float d );
          ] );
      ("points", List (List.map (point_json ?deadline) points));
    ]

let pp_point ?deadline fmt p =
  let ms ns = float_of_int ns /. 1e6 in
  Format.fprintf fmt
    "rate %8.1f/s  achieved %8.1f/s  p50 %7.3f ms  p99 %7.3f ms  p999 %7.3f \
     ms  sheds %d  timeouts %d  failures %d%s"
    p.p_rate p.p_achieved (ms p.p_p50_ns) (ms p.p_p99_ns) (ms p.p_p999_ns)
    p.p_sheds p.p_timeouts p.p_failures
    (if in_slo ?deadline p then "  [in SLO]" else "  [OUT of SLO]")

(* Knee location: the highest swept rate that still meets the SLO,
   paired with the first rate that degrades.  [None] on either side when
   the whole sweep is out of (resp. within) the SLO. *)
let knee ?deadline points =
  let ok, bad = List.partition (in_slo ?deadline) points in
  let rate p = p.p_rate in
  let max_ok =
    List.fold_left (fun acc p -> Some (max (Option.value acc ~default:0.) (rate p))) None ok
  in
  let min_bad =
    List.fold_left
      (fun acc p ->
        Some (min (Option.value acc ~default:infinity) (rate p)))
      None bad
  in
  (max_ok, min_bad)
