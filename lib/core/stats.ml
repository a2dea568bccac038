(* Runtime instrumentation (the "SCOOP-specific instrumentation" the paper
   lists as future work in §7).

   The record holds typed handles into two registries: every counter is
   registered in [t.registry] under its field's name and bumped on the
   hot paths with one atomic increment; every [h_*] histogram in
   [t.hist].  Readers take a handle ([Qs_obs.Counter.get]) for one
   value, or a registry snapshot ({!assoc}, [Qs_obs.Counter.diff]) for
   all of them. *)

type t = {
  registry : Qs_obs.Counter.registry;
  processors : Qs_obs.Counter.t; (* handlers spawned *)
  reservations : Qs_obs.Counter.t; (* separate blocks entered *)
  multi_reservations : Qs_obs.Counter.t; (* multi-handler separate blocks *)
  calls : Qs_obs.Counter.t; (* asynchronous calls enqueued *)
  queries : Qs_obs.Counter.t; (* queries issued (any flavour) *)
  packaged_queries : Qs_obs.Counter.t; (* round trips via packaged closures *)
  promises_created : Qs_obs.Counter.t; (* pipelined queries issued *)
  promises_fulfilled : Qs_obs.Counter.t; (* promise results produced (handler) *)
  promises_ready_on_first_poll : Qs_obs.Counter.t; (* ready at first force *)
  promises_forced_blocking : Qs_obs.Counter.t; (* first force blocked *)
  syncs_sent : Qs_obs.Counter.t; (* sync round trips actually performed *)
  syncs_elided : Qs_obs.Counter.t; (* syncs skipped by dynamic coalescing *)
  eve_lookups : Qs_obs.Counter.t; (* simulated handler-table lookups (§4.5) *)
  wait_retries : Qs_obs.Counter.t; (* failed wait-condition evaluations *)
  handler_wakeups : Qs_obs.Counter.t; (* batches drained by handler loops *)
  batched_requests : Qs_obs.Counter.t; (* requests delivered through batches *)
  ends_drained : Qs_obs.Counter.t; (* End markers consumed *)
  handler_failures : Qs_obs.Counter.t; (* handler-side closure exceptions *)
  poisoned_registrations : Qs_obs.Counter.t; (* registrations dirtied by a failed call *)
  rejected_promises : Qs_obs.Counter.t; (* pipelined queries resolved with an exception *)
  aborted_requests : Qs_obs.Counter.t; (* requests discarded by abort *)
  timer_arms : Qs_obs.Counter.t; (* deadline timers armed by the request path *)
  timeouts_fired : Qs_obs.Counter.t; (* armed deadlines that expired *)
  deadline_exceeded : Qs_obs.Counter.t; (* client operations that raised Timeout *)
  shed_requests : Qs_obs.Counter.t; (* requests refused or shed by backpressure *)
  remote_requests : Qs_obs.Counter.t; (* calls/queries/syncs shipped to a node *)
  remote_replies : Qs_obs.Counter.t; (* completions received from a node *)
  remote_failures : Qs_obs.Counter.t; (* lost connections and wire-level errors *)
  (* Latency distributions (ns).  One registry per runtime, mirroring
     the counter registry: registered here in a fixed order so every
     export (bench JSON, Chrome trace, [qs] subcommands) sees the same
     snapshot shape.  The six per-class histograms measure birth (client
     issue) to completion (handler done / reply demuxed); the two
     cross-class ones split the local pipeline into queueing
     (admitted -> served) and execution (served -> done). *)
  hist : Qs_obs.Histogram.registry;
  h_call_local : Qs_obs.Histogram.t; (* async call: birth -> handler done *)
  h_query_local : Qs_obs.Histogram.t; (* blocking query: birth -> result *)
  h_pipelined_local : Qs_obs.Histogram.t; (* pipelined: birth -> fulfilment *)
  h_call_remote : Qs_obs.Histogram.t; (* remote call: birth -> wire handoff *)
  h_query_remote : Qs_obs.Histogram.t; (* remote query/sync round-trip time *)
  h_pipelined_remote : Qs_obs.Histogram.t; (* remote pipelined: issue -> reply *)
  h_queue_wait : Qs_obs.Histogram.t; (* local: admitted -> served *)
  h_exec : Qs_obs.Histogram.t; (* local: served -> done *)
}

let create () =
  let registry = Qs_obs.Counter.registry () in
  let c name = Qs_obs.Counter.make registry name in
  (* Hot-path counters — bumped on every async call / query / handler
     batch, from every domain at once — use per-domain sharded cells so
     the instrumentation itself never bounces a cache line between
     workers (ROADMAP item 4).  The rest are cold enough for one word. *)
  let h name = Qs_obs.Counter.make_sharded registry name in
  (* Bind before constructing the record: record fields evaluate in
     unspecified order, and registration order is the snapshot order. *)
  let processors = c "processors" in
  let reservations = c "reservations" in
  let multi_reservations = c "multi_reservations" in
  let calls = h "calls" in
  let queries = h "queries" in
  let packaged_queries = c "packaged_queries" in
  let promises_created = c "promises_created" in
  let promises_fulfilled = c "promises_fulfilled" in
  let promises_ready_on_first_poll = c "promises_ready_on_first_poll" in
  let promises_forced_blocking = c "promises_forced_blocking" in
  let syncs_sent = h "syncs_sent" in
  let syncs_elided = h "syncs_elided" in
  let eve_lookups = c "eve_lookups" in
  let wait_retries = c "wait_retries" in
  let handler_wakeups = h "handler_wakeups" in
  let batched_requests = h "batched_requests" in
  let ends_drained = c "ends_drained" in
  let handler_failures = c "handler_failures" in
  let poisoned_registrations = c "poisoned_registrations" in
  let rejected_promises = c "rejected_promises" in
  let aborted_requests = c "aborted_requests" in
  let timer_arms = c "timer_arms" in
  let timeouts_fired = c "timeouts_fired" in
  let deadline_exceeded = c "deadline_exceeded" in
  let shed_requests = c "shed_requests" in
  let remote_requests = c "remote_requests" in
  let remote_replies = c "remote_replies" in
  let remote_failures = c "remote_failures" in
  let hist = Qs_obs.Histogram.registry () in
  let hg name = Qs_obs.Histogram.make hist name in
  let h_call_local = hg "call_local_ns" in
  let h_query_local = hg "query_local_ns" in
  let h_pipelined_local = hg "pipelined_local_ns" in
  let h_call_remote = hg "call_remote_ns" in
  let h_query_remote = hg "query_remote_ns" in
  let h_pipelined_remote = hg "pipelined_remote_ns" in
  let h_queue_wait = hg "queue_wait_ns" in
  let h_exec = hg "exec_ns" in
  {
    registry;
    processors;
    reservations;
    multi_reservations;
    calls;
    queries;
    packaged_queries;
    promises_created;
    promises_fulfilled;
    promises_ready_on_first_poll;
    promises_forced_blocking;
    syncs_sent;
    syncs_elided;
    eve_lookups;
    wait_retries;
    handler_wakeups;
    batched_requests;
    ends_drained;
    handler_failures;
    poisoned_registrations;
    rejected_promises;
    aborted_requests;
    timer_arms;
    timeouts_fired;
    deadline_exceeded;
    shed_requests;
    remote_requests;
    remote_replies;
    remote_failures;
    hist;
    h_call_local;
    h_query_local;
    h_pipelined_local;
    h_call_remote;
    h_query_remote;
    h_pipelined_remote;
    h_queue_wait;
    h_exec;
  }

let registry t = t.registry
let assoc t = Qs_obs.Counter.snapshot t.registry
let histograms t = t.hist
let hist_assoc t = Qs_obs.Histogram.snapshot t.hist

let ratio num den =
  if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Mean requests delivered per handler wakeup: the batching efficiency
   of the drain-based handler loop (1.0 = one request per park/unpark,
   the pre-batching behaviour). *)
let mean_batch s =
  let v = Qs_obs.Counter.value s in
  ratio (v "batched_requests") (v "handler_wakeups")

(* Fraction of forced promises whose value was already there: how much
   of the pipelined round-trip latency was fully overlapped. *)
let overlap_ratio s =
  let v = Qs_obs.Counter.value s in
  let ready = v "promises_ready_on_first_poll" in
  ratio ready (ready + v "promises_forced_blocking")
