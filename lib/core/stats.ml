(* Runtime instrumentation (the "SCOOP-specific instrumentation" the paper
   lists as future work in §7).

   Since the qs_obs refactor this module is a thin compatibility view
   over a [Qs_obs.Counter] registry: every counter is registered by name
   in [t.registry], bumped on the hot paths with one atomic increment,
   and the historical record-shaped [snapshot]/[diff]/[mean_batch] API is
   preserved on top for the benchmark harness and tests.  New consumers
   (the bench JSON output, the Chrome trace export) should prefer the
   registry view ({!assoc}), which needs no per-counter plumbing. *)

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
  promises_ready : Qs_obs.Counter.t; (* promises resolved before first force *)
  promises_blocked : Qs_obs.Counter.t; (* promises whose force blocked *)
  syncs_sent : Qs_obs.Counter.t; (* sync round trips actually performed *)
  syncs_elided : Qs_obs.Counter.t; (* syncs skipped by dynamic coalescing *)
  eve_lookups : Qs_obs.Counter.t; (* simulated handler-table lookups (§4.5) *)
  wait_retries : Qs_obs.Counter.t; (* failed wait-condition evaluations *)
  wait_backoffs : Qs_obs.Counter.t; (* wait retries under escalated backoff *)
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
  let promises_ready = c "promises_ready_on_first_poll" in
  let promises_blocked = c "promises_forced_blocking" in
  let syncs_sent = h "syncs_sent" in
  let syncs_elided = h "syncs_elided" in
  let eve_lookups = c "eve_lookups" in
  let wait_retries = c "wait_retries" in
  let wait_backoffs = c "wait_backoffs" in
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
    promises_ready;
    promises_blocked;
    syncs_sent;
    syncs_elided;
    eve_lookups;
    wait_retries;
    wait_backoffs;
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

type snapshot = {
  s_processors : int;
  s_reservations : int;
  s_multi_reservations : int;
  s_calls : int;
  s_queries : int;
  s_packaged_queries : int;
  s_promises_created : int;
  s_promises_fulfilled : int;
  s_promises_ready : int;
  s_promises_blocked : int;
  s_syncs_sent : int;
  s_syncs_elided : int;
  s_eve_lookups : int;
  s_wait_retries : int;
  s_wait_backoffs : int;
  s_handler_wakeups : int;
  s_batched_requests : int;
  s_ends_drained : int;
  s_handler_failures : int;
  s_poisoned_registrations : int;
  s_rejected_promises : int;
  s_aborted_requests : int;
  s_timer_arms : int;
  s_timeouts_fired : int;
  s_deadline_exceeded : int;
  s_shed_requests : int;
  s_remote_requests : int;
  s_remote_replies : int;
  s_remote_failures : int;
}

let snapshot t =
  let g = Qs_obs.Counter.get in
  {
    s_processors = g t.processors;
    s_reservations = g t.reservations;
    s_multi_reservations = g t.multi_reservations;
    s_calls = g t.calls;
    s_queries = g t.queries;
    s_packaged_queries = g t.packaged_queries;
    s_promises_created = g t.promises_created;
    s_promises_fulfilled = g t.promises_fulfilled;
    s_promises_ready = g t.promises_ready;
    s_promises_blocked = g t.promises_blocked;
    s_syncs_sent = g t.syncs_sent;
    s_syncs_elided = g t.syncs_elided;
    s_eve_lookups = g t.eve_lookups;
    s_wait_retries = g t.wait_retries;
    s_wait_backoffs = g t.wait_backoffs;
    s_handler_wakeups = g t.handler_wakeups;
    s_batched_requests = g t.batched_requests;
    s_ends_drained = g t.ends_drained;
    s_handler_failures = g t.handler_failures;
    s_poisoned_registrations = g t.poisoned_registrations;
    s_rejected_promises = g t.rejected_promises;
    s_aborted_requests = g t.aborted_requests;
    s_timer_arms = g t.timer_arms;
    s_timeouts_fired = g t.timeouts_fired;
    s_deadline_exceeded = g t.deadline_exceeded;
    s_shed_requests = g t.shed_requests;
    s_remote_requests = g t.remote_requests;
    s_remote_replies = g t.remote_replies;
    s_remote_failures = g t.remote_failures;
  }

let diff later earlier =
  {
    s_processors = later.s_processors - earlier.s_processors;
    s_reservations = later.s_reservations - earlier.s_reservations;
    s_multi_reservations =
      later.s_multi_reservations - earlier.s_multi_reservations;
    s_calls = later.s_calls - earlier.s_calls;
    s_queries = later.s_queries - earlier.s_queries;
    s_packaged_queries = later.s_packaged_queries - earlier.s_packaged_queries;
    s_promises_created = later.s_promises_created - earlier.s_promises_created;
    s_promises_fulfilled =
      later.s_promises_fulfilled - earlier.s_promises_fulfilled;
    s_promises_ready = later.s_promises_ready - earlier.s_promises_ready;
    s_promises_blocked = later.s_promises_blocked - earlier.s_promises_blocked;
    s_syncs_sent = later.s_syncs_sent - earlier.s_syncs_sent;
    s_syncs_elided = later.s_syncs_elided - earlier.s_syncs_elided;
    s_eve_lookups = later.s_eve_lookups - earlier.s_eve_lookups;
    s_wait_retries = later.s_wait_retries - earlier.s_wait_retries;
    s_wait_backoffs = later.s_wait_backoffs - earlier.s_wait_backoffs;
    s_handler_wakeups = later.s_handler_wakeups - earlier.s_handler_wakeups;
    s_batched_requests = later.s_batched_requests - earlier.s_batched_requests;
    s_ends_drained = later.s_ends_drained - earlier.s_ends_drained;
    s_handler_failures = later.s_handler_failures - earlier.s_handler_failures;
    s_poisoned_registrations =
      later.s_poisoned_registrations - earlier.s_poisoned_registrations;
    s_rejected_promises = later.s_rejected_promises - earlier.s_rejected_promises;
    s_aborted_requests = later.s_aborted_requests - earlier.s_aborted_requests;
    s_timer_arms = later.s_timer_arms - earlier.s_timer_arms;
    s_timeouts_fired = later.s_timeouts_fired - earlier.s_timeouts_fired;
    s_deadline_exceeded =
      later.s_deadline_exceeded - earlier.s_deadline_exceeded;
    s_shed_requests = later.s_shed_requests - earlier.s_shed_requests;
    s_remote_requests = later.s_remote_requests - earlier.s_remote_requests;
    s_remote_replies = later.s_remote_replies - earlier.s_remote_replies;
    s_remote_failures = later.s_remote_failures - earlier.s_remote_failures;
  }

(* Mean requests delivered per handler wakeup: the batching efficiency
   of the drain-based handler loop (1.0 = one request per park/unpark,
   the pre-batching behaviour). *)
let mean_batch s =
  if s.s_handler_wakeups = 0 then 0.0
  else float_of_int s.s_batched_requests /. float_of_int s.s_handler_wakeups

(* Fraction of forced promises whose value was already there: how much
   of the pipelined round-trip latency was fully overlapped. *)
let overlap_ratio s =
  let forced = s.s_promises_ready + s.s_promises_blocked in
  if forced = 0 then 0.0
  else float_of_int s.s_promises_ready /. float_of_int forced

let pp_snapshot ppf s =
  Format.fprintf ppf
    "@[<v>processors:        %d@,\
     reservations:      %d (multi: %d)@,\
     async calls:       %d@,\
     queries:           %d (packaged: %d, pipelined: %d)@,\
     promises:          %d fulfilled, %d ready on first poll, %d forced blocking@,\
     syncs sent:        %d@,\
     syncs elided:      %d@,\
     eve lookups:       %d@,\
     wait retries:      %d (backoff escalations: %d)@,\
     handler wakeups:   %d (requests: %d, mean batch: %.2f)@,\
     ends drained:      %d@,\
     handler failures:  %d (poisoned regs: %d, rejected promises: %d, aborted: %d)@,\
     deadlines:         %d armed, %d fired, %d exceeded@,\
     shed requests:     %d@,\
     remote:            %d requests, %d replies, %d failures@]"
    s.s_processors s.s_reservations s.s_multi_reservations s.s_calls
    s.s_queries s.s_packaged_queries s.s_promises_created
    s.s_promises_fulfilled s.s_promises_ready s.s_promises_blocked
    s.s_syncs_sent s.s_syncs_elided s.s_eve_lookups s.s_wait_retries
    s.s_wait_backoffs s.s_handler_wakeups s.s_batched_requests (mean_batch s)
    s.s_ends_drained s.s_handler_failures s.s_poisoned_registrations
    s.s_rejected_promises s.s_aborted_requests s.s_timer_arms
    s.s_timeouts_fired s.s_deadline_exceeded s.s_shed_requests
    s.s_remote_requests s.s_remote_replies s.s_remote_failures
