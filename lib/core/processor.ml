(* SCOOP processors ("handlers"): one fiber per processor executing the
   main handler loop of Fig. 7.

   The handler loop itself is communication-structure agnostic: it is one
   generic loop over a [mailbox] — a blocking batched-drain view of the
   processor's request stream.  The runtime configuration picks which
   structure backs the mailbox:

   - queue-of-queues mode (Fig. 4): an MPSC queue of private queues.  The
     mailbox dequeues private queues in registration (FIFO) order and
     drains requests from the current one until its [End] marker — the
     run / end rules of the operational semantics.

   - lock-based mode (Fig. 2, the original SCOOP structure used as the
     `None` baseline): a handler mutex serializing clients plus a single
     request queue the mailbox drains directly.

   Batching is the loop's performance lever: each wakeup drains up to
   [Config.batch] requests under a single consumer-side synchronization
   before the handler parks again, so a burst of client calls costs one
   park/unpark transition instead of one per request.  [Stats] records
   wakeups and delivered requests, making the batch efficiency
   observable ([Stats.mean_batch] over a registry snapshot of the
   [handler_wakeups] and [batched_requests] counters).

   Failures are first-class: a request whose closure raises has the
   exception routed into its typed completion (poisoning the call's
   registration, rejecting the query's ivar or the pipelined promise)
   instead of dying in a log line, and the processor remembers that it
   has ever failed so its terminal lifecycle state is [Failed] rather
   than [Stopped].  Discarded and shed requests fail through the same
   completion, with [Aborted] / [Overloaded].

   The lifecycle is an explicit state machine:

       Running --shutdown/abort--> Draining --loop exit--> Stopped/Failed

   [shutdown] is the graceful half (serve everything already logged, then
   stop); [abort] additionally discards still-pending requests,
   failing their completions with [Aborted].  [await_stopped] blocks on
   the exit latch the handler fiber fills when its loop returns.

   The EVE configuration (§4.5) charges every executed call with a
   shadow-stack update, modelling the GC discipline that EiffelStudio
   imposes on the retrofitted runtime. *)

type pq = Request.t Qs_sched.Bqueue.Spsc.t (* a registration's private queue *)

type lifecycle = Running | Draining | Stopped | Failed

exception Aborted of int
exception Overloaded of int

let () =
  Printexc.register_printer (function
    | Aborted id -> Some (Printf.sprintf "Scoop.Processor.Aborted(%d)" id)
    | Overloaded id -> Some (Printf.sprintf "Scoop.Processor.Overloaded(%d)" id)
    | _ -> None)

(* How a remote processor is reached, supplied by the remote client
   layer.  [rem_open ~poison] opens one registration on the node and
   returns its enqueue: the requests a local registration logs into a
   private queue go into the node connection instead. *)
type remote_ops = {
  rem_node : string; (* address label, for errors and pp *)
  rem_open :
    poison:(exn -> Printexc.raw_backtrace -> unit) -> Request.t -> unit;
}

(* The two communication structures of the paper, as one closed variant:
   every other module goes through the accessors below, so adding a new
   structure (sharded queues, remote handlers) only touches this file.
   [Remote] is the distributed case: the processor is a client-side
   stand-in whose requests travel over a connection — it has no local
   mailbox and no handler fiber (those live on the node). *)
type comm =
  | Qoq of {
      qoq : pq Qs_sched.Bqueue.Mpsc.t; (* queue of private queues (Fig. 4) *)
      cache : pq Qs_queues.Treiber_stack.t; (* recycled private queues (§3.2) *)
    }
  | Direct of {
      q : Request.t Qs_sched.Bqueue.Mpsc.t; (* single request queue (Fig. 2) *)
      lock : Qs_sched.Fiber_mutex.t; (* handler lock serializing clients *)
    }
  | Remote of remote_ops

type t = {
  id : int;
  config : Config.t;
  stats : Stats.t;
  trace : Trace.t option; (* the runtime's shared event sink, if any *)
  comm : comm;
  spinlock : Qs_queues.Spinlock.t; (* multi-reservation spinlock (§3.3) *)
  shadow : int array; (* EVE shadow stack simulation *)
  mutable shadow_top : int;
  state : lifecycle Atomic.t;
  aborted : bool Atomic.t; (* discard instead of serve from now on *)
  failed : bool Atomic.t; (* any handler-side closure ever raised *)
  stream_closed : bool Atomic.t; (* close the request stream exactly once *)
  exited : unit Qs_sched.Ivar.t; (* filled when the handler fiber returns *)
  (* backpressure accounting, used only when [config.bound > 0] *)
  pending : int Atomic.t; (* admitted requests not yet drained *)
  shed_debt : int Atomic.t; (* drained requests still owed a shedding *)
  (* Wait-condition wake-ups: [changes] counts the registrations whose
     [End] announced a change; [waiters] holds the resumers of the wait
     conditions parked on this handler (see [announce]). *)
  changes : int Atomic.t;
  waiters : Qs_sched.Sched.resumer list Atomic.t;
  (* Registrations whose [End] a client has logged ([release]) and the
     handler has not yet drained: how far the handler is behind.  A hint
     for [release], never a bound; remote processors leave it at 0. *)
  behind : int Atomic.t;
  (* The handler's current notion of "now" (ns), used as the service
     start stamp of the next request it serves: refreshed once per
     drained batch and after every completed request, so latency
     recording costs exactly one clock read per request — the
     completion stamp, which doubles as the successor's start stamp.
     Handler-fiber only. *)
  mutable h_now : int;
}

(* The handler's view of its request stream.  [drain buf] blocks until at
   least one request is pending, moves a batch into [buf], and returns the
   count; 0 means closed-and-drained (shutdown).  [quiet] is the drained
   hint probe: does the stream currently hold no further requests beyond
   the batch being served?  (For queue-of-queues: the current private
   queue; for lock mode: the whole request queue.)  Optimism is fine —
   the client-side watermark check in [Registration] is the authority. *)
type mailbox = { drain : Request.t array -> int; quiet : unit -> bool }

let trace_event t ~reg kind =
  match t.trace with
  | Some tr -> Trace.record tr ~proc:t.id ~client:reg kind
  | None -> ()

(* Latency recording at request completion, into the per-class
   histogram [h] (birth -> done) plus the two pipeline-splitting ones
   (admitted -> served, served -> done).  Control requests (Sync, End)
   and the discard/shed paths never record and never refresh [h_now];
   their cost lands in the next request's queueing time, keeping them
   off the clock-read budget. *)
let record_served t h ~birth ~admit =
  let served = t.h_now in
  let done_ = Qs_obs.Clock.now_ns () in
  t.h_now <- done_;
  Qs_obs.Histogram.record h (done_ - birth);
  Qs_obs.Histogram.record t.stats.Stats.h_queue_wait (served - admit);
  Qs_obs.Histogram.record t.stats.Stats.h_exec (done_ - served)

let log_failure t req e =
  Logs.err (fun m ->
    m "scoop: processor %d: %a raised %s" t.id Request.pp req
      (Printexc.to_string e))

(* Deliver a failure into a request's typed completion without running
   it: a call poisons its registration, a blocking query rejects the
   client's ivar, a pipelined query rejects its promise.  The one fail
   path, shared by handler failures, abort and shedding.  Guarded: a
   completion must never kill the handler loop. *)
let fail t req e bt =
  match req with
  | Request.Call { poison; _ } -> (
    try poison e bt with e2 -> log_failure t req e2)
  | Request.Query { result; _ } ->
    ignore (Qs_sched.Ivar.try_fill_error ~bt result e : bool)
  | Request.Pipelined { promise; reg; _ } ->
    if Qs_sched.Promise.try_fulfill_error ~bt promise e then begin
      Qs_obs.Counter.incr t.stats.Stats.rejected_promises;
      trace_event t ~reg Trace.Promise_rejected
    end
  | Request.Sync _ | Request.End _ -> ()

(* Run a request and deliver its value.  A pipelined query fulfilled at
   the tail of a batch with nothing further pending ([last]/[quiet])
   marks its promise drained {e before} fulfilment, so a forcing client
   can elide its sync re-establishment round trip (dynamic sync
   coalescing, §3.4.1, generalized to the handler side).  A traced call
   records its queueing delay here, from the stamps [queue_wait_ns]
   uses: tracing observes the request path without changing it. *)
let perform t ~last ~quiet req =
  match req with
  | Request.Call { run; reg; admit; _ } ->
    (match t.trace with
    | Some tr ->
      Trace.record tr ~proc:t.id ~client:reg
        (Trace.Call_executed (float_of_int (t.h_now - admit) *. 1e-9))
    | None -> ());
    run ()
  | Request.Query { run; result; _ } -> Qs_sched.Ivar.fill result (run ())
  | Request.Pipelined { run; promise; _ } ->
    let v = run () in
    if last && quiet () then Qs_sched.Promise.mark_drained promise;
    Qs_sched.Promise.fulfill promise v;
    Qs_obs.Counter.incr t.stats.Stats.promises_fulfilled
  | Request.Sync _ | Request.End _ -> ()

(* Run a request; on failure count it, emit an instant, mark the
   processor dirty and route the exception into the completion. *)
let guarded t ~last ~quiet req =
  try perform t ~last ~quiet req
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Qs_obs.Counter.incr t.stats.Stats.handler_failures;
    Atomic.set t.failed true;
    trace_event t ~reg:(Request.reg req) Trace.Handler_failed;
    log_failure t req e;
    fail t req e bt

let execute t ~last ~quiet req =
  if t.config.Config.eve then begin
    (* Push a frame on the simulated shadow stack, run, pop.  The writes
       model the per-call root registration that prevented tight-loop
       optimizations in EVE (paper §4.5). *)
    let top = t.shadow_top in
    if top + 2 < Array.length t.shadow then begin
      t.shadow.(top) <- t.id;
      t.shadow.(top + 1) <- top;
      t.shadow_top <- top + 2
    end;
    guarded t ~last ~quiet req;
    t.shadow_top <- top
  end
  else guarded t ~last ~quiet req

(* Wake every wait condition parked on this handler.  The list is taken
   whole, so each resumer runs at most once per wake; a stale one (its
   wait already resumed or timed out) is a no-op. *)
let wake_waiters t =
  match Atomic.get t.waiters with
  | [] -> ()
  | _ ->
    List.iter
      (fun resume -> ignore (resume () : bool))
      (Atomic.exchange t.waiters [])

(* A registration that may have changed this handler's state has ended:
   bump the count first, then wake.  A waiter subscribes first, then
   re-reads the count ([subscribe]), so it either is in the list this
   wake takes or sees the new count — no wake-up is lost. *)
let announce t =
  Atomic.incr t.changes;
  wake_waiters t

(* One request, uniformly in both modes (the run / release / end rules). *)
let serve t ~last ~quiet req =
  match req with
  | Request.Call { birth; admit; _ } ->
    execute t ~last ~quiet req;
    record_served t t.stats.Stats.h_call_local ~birth ~admit
  | Request.Query { birth; admit; _ } ->
    execute t ~last ~quiet req;
    record_served t t.stats.Stats.h_query_local ~birth ~admit
  | Request.Pipelined { birth; admit; _ } ->
    execute t ~last ~quiet req;
    record_served t t.stats.Stats.h_pipelined_local ~birth ~admit
  | Request.Sync resume ->
    (* Release half of the wait/release pair: wake the client.  The
       scheduler's hot slot turns this into a direct handoff, and the
       client was suspended when it logged this request, so nothing can
       follow it in the already-drained batch. *)
    ignore (resume () : bool)
  | Request.End changed ->
    (* End of one registration.  Counting it keeps the drain invariant
       observable in both modes: every registration that closes is
       eventually accounted here (the lock-based loop used to drop the
       marker silently). *)
    Qs_obs.Counter.incr t.stats.Stats.ends_drained;
    Atomic.decr t.behind;
    if changed then announce t

(* Abort path: fail requests without executing them.  Syncs are still
   resumed (a client blocked in a sync round trip must not be left
   suspended forever) and Ends still accounted, so the drain invariants
   survive an abort as far as possible. *)
let discard t req =
  match req with
  | Request.Call _ | Request.Query _ | Request.Pipelined _ ->
    Qs_obs.Counter.incr t.stats.Stats.aborted_requests;
    fail t req (Aborted t.id) (Printexc.get_callstack 0)
  | Request.Sync resume -> ignore (resume () : bool)
  | Request.End _ ->
    Qs_obs.Counter.incr t.stats.Stats.ends_drained;
    Atomic.decr t.behind

(* Backpressure: requests that count against the admission bound.  Sync
   and End are control-flow, not work — they are always admitted, always
   served. *)
let countable = function
  | Request.Call _ | Request.Query _ | Request.Pipelined _ -> true
  | Request.Sync _ | Request.End _ -> false

let rec take_debt t =
  let d = Atomic.get t.shed_debt in
  if d <= 0 then false
  else if Atomic.compare_and_set t.shed_debt d (d - 1) then true
  else take_debt t

(* Shed one request from the backlog: fail its completion with
   [Overloaded] without executing it.  For a call this poisons the
   client's registration (the dirty-processor rule — load shedding is a
   failure the client must observe); for a query it rejects the
   rendezvous.  The shed event carries the request's registration id so
   a conformance checker can attribute it to the client whose logged
   slot it consumed.  Call sheds and query sheds are distinct events:
   only a call shed consumes a logged slot and poisons the registration
   — a query shed merely rejects the rendezvous, which the awaiting
   client observes directly as [Overloaded]. *)
let shed t req =
  Qs_obs.Counter.incr t.stats.Stats.shed_requests;
  let reg = Request.reg req in
  (match req with
  | Request.Call _ -> trace_event t ~reg Trace.Request_shed
  | Request.Query _ | Request.Pipelined _ -> trace_event t ~reg Trace.Query_shed
  | Request.Sync _ | Request.End _ -> assert false);
  fail t req (Overloaded t.id) (Printexc.get_callstack 0)

(* Admission control, called by registrations before enqueueing a Call or
   Query.  With [bound = 0] (every preset) this is one branch.  Remote
   processors skip client-side admission: the bound is enforced on the
   node (its own [admit] + the serve fiber blocking on a full private
   queue + the kernel socket buffers give end-to-end backpressure). *)
let admit t =
  let cap =
    match t.comm with Remote _ -> 0 | Qoq _ | Direct _ -> t.config.Config.bound
  in
  if cap > 0 then begin
    match t.config.Config.overflow with
    | `Block ->
      (* Yield until the handler has drained below the bound.  A yield
         keeps the domain running the other fibers, and a wedged handler
         shows up as spinning clients, not a false deadlock.  Never a
         sleeping backoff: [Unix.sleepf] would stop the whole domain. *)
      let rec go () =
        if Atomic.fetch_and_add t.pending 1 >= cap then begin
          Atomic.decr t.pending;
          Qs_sched.Sched.yield ();
          go ()
        end
      in
      go ()
    | `Fail ->
      if Atomic.fetch_and_add t.pending 1 >= cap then begin
        Atomic.decr t.pending;
        Qs_obs.Counter.incr t.stats.Stats.shed_requests;
        raise (Overloaded t.id)
      end
    | `Shed_oldest ->
      (* Admit unconditionally, but every admission past the bound owes
         the backlog one shedding, paid by the handler with the oldest
         pending request. *)
      if Atomic.fetch_and_add t.pending 1 >= cap then
        Atomic.incr t.shed_debt
  end

(* The single handler loop (Fig. 7), parameterized by the mailbox. *)
let handler_loop t mailbox =
  let buf = Array.make (max 1 t.config.Config.batch) (Request.End false) in
  let quiet = mailbox.quiet in
  let rec loop () =
    match mailbox.drain buf with
    | 0 -> () (* shutdown *)
    | n ->
      Qs_obs.Counter.incr t.stats.Stats.handler_wakeups;
      Qs_obs.Counter.add t.stats.Stats.batched_requests n;
      let t0 =
        match t.trace with Some tr -> Trace.now tr | None -> 0.0
      in
      (* Service-start stamp of the batch's first request; subsequent
         requests reuse their predecessor's completion stamp. *)
      t.h_now <- Qs_obs.Clock.now_ns ();
      let bounded = t.config.Config.bound > 0 in
      (* The aborted flag is re-read per request, not per batch: an
         abort (e.g. the [Runtime.shutdown ?grace] escalation) must be
         able to discard the rest of a batch already drained. *)
      for i = 0 to n - 1 do
        let req = buf.(i) in
        let last = i = n - 1 in
        let aborted = Atomic.get t.aborted in
        if bounded && countable req then begin
          Atomic.decr t.pending;
          (* Under [`Shed_oldest] an admission past the bound left one unit
             of debt: pay it with the oldest pending request, i.e. this
             one.  Syncs and Ends are never shed — a shed Sync would fake
             an established sync, a shed End would leak a registration. *)
          if (not aborted) && take_debt t then shed t req
          else if aborted then discard t req
          else serve t ~last ~quiet req
        end
        else if aborted then discard t req
        else serve t ~last ~quiet req;
        buf.(i) <- Request.End false (* drop the closure so the GC can reclaim it *)
      done;
      (match t.trace with
      | Some tr ->
        let s = Trace.sink tr in
        (* One span per drained batch (arg = batch size): the handler-side
           counterpart of the client-side trace events. *)
        Qs_obs.Sink.complete s ~cat:"core" ~name:"batch" ~track:t.id ~arg:n
          ~ts:t0 ~dur:(Qs_obs.Sink.now s -. t0) ()
      | None -> ());
      loop ()
  in
  loop ()

(* Queue-of-queues mailbox: walk private queues in registration order,
   draining each until its [End] marker.  [End] is always the last
   request a client logs into a private queue, so it can only appear at
   the end of a drained batch — seeing it there means the queue is
   drained and abandoned by its client, and can be recycled immediately
   (paper §3.2: queues are "taken from a cache of queues").

   [quiet] probes the current private queue: with the batch in hand and
   that queue empty, the handler has drained everything its current
   client logged — the condition under which a pipelined fulfilment may
   carry the drained hint.  Between registrations ([None]) the handler
   is trivially quiet. *)
let qoq_mailbox qoq cache =
  let current = ref None in
  let rec drain buf =
    match !current with
    | None -> (
      match Qs_sched.Bqueue.Mpsc.dequeue qoq with
      | None -> 0 (* shutdown *)
      | Some pq ->
        current := Some pq;
        drain buf)
    | Some pq ->
      let n = Qs_sched.Bqueue.Spsc.drain pq buf in
      (match buf.(n - 1) with
      | Request.End _ ->
        current := None;
        Qs_queues.Treiber_stack.push cache pq
      | Request.Call _ | Request.Query _ | Request.Pipelined _ | Request.Sync _
        ->
        ());
      n
  in
  let quiet () =
    match !current with
    | None -> true
    | Some pq -> Qs_sched.Bqueue.Spsc.is_empty pq
  in
  { drain; quiet }

let direct_mailbox q =
  {
    drain = (fun buf -> Qs_sched.Bqueue.Mpsc.drain q buf);
    (* Lock mode has no per-registration stream; the whole request queue
       stands in (conservative: another client's backlog masks the
       hint, never the reverse). *)
    quiet = (fun () -> Qs_sched.Bqueue.Mpsc.is_empty q);
  }

(* The one record behind both constructors.  A remote processor has no
   handler fiber to await, so its exit latch comes pre-filled. *)
let make ?sink ~id ~config ~stats comm =
  Qs_obs.Counter.incr stats.Stats.processors;
  let local = match comm with Remote _ -> false | Qoq _ | Direct _ -> true in
  {
    id;
    config;
    stats;
    trace = Option.map Trace.of_sink sink;
    comm;
    spinlock = Qs_queues.Spinlock.create ();
    shadow = (if local && config.Config.eve then Array.make 256 0 else [||]);
    shadow_top = 0;
    state = Atomic.make Running;
    aborted = Atomic.make false;
    failed = Atomic.make false;
    stream_closed = Atomic.make false;
    exited = Qs_sched.Ivar.(if local then create () else create_full ());
    pending = Atomic.make 0;
    shed_debt = Atomic.make 0;
    changes = Atomic.make 0;
    waiters = Atomic.make [];
    behind = Atomic.make 0;
    h_now = 0;
  }

let create ?sink ~id ~config ~stats () =
  let t, mailbox =
    if Config.uses_qoq config then begin
      let qoq = Qs_sched.Bqueue.Mpsc.create ()
      and cache = Qs_queues.Treiber_stack.create () in
      let t = make ?sink ~id ~config ~stats (Qoq { qoq; cache }) in
      (t, qoq_mailbox qoq cache)
    end
    else begin
      let q = Qs_sched.Bqueue.Mpsc.create () in
      let lock = Qs_sched.Fiber_mutex.create () in
      (make ?sink ~id ~config ~stats (Direct { q; lock }), direct_mailbox q)
    end
  in
  Qs_sched.Sched.spawn (fun () ->
    Fun.protect
      ~finally:(fun () ->
        Atomic.set t.state (if Atomic.get t.failed then Failed else Stopped);
        Qs_sched.Ivar.fill t.exited ();
        (* No registration will end here again: release the parked wait
           conditions, which see the new state and give up. *)
        wake_waiters t)
      (fun () -> handler_loop t mailbox));
  t

(* A remote processor: same [t], no handler fiber — the handler runs on
   the node, and teardown of the connection is the runtime's job. *)
let create_remote ?sink ~id ~config ~stats ~ops () =
  make ?sink ~id ~config ~stats (Remote ops)

let id t = t.id

let is_remote t = match t.comm with Remote _ -> true | Qoq _ | Direct _ -> false

let remote_node t =
  match t.comm with
  | Remote ops -> Some ops.rem_node
  | Qoq _ | Direct _ -> None

let compare_by_id a b = Int.compare a.id b.id

(* -- the separate rule -------------------------------------------------------- *)

(* Reserve one handler and return the new registration's log.
   Queue-of-queues mode appends a private queue — recycled from the cache
   when there is one (§3.2) — to the queue-of-queues: one asynchronous
   enqueue that never waits (Fig. 8).  Lock mode takes the handler lock
   and logs into the single request queue.  A remote handler opens the
   registration on its node: the wire-level Open plays the private-queue
   append, and the node enters a real separate block on its side. *)
let reserve ?timeout t ~poison =
  match t.comm with
  | Qoq { qoq; cache } ->
    let pq =
      match Qs_queues.Treiber_stack.pop cache with
      | Some pq -> pq
      | None -> Qs_sched.Bqueue.Spsc.create ()
    in
    Qs_sched.Bqueue.Mpsc.enqueue qoq pq;
    Qs_sched.Bqueue.Spsc.enqueue pq
  | Direct { q; lock } ->
    (* A spent budget fails at once, without trying the lock. *)
    (match timeout with
    | Some dt when dt <= 0.0 -> raise Qs_sched.Timer.Timeout
    | _ -> Qs_sched.Fiber_mutex.lock ?timeout lock);
    Qs_sched.Bqueue.Mpsc.enqueue q
  | Remote ops -> ops.rem_open ~poison

let unlock t =
  match t.comm with
  | Direct { lock; _ } -> Qs_sched.Fiber_mutex.unlock lock
  | Qoq _ | Remote _ -> ()

(* How many registrations a client may leave undrained on a local
   handler before block exit hands the handler the worker.  8, 16 and 32
   measure alike on the Table 2 mutex and prodcons bodies; 2 switches so
   often that prodcons slows down. *)
let handoff_depth = 16

(* The paper's direct handoff (§3.2) on the client side.  On one domain
   a handler runs only when a client suspends, and a client issuing only
   asynchronous calls never does: every block's private queue and
   closures would wait in a backlog the minor GC promotes.  So a client
   that has outrun its handler by [handoff_depth] registrations yields
   once, and the handler, woken by the enqueues, gets the worker.  A
   hint, never a wait: the count only decides whether to yield, so
   [End]s dropped by a closed stream cannot wedge a client.  Remote
   handlers run on their node, whose own local processors apply this.

   [outran t] counts one logged [End] and says whether [t] is now that
   far behind. *)
let outran t =
  match t.comm with
  | Remote _ -> false
  | Qoq _ | Direct _ -> Atomic.fetch_and_add t.behind 1 + 1 >= handoff_depth

let release t =
  unlock t;
  if outran t then Qs_sched.Sched.yield ()

(* Every lock is given up before the one yield, so a client never holds
   one handler while it lets another catch up. *)
let release_many ts =
  List.iter unlock ts;
  if List.fold_left (fun yield t -> outran t || yield) false ts then
    Qs_sched.Sched.yield ()

(* Multi-reservation, the generalized separate rule (§2.4, Fig. 11): the
   reservations of all handlers must be one atomic event, or two clients'
   insertions could interleave and a later observer see the Fig. 5
   inconsistency.  Handlers are taken in id order, so reservers cannot
   deadlock each other.  Queue-of-queues reservation never waits, so the
   appends run under every handler's reservation spinlock (§3.3).  Lock
   mode takes the handler locks within one deadline; a late lock releases
   every lock already held, so a timed-out reservation leaves no handler
   reserved. *)
let reserve_many ?timeout handlers =
  let sorted = List.sort (fun (a, _) (b, _) -> compare_by_id a b) handlers in
  let direct (t, _) =
    match t.comm with Direct _ -> true | Qoq _ | Remote _ -> false
  in
  if List.exists direct handlers then begin
    let deadline = Option.map (fun dt -> Qs_sched.Timer.now () +. dt) timeout in
    let rec take held = function
      | [] -> held
      | (t, poison) :: rest -> (
        let left = Option.map (fun d -> d -. Qs_sched.Timer.now ()) deadline in
        match reserve ?timeout:left t ~poison with
        | log -> take ((t, log) :: held) rest
        | exception e ->
          (* A rollback never logged an [End]: unlock without counting. *)
          List.iter (fun (t, _) -> unlock t) held;
          raise e)
    in
    let logs = take [] sorted in
    List.map (fun (t, _) -> List.assq t logs) handlers
  end
  else begin
    List.iter (fun (t, _) -> Qs_queues.Spinlock.acquire t.spinlock) sorted;
    let logs = List.map (fun (t, poison) -> reserve t ~poison) handlers in
    List.iter (fun (t, _) -> Qs_queues.Spinlock.release t.spinlock) sorted;
    logs
  end

(* -- wait conditions ---------------------------------------------------------- *)

let changes t = Atomic.get t.changes

(* Subscribe, then re-check: a change or a shutdown that happened since
   the waiter read [seen] may have woken the list before [resume] was in
   it, so the waiter resumes itself. *)
let subscribe t resume ~seen =
  let rec push () =
    let ws = Atomic.get t.waiters in
    if not (Atomic.compare_and_set t.waiters ws (resume :: ws)) then push ()
  in
  push ();
  if Atomic.get t.changes <> seen || Atomic.get t.state <> Running then
    ignore (resume () : bool)

let rec unsubscribe t resume =
  let ws = Atomic.get t.waiters in
  if List.memq resume ws then begin
    let rest = List.filter (fun r -> r != resume) ws in
    if not (Atomic.compare_and_set t.waiters ws rest) then unsubscribe t resume
  end

(* -- lifecycle ---------------------------------------------------------------- *)

let lifecycle t = Atomic.get t.state

let close_stream t =
  (* The Bqueue close wakes the parked handler; guard so repeated
     shutdown/abort calls close exactly once. *)
  if Atomic.compare_and_set t.stream_closed false true then
    match t.comm with
    | Qoq { qoq; _ } -> Qs_sched.Bqueue.Mpsc.close qoq
    | Direct { q; _ } -> Qs_sched.Bqueue.Mpsc.close q
    | Remote _ -> () (* the stream lives on the node; teardown is the
                        connection's job *)

let shutdown t =
  ignore (Atomic.compare_and_set t.state Running Draining : bool);
  close_stream t

let abort t =
  Atomic.set t.aborted true;
  shutdown t

let await_stopped ?timeout t = Qs_sched.Ivar.read ?timeout t.exited
