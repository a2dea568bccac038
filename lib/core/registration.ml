(* Client-side handle on one reserved handler within a separate block.

   A registration is what the compiled code of Fig. 8 calls the private
   queue pointer [h_p]: the client logs asynchronous calls, queries and
   sync requests through it.  It also carries the dynamically-tracked
   synced status of §3.4.1: while [synced] is true the handler is parked
   having drained everything this client logged, so a repeated sync can be
   elided and client-side reads of handler data are race-free.

   Failure discipline (SCOOP's dirty-processor rule, Morandi et al.
   arXiv:1101.1038): an asynchronous call has no rendezvous to reject, so
   when its closure raises on the handler the exception *poisons* the
   registration.  Every subsequent operation through the handle — and the
   separate block's exit — raises [Handler_failure] carrying the original
   exception.  Blocking queries and pipelined promises have a rendezvous,
   so their failures are delivered there (re-raise / rejection) and do
   not poison.  [poison] is the one field written by the handler fiber
   and read by the client, hence the [Atomic.t] (the other mutable fields
   stay single-writer on the client fiber).

   Registrations are only valid between the separate block's entry and
   exit; [call]/[query]/[sync] raise once the block has closed. *)

exception Handler_failure of int * exn

let () =
  Printexc.register_printer (function
    | Handler_failure (id, e) ->
      Some
        (Printf.sprintf "Scoop.Handler_failure(processor %d, %s)" id
           (Printexc.to_string e))
    | _ -> None)

(* Registration ids: a process-global counter starting at 1, so [0] can
   mean "unattributed" in trace events.  Every trace event a registration
   emits (and every request it enqueues) carries this id, which is what
   lets conformance checking partition a merged multi-client event stream
   back into per-registration streams. *)
let next_rid = Atomic.make 1

type t = {
  rid : int; (* unique id of this registration, for event attribution *)
  proc : Processor.t;
  ctx : Ctx.t;
  enqueue : Request.t -> unit;
  mutable synced : bool;
  mutable closed : bool;
  mutable changed : bool;
      (* what the End marker announces: cleared by [mark_unchanged] when
         the block only evaluated a failing wait condition *)
  mutable logged : int;
      (* requests logged so far; lets a forced promise prove that nothing
         was logged after it was issued (see [query_async]) *)
  poison : (exn * Printexc.raw_backtrace) option Atomic.t;
      (* first failed asynchronous call, set by the handler fiber *)
  mutable fail_to : exn -> Printexc.raw_backtrace -> unit;
      (* the [poison] completion, preallocated once per registration so
         logging a call shares one closure instead of building one each
         time; knotted right after [make] builds the record *)
  remote : Processor.reg_proxy option;
      (* [Some px] iff the reserved processor is remote: every operation
         is rerouted through the per-registration wire proxy instead of
         the local enqueue (the packaged Fig. 10a shapes, shipped) *)
}

let processor t = t.proc
let rid t = t.rid
let is_synced t = t.synced
let is_poisoned t = Atomic.get t.poison <> None
let poisoned t = Option.map fst (Atomic.get t.poison)

let check_poison t =
  match Atomic.get t.poison with
  | Some (e, _) -> raise (Handler_failure (Processor.id t.proc, e))
  | None -> ()

(* The handler-side failure completion of an asynchronous call: record
   the first failure (later ones are already-dirty, only counted at the
   processor level) and make it visible to the client. *)
let poison t e bt =
  if Atomic.compare_and_set t.poison None (Some (e, bt)) then begin
    Qs_obs.Counter.incr t.ctx.Ctx.stats.Stats.poisoned_registrations;
    match t.ctx.Ctx.trace with
    | Some tr ->
      Trace.record tr ~proc:(Processor.id t.proc) ~client:t.rid
        Trace.Registration_poisoned
    | None -> ()
  end

let make ~proc ~ctx ~enqueue () =
  let t =
    {
      rid = Atomic.fetch_and_add next_rid 1;
      proc;
      ctx;
      enqueue;
      synced = false;
      closed = false;
      changed = true;
      logged = 0;
      poison = Atomic.make None;
      fail_to = (fun _ _ -> ());
      remote = None;
    }
  in
  t.fail_to <- poison t;
  t

(* Remote registration: open the wire-level registration on the node and
   install this registration's poison completion as the proxy's poison
   callback — the demultiplexer invokes it when the node reports a
   handler failure on this stream, or when the connection is lost, so
   the dirty-processor rule crosses the connection unchanged. *)
let make_remote ~proc ~ctx () =
  let px = Processor.remote_open proc in
  let t =
    {
      rid = Atomic.fetch_and_add next_rid 1;
      proc;
      ctx;
      enqueue =
        (fun _ ->
          invalid_arg "Scoop.Registration: remote registration has no local queue");
      synced = false;
      closed = false;
      changed = true;
      logged = 0;
      poison = Atomic.make None;
      fail_to = (fun _ _ -> ());
      remote = Some px;
    }
  in
  t.fail_to <- poison t;
  px.Processor.px_on_poison t.fail_to;
  t

(* Lifecycle stamps.  [birth] is read once at operation entry; the
   second clock read for [admit] is only paid when admission can
   actually block (a bounded mailbox) — otherwise the birth stamp is
   reused and the nanoscale admit branch folds into queueing time. *)
let admit_stamp t birth =
  if t.ctx.Ctx.config.Config.bound > 0 then Qs_obs.Clock.now_ns () else birth

let touch t =
  if t.closed then
    invalid_arg "Scoop.Registration: used outside its separate block";
  check_poison t;
  match t.ctx.Ctx.eve with
  | Some eve -> Eve.lookup eve (Processor.id t.proc)
  | None -> ()

(* Effective deadline of a blocking operation: the explicit [?timeout]
   if given, else the configuration's [default_deadline]. *)
let effective_timeout t explicit =
  match explicit with
  | Some _ -> explicit
  | None -> t.ctx.Ctx.config.Config.default_deadline

(* A request-path deadline expired before fulfilment.  Deliberately no
   poisoning: a timeout is a client-side decision to stop waiting, not a
   handler failure — the handler will still serve the request, and the
   registration stays usable. *)
let timed_out t =
  let stats = t.ctx.Ctx.stats in
  Qs_obs.Counter.incr stats.Stats.timeouts_fired;
  Qs_obs.Counter.incr stats.Stats.deadline_exceeded;
  (match t.ctx.Ctx.trace with
  | Some tr ->
    Trace.record tr ~proc:(Processor.id t.proc) ~client:t.rid
      Trace.Request_timeout
  | None -> ());
  raise Qs_sched.Timer.Timeout

let trace_logged t =
  match t.ctx.Ctx.trace with
  | Some tr ->
    Trace.record tr ~proc:(Processor.id t.proc) ~client:t.rid Trace.Call_logged
  | None -> ()

let call t f =
  touch t;
  Qs_obs.Counter.incr t.ctx.Ctx.stats.Stats.calls;
  (* An asynchronous call invalidates the synced status: the handler has
     work again and may be mid-execution during subsequent client reads. *)
  t.synced <- false;
  t.logged <- t.logged + 1;
  let birth = Qs_obs.Clock.now_ns () in
  match t.remote with
  | Some px ->
    (* Remote: ship the thunk itself. *)
    trace_logged t;
    px.Processor.px_call f;
    (* Fire-and-forget: no reply carries a completion to time against,
       so the remote call histogram measures the send-side handoff
       (serialization + socket write + any transport backpressure). *)
    Qs_obs.Histogram.record t.ctx.Ctx.stats.Stats.h_call_remote
      (Qs_obs.Clock.now_ns () - birth)
  | None ->
    Processor.admit t.proc;
    let admit = admit_stamp t birth in
    (* Logged only once admitted: a call refused at admission never
       enters the log.  The handler traces its execution. *)
    trace_logged t;
    t.enqueue
      (Request.Call
         { run = f; poison = t.fail_to; reg = t.rid; birth; admit })

let force_sync ?timeout t =
  Qs_obs.Counter.incr t.ctx.Ctx.stats.Stats.syncs_sent;
  let round_trip () =
    match t.remote with
    | Some px -> (
      let timeout = effective_timeout t timeout in
      if Option.is_some timeout then
        Qs_obs.Counter.incr t.ctx.Ctx.stats.Stats.timer_arms;
      (* The wire sync: the node acknowledges once every request this
         registration logged before it has been served (the wait/release
         pair of §3.2, stretched over the connection).  A timeout leaves
         the sync outstanding node-side, exactly like the local flavour
         leaves the Sync request logged. *)
      try px.Processor.px_sync ~timeout
      with Qs_sched.Timer.Timeout -> timed_out t)
    | None -> (
      match effective_timeout t timeout with
    | None ->
      Qs_sched.Sched.suspend (fun resume -> t.enqueue (Request.Sync resume))
    | Some dt -> (
      Qs_obs.Counter.incr t.ctx.Ctx.stats.Stats.timer_arms;
      match
        Qs_sched.Sched.suspend_timeout
          (fun resume -> t.enqueue (Request.Sync resume))
          dt
      with
      | `Resumed -> ()
      | `Timed_out ->
        (* The Sync request stays logged; when the handler reaches it the
           resumer is a no-op (its claim was lost to the timer).  The
           synced status is *not* established. *)
        timed_out t))
  in
  (match t.ctx.Ctx.trace with
  | None -> round_trip ()
  | Some tr ->
    let t0 = Trace.now tr in
    round_trip ();
    Trace.record tr ~proc:(Processor.id t.proc) ~client:t.rid
      (Trace.Sync_round_trip (Trace.now tr -. t0)));
  t.synced <- true

let sync ?timeout t =
  touch t;
  (* A known-dirty registration surfaces its failure at the sync point
     without a round trip and without counting an elision: an elision
     on a poisoned registration is exactly what the conformance model
     forbids, and the round trip would learn nothing — the failure is
     already in hand, and the poison is never cleared, so raising now
     is the dirty-processor rule verbatim. *)
  check_poison t;
  if t.synced && t.ctx.Ctx.config.Config.dyn_sync then begin
    Qs_obs.Counter.incr t.ctx.Ctx.stats.Stats.syncs_elided;
    match t.ctx.Ctx.trace with
    | Some tr ->
      Trace.record tr ~proc:(Processor.id t.proc) ~client:t.rid
        Trace.Sync_elided
    | None -> ()
  end
  else force_sync ?timeout t;
  (* The sync point is where a dirty handler surfaces (SCOOP raises the
     pending exception when client and handler meet): by the time the
     round trip completed, every previously logged call has been served
     and any failure among them recorded. *)
  check_poison t

(* Tail of a packaged-flavour round trip, shared by the local and remote
   flavours: close the trace span, re-establish synced (the
   handler has drained everything logged up to the query), surface an
   earlier failed call (matching the client-executed flavour, where
   [sync] raises before [f] ever runs), then unwrap. *)
let finish_round_trip t ~t0 outcome =
  (match t.ctx.Ctx.trace with
  | Some tr ->
    Trace.record tr ~proc:(Processor.id t.proc) ~client:t.rid
      (Trace.Query_round_trip (Trace.now tr -. t0))
  | None -> ());
  t.synced <- true;
  check_poison t;
  match outcome with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(* Blocking wait on a packaged query's heap ivar. *)
let await_ivar ?timeout t result ~t0 =
  let outcome =
    match effective_timeout t timeout with
    | None -> Qs_sched.Ivar.result result
    | Some dt -> (
      Qs_obs.Counter.incr t.ctx.Ctx.stats.Stats.timer_arms;
      match Qs_sched.Ivar.result_timeout result dt with
      | Some outcome -> outcome
      | None ->
        (* The packaged call stays logged and will still run; only the
           rendezvous is abandoned.  No poisoning, no synced status. *)
        timed_out t)
  in
  finish_round_trip t ~t0 outcome

(* Remote packaged query (Fig. 10a over the wire): the producer closure
   ships to the node; the demultiplexer fills the rendezvous with the
   typed completion that came back.  [client_query] is deliberately
   ignored for remote registrations — running the producer client-side
   is meaningless when the handler's state lives in the node's globals.
   The closure is shipped as-is (no trace wrapper: a wrapper would
   capture the local trace buffer, which must not cross the wire). *)
let remote_query ?timeout t px f =
  Qs_obs.Counter.incr t.ctx.Ctx.stats.Stats.packaged_queries;
  let t0 =
    match t.ctx.Ctx.trace with Some tr -> Trace.now tr | None -> 0.0
  in
  t.logged <- t.logged + 1;
  let timeout = effective_timeout t timeout in
  if Option.is_some timeout then
    Qs_obs.Counter.incr t.ctx.Ctx.stats.Stats.timer_arms;
  let outcome =
    match px.Processor.px_query ~timeout f with
    | v -> Ok v
    | exception Qs_sched.Timer.Timeout ->
      (* The wire request stays outstanding node-side and will still be
         served; only the rendezvous is abandoned (same contract as the
         local packaged flavour). *)
      timed_out t
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  finish_round_trip t ~t0 outcome

let query ?timeout t f =
  touch t;
  Qs_obs.Counter.incr t.ctx.Ctx.stats.Stats.queries;
  match t.remote with
  | Some px ->
    Obj.obj
      (remote_query ?timeout t px
         (Obj.magic (f : unit -> _) : unit -> Obj.t))
  | None ->
  let birth = Qs_obs.Clock.now_ns () in
  if t.ctx.Ctx.config.Config.client_query then begin
    (* Modified query rule (§3.2): synchronize, then run [f] on the client.
       No packaging, no result transfer, and the OCaml compiler sees the
       call statically.  A raising [f] raises here naturally; a failure
       among the previously logged calls surfaces from [sync].  The
       deadline bounds the sync round trip — the only blocking part.
       No handler request exists to stamp, so the client records the
       whole sync-then-run latency itself. *)
    sync ?timeout t;
    let v = f () in
    Qs_obs.Histogram.record t.ctx.Ctx.stats.Stats.h_query_local
      (Qs_obs.Clock.now_ns () - birth);
    v
  end
  else begin
    (* Original rule (Fig. 10a): package the call, round-trip the result.
       A raising [f] rejects the rendezvous and re-raises here, making
       the packaged flavour observably identical to the client-executed
       one. *)
    Qs_obs.Counter.incr t.ctx.Ctx.stats.Stats.packaged_queries;
    let t0 =
      match t.ctx.Ctx.trace with Some tr -> Trace.now tr | None -> 0.0
    in
    t.logged <- t.logged + 1;
    Processor.admit t.proc;
    let admit = admit_stamp t birth in
    let result = Qs_sched.Ivar.create () in
    t.enqueue (Request.Query { run = f; result; reg = t.rid; birth; admit });
    await_ivar ?timeout t result ~t0
  end

(* Promise-pipelined query (the deferred flavour of Fig. 10a): package
   [f], enqueue it, and hand the client a promise instead of blocking on
   the round trip.  The handler fulfils the promise when it reaches the
   request, so k pipelined queries against k handlers overlap their
   round trips — forcing any of them costs at most the slowest handler,
   not the sum.

   A raising [f] rejects the promise (counted under [rejected_promises]);
   forcing it re-raises on the client.  The rendezvous still happened, so
   rejection does not poison the registration.

   Synced-status rules (§3.4.1 extended to deferred rendezvous): issuing
   the query invalidates [synced] exactly like a call, because the
   handler has pending work again.  Forcing a fulfilled promise
   re-establishes [synced] — the handler has provably drained everything
   logged up to the query — but only if nothing was logged through this
   registration in between (checked via the [logged] watermark) and the
   block is still open.  A rejected promise never does: shedding and
   abort reject without draining.  The [synced] write happens in the promise's force hook,
   which runs on the forcing client fiber, never on the handler: the
   field stays single-writer. *)
let query_async t f =
  touch t;
  Qs_obs.Counter.incr t.ctx.Ctx.stats.Stats.queries;
  Qs_obs.Counter.incr t.ctx.Ctx.stats.Stats.promises_created;
  t.synced <- false;
  t.logged <- t.logged + 1;
  let mark = t.logged in
  let stats = t.ctx.Ctx.stats in
  let trace = t.ctx.Ctx.trace in
  let proc = Processor.id t.proc in
  let rid = t.rid in
  let dyn = t.ctx.Ctx.config.Config.dyn_sync in
  (* The hook must consult the promise it belongs to (for the handler's
     drained hint), so knot it through a slot. *)
  let promise_slot = ref None in
  let on_force was_ready =
    Qs_obs.Counter.incr
      (if was_ready then stats.Stats.promises_ready
       else stats.Stats.promises_blocked);
    match !promise_slot with
    | Some p
      when (not t.closed) && t.logged = mark
           && not (Qs_sched.Promise.is_rejected p) -> (
      (* Only a fulfilled promise proves the handler reached the query:
         a rejection may come from shedding or abort, which discard the
         request without draining anything before it. *)
      t.synced <- true;
      (* Dynamic handler-side sync elision (§3.4.1 generalized to
         pipelined traffic): the handler saw a drained log at
         fulfilment and the watermark proves nothing was logged
         since, so this force doubles as the sync — the separate
         round trip that would re-establish synced status is
         skipped, and counted as elided. *)
      if dyn && Qs_sched.Promise.was_drained p && Atomic.get t.poison = None
      then begin
        (* Never counted on a dirty registration: an elision there
           would claim a sync the conformance model forbids — the
           pending failure still has to surface at a real sync point. *)
        Qs_obs.Counter.incr stats.Stats.syncs_elided;
        match trace with
        | Some tr -> Trace.record tr ~proc ~client:rid Trace.Sync_elided
        | None -> ()
      end)
    | _ -> ()
  in
  let promise =
    match t.remote with
    | Some px ->
      (* Remote pipelined query: the proxy ships the producer and hands
         back the promise the demultiplexer will fulfil.  The drained
         hint is not forwarded over the wire, so [was_drained] stays
         false and forcing never elides a remote sync — conservative,
         and correct.  The proxy is untyped (its closures cross the
         wire), so producer and promise go through the uniform-
         representation coercion, paired at this one typed call site. *)
      (Obj.magic
         (px.Processor.px_query_async
            (Obj.magic (f : unit -> _) : unit -> Obj.t)
            ~on_force)
        : _ Qs_sched.Promise.t)
    | None -> Qs_sched.Promise.create ~on_force ()
  in
  promise_slot := Some promise;
  (match trace with
  | Some tr ->
    (* Span from issue to fulfilment: the handler-side pipeline latency,
       recorded by the fulfilling handler via the completion callback. *)
    let t0 = Trace.now tr in
    Qs_sched.Promise.on_fulfill promise (fun _ ->
      Trace.record tr ~proc ~client:rid
        (Trace.Query_pipelined (Trace.now tr -. t0)))
  | None -> ());
  (match t.remote with
  | Some _ -> () (* already shipped through the proxy, which stamps and
                    records the wire round trip itself *)
  | None ->
    let birth = Qs_obs.Clock.now_ns () in
    Processor.admit t.proc;
    let admit = admit_stamp t birth in
    t.enqueue (Request.Pipelined { run = f; promise; reg = rid; birth; admit }));
  promise

let mark_unchanged t = t.changed <- false

(* Block exit: append the END marker in both modes (the end rule),
   announcing whether the block may have changed the handler's state.  In
   queue-of-queues mode it makes the handler recycle the private queue and
   move on to the next one; in lock mode the caller (Separate) additionally
   releases the handler lock, and the marker keeps registration boundaries
   visible to the handler loop (and counted in [Stats.ends_drained])
   instead of being silently dropped.  Deliberately no poison check here:
   [close] runs in the block's [finally], and Separate re-surfaces the
   poison *after* the block has fully exited. *)
let close t =
  if t.closed then invalid_arg "Scoop.Registration: closed twice";
  t.closed <- true;
  match t.remote with
  | Some px -> px.Processor.px_close ()
  | None -> t.enqueue (Request.End t.changed)
