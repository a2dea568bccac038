(** Client-side handle on one reserved handler within a separate block
    (the private queue pointer of paper Fig. 8).

    Obtain registrations with {!Runtime.separate} and friends; they are
    valid only inside the block's body, and all operations must be invoked
    by the fiber that entered the block. *)

exception Handler_failure of int * exn
(** A previously logged asynchronous call raised on the handler: the
    registration is {e poisoned} (SCOOP's dirty-processor rule) and every
    subsequent operation through it — and the separate block's exit —
    raises this, carrying the processor id and the original exception.
    Re-exported as [Scoop.Handler_failure]. *)

type t

val call : t -> (unit -> unit) -> unit
(** Log an asynchronous call on the handler (the call rule).  Returns
    immediately; the handler executes [f] later, in logging order.  If
    [f] raises on the handler, the registration is poisoned:
    [Handler_failure] surfaces at the next operation, sync point, or the
    separate block's exit.
    @raise Handler_failure if already poisoned. *)

val query : ?timeout:float -> t -> (unit -> 'a) -> 'a
(** Execute a synchronous query.  Depending on the runtime configuration
    this either packages [f] for the handler and waits for the result
    (Fig. 10a) or synchronizes with the handler and runs [f] on the client
    (Fig. 10b).  Either way, on return every previously logged call has
    been applied — the basis of pre/postcondition reasoning (§2.2).

    Failures are routed identically in both flavours: a raising [f]
    re-raises the exception here (the query has a rendezvous, so it does
    not poison the registration), while a failure among the previously
    logged calls raises [Handler_failure] — the earlier failure wins.

    [?timeout] (default: the configuration's [default_deadline]) bounds
    the blocking part — the result round trip (packaged flavour) or the
    sync (client-executed flavour).  At the deadline the query raises
    {!Qs_sched.Timer.Timeout} ([Scoop.Timeout]) {e without} poisoning
    the registration: the handler still serves the request, and
    subsequent operations through the handle remain valid. *)

val query_async : t -> (unit -> 'a) -> 'a Qs_sched.Promise.t
(** Issue a promise-pipelined query: package [f] for the handler and
    return immediately with a promise for its result.  The handler
    fulfils the promise when it reaches the request, so several
    pipelined queries — against one handler or many — overlap their
    round trips; force them later with {!Qs_sched.Promise.await}.

    Always packaged (Fig. 10a shape), regardless of the runtime's
    [client_query] setting: pipelining requires shipping the closure.

    If [f] raises on the handler the promise {e rejects} (counted under
    [Stats.rejected_promises]); forcing it re-raises the exception on
    the client.  Rejection does not poison the registration.

    Synced status: issuing invalidates {!is_synced} like a call does.
    Forcing the returned promise re-establishes it — equivalent to a
    blocking {!query} — provided the promise was fulfilled, nothing else
    was logged through this registration since the promise was issued
    and the separate block is still open.  A rejected promise never
    re-establishes it: shedding and abort reject without draining the
    log.  Forcing after the block closed is allowed and returns
    the value, but no longer updates the registration.

    Dynamic sync elision: the fulfilling handler records whether the registration's log was drained at fulfilment
    ({!Qs_sched.Promise.was_drained}); when it was, and the force's
    watermark check passes, and the configuration enables [dyn_sync],
    the force doubles as the sync round trip — counted under
    [Stats.syncs_elided] (and traced as [Sync_elided]). *)

val sync : ?timeout:float -> t -> unit
(** Wait until the handler has drained every request logged through this
    registration.  Elided dynamically when the configuration enables
    sync coalescing and the handler is already synced (§3.4.1).  After
    [sync] returns the client may read the handler's data directly until
    it logs the next asynchronous call.  [?timeout] (default: the
    configuration's [default_deadline]) bounds the round trip; at the
    deadline the sync raises {!Qs_sched.Timer.Timeout} without poisoning
    the registration or establishing the synced status.
    @raise Handler_failure if any previously logged call failed — the
    sync point is where a dirty handler surfaces. *)

val processor : t -> Processor.t

val rid : t -> int
(** The registration's unique id (a process-global counter starting at
    1).  Trace events emitted through this registration — and the
    requests it enqueues — carry this id, letting conformance checking
    ({!Trace.event.client}, [Qs_conform]) partition a merged trace back
    into per-registration streams.  [0] never names a registration. *)

val is_synced : t -> bool
(** Whether the handler is known to be idle w.r.t. this registration. *)

val is_poisoned : t -> bool
(** Whether a previously logged asynchronous call has failed.  Note the
    inherent asynchrony: [false] only means no failure has been {e
    observed} yet; a definitive answer needs a sync point. *)

val poisoned : t -> exn option
(** The poisoning exception, if any — what {!check_poison} would wrap in
    [Handler_failure].  Used by the node's serve loop to order a poison
    report before a completion on the reply stream. *)

val check_poison : t -> unit
(** @raise Handler_failure if the registration is poisoned.  Usable even
    after the block closed (used by {!Separate} to re-surface the poison
    at block exit). *)

(**/**)

val make :
  proc:Processor.t -> ctx:Ctx.t -> enqueue:(Request.t -> unit) -> unit -> t

val make_remote : proc:Processor.t -> ctx:Ctx.t -> unit -> t
(** Registration on a remote processor: opens a wire-level registration
    on the node ({!Processor.remote_open}) and reroutes every operation
    through the resulting proxy.  [client_query] does not apply.  The proxy's poison callback is wired to
    this registration, so the dirty-processor rule crosses the
    connection (including connection loss, which poisons with
    [Connection_lost]). *)

val mark_unchanged : t -> unit
(** The block only evaluated a failing wait condition: {!close} logs an
    [End] that announces no change, so it wakes no parked waiter. *)

val close : t -> unit
val force_sync : ?timeout:float -> t -> unit
