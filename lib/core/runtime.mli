(** SCOOP/Qs runtime: processor creation, separate blocks, lifecycle.

    Typical use:
    {[
      Scoop.Runtime.run (fun rt ->
        let worker = Scoop.Runtime.processor rt in
        let counter = Scoop.Shared.create worker 0 in
        Scoop.Runtime.separate rt worker (fun reg ->
          Scoop.Shared.apply reg counter (fun c -> incr c_ref);
          Scoop.Shared.get reg counter (fun c -> c)))
    ]} *)

type t

val create : ?config:Config.t -> ?obs:Qs_obs.Sink.t -> unit -> t
(** Create a runtime inside an already-running scheduler.  [config]
    defaults to {!Config.all} (the full SCOOP/Qs runtime); derive
    variations with the builder chain, e.g.
    [~config:Config.(all |> with_batch 8 |> with_deadline 0.5)].
    [config.trace] ({!Config.with_trace}) enables detailed event tracing
    (see {!Trace}) over a fresh private sink, while [obs] (which implies
    tracing) supplies the sink — pass the sink already attached to the
    scheduler to get all layers' events in one place.

    With [config.endpoint = Connect addrs] (see {!Config.remote}), the
    runtime connects to those nodes up front and every subsequent
    {!processor} is a client-side proxy whose handler runs remotely —
    in that case [create] must be called inside a running scheduler
    (as {!run} arranges). *)

val run :
  ?domains:int ->
  ?config:Config.t ->
  ?grace:float ->
  ?obs:Qs_obs.Sink.t ->
  ?on_counters:(Qs_sched.Sched.counters -> unit) ->
  (t -> 'a) ->
  'a
(** Start a scheduler, create a runtime, run [main], then shut the
    processors down.  Any fiber spawned by [main] should be joined before
    [main] returns.  A deadlocked program raises {!Qs_sched.Sched.Stalled}
    (see paper §2.5).  [grace] is passed to {!shutdown}.

    With [config.trace] (or an explicit [~obs] sink) the whole stack is
    instrumented into one shared sink: scheduler workers record
    dispatch/park spans and steal/handoff instants (["sched"]), handlers
    record per-batch spans (["core"]), client operations record
    reserve/call/sync/query events (["client"]/["core"]) — see
    {!Qs_obs.Chrome} for exporting it. *)

val processor : t -> Processor.t
(** Spawn a new processor (handler fiber).  On a runtime with a
    [Connect] endpoint, the processor is instead a remote proxy: its
    handler runs on the node the static shard map routes this
    processor id to (id mod connection count). *)

val is_remote : t -> bool
(** Whether this runtime's processors are remote proxies
    ([config.endpoint] is [Connect]). *)

val shutdown_nodes : t -> unit
(** Ask every connected node {e process} to stop serving once its
    connections drain (pairs with [Scoop.Remote.listen] returning on the
    node side).  No-op on an in-process runtime. *)

val processors : t -> int -> Processor.t list

val separate : ?timeout:float -> t -> Processor.t -> (Registration.t -> 'a) -> 'a
(** [separate rt h body] is SCOOP's [separate h do body end]. *)

val separate2 :
  ?timeout:float -> t -> Processor.t -> Processor.t ->
  (Registration.t -> Registration.t -> 'a) -> 'a
(** Atomic two-handler reservation (paper §2.4, Fig. 11). *)

val separate_list :
  ?timeout:float -> t -> Processor.t list -> (Registration.t list -> 'a) -> 'a
(** Atomic multi-handler reservation.  Multi-reservation ([separate2],
    [separate_list] and [separate_list_when]) is a local protocol:
    remote proxies (see {!is_remote}) cannot take part, and passing one
    raises [Scoop.Remote_error] naming the offending processors before
    anything has been reserved. *)

val separate_when :
  ?timeout:float ->
  t -> Processor.t -> pred:(Registration.t -> bool) -> (Registration.t -> 'a) -> 'a
(** Separate block with a wait condition (SCOOP's precondition-as-wait
    semantics): the block body runs only once [pred] holds, evaluated
    under the block's own registration; until then the reservation is
    released.  [pred] must be a side-effect-free read of the reserved
    handler's state: after a failed evaluation the client parks until
    the handler ends another client's registration, and only then
    re-evaluates (a wait on a remote processor polls instead).  The
    failed evaluations are counted in {!Stats.t.wait_retries}.  A
    parked wait whose handler stops raises {!Processor.Aborted}; an
    untimed wait nothing can satisfy is a deadlock
    ({!Qs_sched.Sched.Stalled}).

    For every [separate*] function, [?timeout] bounds the blocking part
    of reservation (handler locks in lock mode; the whole retry loop for
    the wait-condition variants, as an absolute deadline fixed at entry)
    and raises {!Qs_sched.Timer.Timeout} ([Scoop.Timeout]) at the
    deadline with no handler left reserved. *)

val separate_list_when :
  ?timeout:float ->
  t ->
  Processor.t list ->
  pred:(Registration.t list -> bool) ->
  (Registration.t list -> 'a) ->
  'a

val shutdown : ?grace:float -> t -> unit
(** Graceful drain of every processor created so far: close their
    request streams, then await each handler's completion latch.  When
    it returns, every handler fiber has exited ([Stopped] or [Failed])
    and all {!Stats} counters are final.  Idempotent — a second call is
    a no-op; done automatically when {!run}'s [main] returns normally
    (on an exceptional exit the streams are closed but not awaited, so a
    wedged client fiber cannot hang the error path).

    [?grace] bounds the drain: handlers still running that many seconds
    after the streams closed are escalated to {!abort} — their remaining
    packaged requests fail with {!Processor.Aborted} — and then awaited.
    The grace period bounds the backlog, not a single wedged closure. *)

val abort : t -> unit
(** Like {!shutdown}, but processors {e abort}: still-pending packaged
    requests are discarded unexecuted, failing their completions with
    {!Processor.Aborted} (counted under [Stats.aborted_requests]). *)

val config : t -> Config.t
val stats : t -> Stats.t

(**/**)

val ctx : t -> Ctx.t
(** The runtime's client-operation context — internal; used by the node
    serve loop to enter separate blocks on behalf of remote clients. *)

(**/**)

val trace : t -> Trace.t option
(** The event trace, when the runtime was created with [config.trace]
    or [~obs]. *)

val obs : t -> Qs_obs.Sink.t option
(** The shared observability sink behind {!trace}, for whole-stack
    exports ({!Qs_obs.Chrome}) and track summaries. *)
