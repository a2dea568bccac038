(** SCOOP processors (handlers): one fiber per processor running the
    handler loop of paper Fig. 7.

    The loop is a single generic drain loop parameterized by a {e mailbox}
    — a blocking batched view of the processor's request stream.  The
    configuration selects what backs it: the queue-of-queues of Fig. 4
    ([`Qoq]) or the original lock-plus-single-queue structure of Fig. 2
    ([`Direct]).  Each wakeup drains up to [Config.batch] requests.

    Create processors through {!Runtime.processor}; client-side access goes
    through {!Separate} blocks and {!Registration} operations, which
    reserve and release handlers through {!reserve}, {!reserve_many} and
    {!release} whatever the mailbox. *)

type lifecycle =
  | Running  (** serving requests *)
  | Draining  (** stream closed; serving what was already logged *)
  | Stopped  (** handler fiber exited cleanly *)
  | Failed  (** handler fiber exited after at least one closure raised *)

exception Aborted of int
(** Failure completion delivered to requests discarded by {!abort}
    (argument: processor id). *)

exception Overloaded of int
(** A bounded mailbox refused or shed a request (argument: processor
    id).  Raised at admission under [`Fail]; delivered as the failure
    completion of shed requests under [`Shed_oldest]. *)

type remote_ops = {
  rem_node : string;  (** address label, for errors and [pp] *)
  rem_open :
    poison:(exn -> Printexc.raw_backtrace -> unit) -> Request.t -> unit;
      (** [rem_open ~poison] opens one registration on the node and
          returns its enqueue, which logs requests into the node
          connection.  [poison] is the registration's poison completion:
          the connection invokes it when the node reports a failed call
          on the registration's stream, or when the connection is lost. *)
}
(** How a remote processor is reached, implemented by [Remote_client].
    Request closures cross the connection under [Marshal.Closures]: they
    must only reference module-level state of the shared binary — the
    node executes them against {e its} globals. *)

type t

val create :
  ?sink:Qs_obs.Sink.t ->
  id:int ->
  config:Config.t ->
  stats:Stats.t ->
  unit ->
  t
(** Create a processor and spawn its handler fiber.  Must run inside a
    scheduler.  With [sink], the handler records one ["core"]/["batch"]
    complete span per drained batch (track = processor id, arg = batch
    size). *)

val create_remote :
  ?sink:Qs_obs.Sink.t ->
  id:int ->
  config:Config.t ->
  stats:Stats.t ->
  ops:remote_ops ->
  unit ->
  t
(** A remote processor: a client-side stand-in whose handler runs on a
    node reached through [ops].  No handler fiber is spawned and the
    exit latch is pre-filled ({!await_stopped} returns immediately —
    connection teardown is the runtime's job); {!admit} is a no-op
    (backpressure is enforced node-side). *)

val id : t -> int

val is_remote : t -> bool

val remote_node : t -> string option
(** The node address label of a remote processor, [None] if local. *)

val admit : t -> unit
(** Admission control for a Call or Query about to be logged.  A no-op
    while [config.bound = 0] (every preset).  Otherwise, at the bound:
    [`Block] backs off (yielding) until the handler drains, [`Fail]
    raises {!Overloaded}, [`Shed_oldest] admits and marks the oldest
    pending request for shedding.  Sync and End are never admitted
    through this (they are control flow, not work). *)

(** {1 The separate rule}

    How a client reserves and releases a handler, whatever the mailbox.
    A reservation returns the new registration's {e log}, which appends
    one request to what the handler serves for it. *)

val reserve :
  ?timeout:float ->
  t ->
  poison:(exn -> Printexc.raw_backtrace -> unit) ->
  Request.t ->
  unit
(** [reserve t ~poison] reserves one handler (Fig. 8) and returns the
    log: in queue-of-queues mode a cached or new private queue, appended
    to the queue-of-queues without waiting; in lock mode the handler
    lock, awaited up to [?timeout] seconds (a non-positive one fails at
    once), then the single request queue; on a remote processor a
    registration opened on the node ({!remote_ops}), which keeps
    [poison], the registration's poison completion.
    @raise Qs_sched.Timer.Timeout without the lock. *)

val reserve_many :
  ?timeout:float ->
  (t * (exn -> Printexc.raw_backtrace -> unit)) list ->
  (Request.t -> unit) list
(** {!reserve} for several distinct local handlers as one atomic event
    (§2.4, Fig. 11), taken in id order; logs in argument order.  In
    queue-of-queues mode the appends run under every handler's
    reservation spinlock (§3.3).  In lock mode [?timeout] bounds the
    whole reservation, and a late lock releases those already held. *)

val release : t -> unit
(** End a reservation once its [End] is logged: releases the handler
    lock in lock mode, a no-op otherwise. *)

(** {1 Wait conditions}

    A wait condition that fails parks its fiber until one of its
    reserved handlers ends another registration that may have changed
    its state ([Request.End true]).  Remote processors never announce:
    their waits poll. *)

val changes : t -> int
(** How many registrations have ended on this handler announcing a
    change.  Read inside the block whose condition failed, it is the
    [seen] value to {!subscribe} with. *)

val subscribe : t -> Qs_sched.Sched.resumer -> seen:int -> unit
(** Park [resume] until the next announced change or handler exit.
    Resumes at once when the count already differs from [seen] or the
    handler is no longer [Running], so no wake-up is lost. *)

val unsubscribe : t -> Qs_sched.Sched.resumer -> unit
(** Drop [resume] if it is still parked here (a multi-handler wait woken
    elsewhere, or a wait that timed out). *)

(** {1 Lifecycle}

    [Running --shutdown/abort--> Draining --handler exit--> Stopped/Failed].
    All transitions are idempotent: repeated [shutdown]/[abort] calls are
    no-ops after the first. *)

val lifecycle : t -> lifecycle

val shutdown : t -> unit
(** Graceful drain: close the processor's request stream.  The handler
    fiber serves everything already logged, then exits ([Stopped], or
    [Failed] if any closure ever raised).  Clients must not register
    afterwards. *)

val abort : t -> unit
(** Like {!shutdown}, but still-pending requests are discarded
    unexecuted: their completions fail with {!Aborted} (counted under
    [Stats.aborted_requests]), pending syncs are still resumed so no
    client is left suspended, and [End] markers still accounted. *)

val await_stopped : ?timeout:float -> t -> unit
(** Block the calling fiber until the handler fiber has exited (the
    completion latch filled at handler-loop exit).  With [?timeout],
    raise [Timer.Timeout] if the handler is still running after that
    many seconds (the [Runtime.shutdown ?grace] escalation signal). *)

val compare_by_id : t -> t -> int
