(** SCOOP processors (handlers): one fiber per processor running the
    handler loop of paper Fig. 7.

    The loop is a single generic drain loop parameterized by a {e mailbox}
    — a blocking batched view of the processor's request stream.  The
    configuration selects what backs it: the queue-of-queues of Fig. 4
    ([`Qoq]) or the original lock-plus-single-queue structure of Fig. 2
    ([`Direct]).  Each wakeup drains up to [Config.batch] requests.

    Create processors through {!Runtime.processor}; client-side access goes
    through {!Separate} blocks and {!Registration} operations, which use the
    mode-specific operations below. *)

type pq = Request.t Qs_sched.Bqueue.Spsc.t
(** A private queue of requests. *)

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

type reg_proxy = {
  px_call : (unit -> unit) -> unit;
  px_query : timeout:float option -> (unit -> Obj.t) -> Obj.t;
  px_query_async :
    (unit -> Obj.t) -> on_force:(bool -> unit) -> Obj.t Qs_sched.Promise.t;
  px_sync : timeout:float option -> unit;
  px_close : unit -> unit;
  px_on_poison : (exn -> Printexc.raw_backtrace -> unit) -> unit;
}
(** Per-registration wire operations of a remote processor, implemented
    by [Remote_client] and consumed by [Registration.make_remote]
    (defined here to break the type cycle between the two).  Payload
    closures cross the connection under [Marshal.Closures]: they must
    only reference module-level state of the shared binary — the node
    executes them against {e its} globals. *)

type remote_ops = {
  rem_node : string;  (** address label, for errors and [pp] *)
  rem_open : unit -> reg_proxy;  (** open one registration on the node *)
}

type t

val create :
  ?sink:Qs_obs.Sink.t ->
  ?pool:string ->
  id:int ->
  config:Config.t ->
  stats:Stats.t ->
  unit ->
  t
(** Create a processor and spawn its handler fiber.  Must run inside a
    scheduler.  With [sink], the handler records one ["core"]/["batch"]
    complete span per drained batch (track = processor id, arg = batch
    size).  With [pool], the handler fiber is pinned to that scheduler
    pool ([Qs_sched.Sched.spawn_in]): only the pool's member workers
    drain its requests.
    @raise Invalid_argument on an unknown pool name. *)

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

val reserve : t -> Qs_queues.Spinlock.t
(** The multi-reservation spinlock (§3.3). *)

val is_remote : t -> bool

val remote_node : t -> string option
(** The node address label of a remote processor, [None] if local. *)

val remote_open : t -> reg_proxy
(** Open a registration on the remote node (the remote half of the
    separate rule).  @raise Invalid_argument on a local processor. *)

val admit : t -> unit
(** Admission control for a Call or Query about to be logged.  A no-op
    while [config.bound = 0] (every preset).  Otherwise, at the bound:
    [`Block] backs off (yielding) until the handler drains, [`Fail]
    raises {!Overloaded}, [`Shed_oldest] admits and marks the oldest
    pending request for shedding.  Sync and End are never admitted
    through this (they are control flow, not work). *)

(** {1 Queue-of-queues mode ([`Qoq])}

    These raise [Invalid_argument] on a [`Direct]-mode processor. *)

val take_private_queue : t -> pq
(** A fresh or recycled private queue for a new registration. *)

val enqueue_private_queue : t -> pq -> unit
(** Append a private queue to the queue-of-queues (the separate rule). *)

(** {1 Lock mode ([`Direct])}

    These raise [Invalid_argument] on a [`Qoq]-mode processor. *)

val lock_handler : t -> unit
(** Acquire the handler lock (blocks the client fiber). *)

val lock_handler_timeout : t -> float -> bool
(** {!lock_handler} bounded by that many seconds; [false] means the lock
    was not acquired (and is not held). *)

val unlock_handler : t -> unit

val enqueue_direct : t -> Request.t -> unit
(** Log a request into the handler's single request queue. *)

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

val await_stopped : t -> unit
(** Block the calling fiber until the handler fiber has exited (the
    completion latch filled at handler-loop exit). *)

val try_await_stopped : t -> timeout:float -> bool
(** Like {!await_stopped} bounded by [timeout] seconds; [false] means
    the handler was still running at the deadline (the
    [Runtime.shutdown ?grace] escalation signal). *)

val compare_by_id : t -> t -> int
