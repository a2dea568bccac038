(** Work-stealing fiber scheduler over OCaml 5 domains.

    The bottom two layers of the SCOOP/Qs runtime (paper §3): effect-handler
    task switching and lightweight threads.  All concurrency substrates in
    this repository (SCOOP processors, actors, channels, STM, parallel-for)
    run their units of work as fibers of this scheduler.

    A fiber is an ordinary OCaml function; it runs cooperatively and leaves
    the CPU by returning, {!yield}ing, or {!suspend}ing until some other
    fiber invokes its resumer. *)

exception Stalled of int
(** Raised by {!run} (with [~on_stall:`Raise], the default) when all workers
    went idle while fibers remained suspended — i.e. the program deadlocked.
    The payload is the number of stuck fibers. *)

type t
(** A scheduler instance. *)

type resumer = unit -> unit
(** One-shot wake-up token for a suspended fiber.  Invoking it more than
    once is harmless (subsequent calls are ignored); invoking it from any
    fiber or domain is allowed. *)

type counters = {
  c_executed : int; (** fiber dispatches *)
  c_handoffs : int; (** direct handoffs through the hot slot (paper §3.2) *)
  c_steals : int; (** successful work steals *)
  c_parks : int; (** worker park (sleep) episodes *)
  c_timer_arms : int; (** timers armed ({!sleep}, {!suspend_timeout}, …) *)
  c_timer_fires : int; (** timers that expired and ran their action *)
  c_pool_drains : int; (** jobs taken from pool injection queues *)
  c_pool_migrations : int; (** workers switching pools *)
  c_pool_idle_shrinks : int; (** pools emptied of member workers *)
}
(** Scheduling counters aggregated over all workers — the context-switch
    instrumentation the paper's §4.3 discussion calls for.  Readable live
    mid-run ({!counters}, {!current_counters}) and delivered exactly at
    the end of a run ([?on_counters]).  The pool trio sums the per-pool
    cells; {!pool_counters} has the per-pool breakdown. *)

type pool_counters = {
  p_name : string;
  p_workers : int; (** current member workers (racy) *)
  p_pending : int; (** jobs waiting in the injection queue (racy) *)
  p_drains : int;
  p_migrations : int;
  p_idle_shrinks : int;
}
(** Per-pool load and elasticity counters. *)

val run :
  ?domains:int ->
  ?pools:string list ->
  ?on_stall:[ `Raise | `Warn ] ->
  ?on_counters:(counters -> unit) ->
  ?obs:Qs_obs.Sink.t ->
  (unit -> 'a) ->
  'a
(** [run main] executes [main] as the first fiber of a fresh scheduler using
    [domains] workers (default 1) and returns its result once {e all} fibers
    have completed.  If a fiber raises, the first such exception is re-raised
    after termination.  [on_counters] receives the aggregated scheduling
    counters just before [run] returns.  [obs] attaches an observability
    sink: every worker then records dispatch and park spans plus steal and
    handoff instants under the ["sched"] category (track = worker id), and
    pool membership events (["pool"] category, track 1000 + pool id).
    Nested [run]s on the same domain are not allowed.

    [pools] names extra scheduler pools beyond the always-present
    ["default"] (duplicates and [""] are rejected).  Each pool has its own
    sharded injection queue and an elastic set of member workers: fibers
    spawned with {!spawn_in} are pinned to their pool (only its member
    workers run them, across every suspension and resumption), and workers
    re-distribute themselves over pools by load — a flooded pool absorbs
    idle workers, an idle pool shrinks to zero members.  The main fiber and
    plain {!spawn}s run in the spawner's pool (["default"] at the root). *)

val counters : t -> counters
(** Live aggregate of the per-worker scheduling counters.  Mid-run the
    sum is approximate (workers update their fields without
    synchronization); once {!run} has returned it is exact. *)

val current_counters : unit -> counters option
(** {!counters} of the scheduler running the current fiber; [None]
    outside any scheduler. *)

val counters_assoc : counters -> (string * int) list
(** Name→value view of {!counters} (for machine-readable output). *)

val pool_counters : t -> pool_counters list
(** Per-pool counters, in pool declaration order (["default"] first). *)

val current_pool_counters : unit -> pool_counters list
(** {!pool_counters} of the scheduler running the current fiber; [[]]
    outside any scheduler. *)

val pool_counters_assoc : pool_counters list -> (string * int) list
(** Flat name→value view of a {!pool_counters} list: the aggregates
    [pool_drains] / [pool_migrations] / [pool_idle_shrinks] first, then
    [pool.<name>.<field>] per pool. *)

val pool_names : t -> string list
(** Pool names in declaration order (["default"] first). *)

val pp_counters : Format.formatter -> counters -> unit

val spawn : (unit -> unit) -> unit
(** Create a new fiber in the spawner's current pool.  Must be called from
    inside a running scheduler. *)

val spawn_in : string -> (unit -> unit) -> unit
(** [spawn_in pool body] creates a fiber pinned to [pool]: only that
    pool's member workers ever run it, across every suspension point.
    @raise Invalid_argument on an unknown pool name or outside a
    scheduler. *)

val current_pool : unit -> string
(** Name of the pool whose worker is executing the current fiber.  Inside
    a fiber this is the fiber's home pool (membership only changes between
    jobs). *)

val suspend : (resumer -> unit) -> unit
(** [suspend register] blocks the current fiber and calls [register resume]
    from the scheduler context; the fiber continues when [resume] is
    invoked.  [register] runs after the fiber is fully suspended, so a
    resume that races with suspension is never lost. *)

val yield : unit -> unit
(** Reschedule the current fiber at the back of the global run queue,
    letting every other runnable fiber go first. *)

val sleep : float -> unit
(** [sleep dt] suspends the current fiber for at least [dt] seconds.
    [dt <= 0] is a {!yield}.  A sleeping fiber keeps the scheduler alive —
    parked workers wake at the earliest armed deadline, and stall detection
    treats pending timers as a wake source, so a run whose only activity is
    a sleeping fiber terminates normally instead of raising {!Stalled}. *)

val suspend_timeout :
  (resumer -> unit) -> float -> [ `Resumed | `Timed_out ]
(** [suspend_timeout register dt] is {!suspend} with a deadline: the fiber
    continues either when the registered resumer is invoked ([`Resumed]) or
    when [dt] seconds elapse first ([`Timed_out]).  The two paths race on an
    internal CAS, so the outcomes are mutually exclusive, the fiber is
    resumed exactly once, and on [`Resumed] the timer is cancelled.  After
    [`Timed_out] a late invocation of the registered resumer is a no-op —
    but the resumer may still be held by whatever [register] subscribed it
    to, so registrations must tolerate stale waiters. *)

val await_readable : Unix.file_descr -> unit
(** Suspend the current fiber until [fd] is readable (per [select]).
    The registration is one-shot: callers loop — attempt the syscall,
    on [EAGAIN]/[EWOULDBLOCK] await and retry.  Fd waiters are a wake
    source exactly like pending timers: the parked timekeeper dozes in
    a [select] bounded by the timer slice, busy workers run zero-timeout
    sweeps on the periodic global check, and the stall detector never
    declares a deadlock while a fiber waits on an fd.  If the fd is
    closed while waited on, the fiber is resumed anyway (error sweep)
    and the retried syscall surfaces [EBADF] in its own context. *)

val await_writable : Unix.file_descr -> unit
(** Like {!await_readable}, for writability. *)

val arm_timer : delay:float -> (unit -> unit) -> Timer.handle
(** [arm_timer ~delay action] arms a one-shot timer on the current fiber's
    scheduler, firing [action] after [delay] seconds (see {!Timer.arm} for
    the constraints on [action]); cancel with {!Timer.cancel}.  Building
    block for timed synchronization primitives
    ({!Fiber_mutex.lock_timeout}); most code wants {!sleep} or
    {!suspend_timeout} instead. *)

val dispatch_stamp : unit -> int
(** Identity of the current dispatch (one fiber slice on one worker):
    constant while the fiber runs, different after it suspends, yields
    or hands the worker to another fiber.  Distinct within one
    scheduler (two schedulers may reuse a value); [-1] outside any
    scheduler.  Lets a transport tell more output from the slice that
    just wrote apart from a new sender. *)

val self : unit -> int
(** Index of the worker executing the current fiber. *)

val scheduler : unit -> t
(** The scheduler executing the current fiber. *)

val spawn_on : t -> (unit -> unit) -> unit
(** Like {!spawn} but targets an explicit scheduler; usable from outside. *)

val num_workers : t -> int
val live : t -> int
(** Number of fibers spawned but not yet completed (racy). *)
