(** Work-stealing fiber scheduler over OCaml 5 domains.

    The bottom two layers of the SCOOP/Qs runtime (paper §3): effect-handler
    task switching and lightweight threads.  All concurrency substrates in
    this repository (SCOOP processors, actors, channels, STM, parallel-for)
    run their units of work as fibers of this scheduler.

    A fiber is an ordinary OCaml function; it runs cooperatively and leaves
    the CPU by returning, {!yield}ing, or {!suspend}ing until some other
    fiber invokes its resumer. *)

exception Stalled of int
(** Raised by {!run} when all workers went idle while fibers remained
    suspended — i.e. the program deadlocked.  The payload is the number of
    stuck fibers. *)

type t
(** A scheduler instance. *)

type resumer = unit -> bool
(** One-shot wake-up token for a suspended fiber: [true] iff this call
    resumed it.  Later calls, and calls after a timed suspension's
    deadline won, return [false] and do nothing — so a wait list can skip
    an abandoned waiter by trying the next one.  Invoking it from any
    fiber or domain is allowed. *)

type counters = {
  c_executed : int; (** fiber dispatches *)
  c_handoffs : int; (** direct handoffs through the hot slot (paper §3.2) *)
  c_steals : int; (** successful work steals *)
  c_parks : int; (** worker park (sleep) episodes *)
  c_timer_arms : int; (** timers armed ({!sleep}, {!suspend} [?timeout], …) *)
  c_timer_fires : int; (** timers that expired and ran their action *)
}
(** Scheduling counters aggregated over all workers — the context-switch
    instrumentation the paper's §4.3 discussion calls for.  Readable live
    mid-run ({!current_counters}) and delivered exactly at the end of a
    run ([?on_counters]). *)

val run :
  ?domains:int ->
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
    handoff instants under the ["sched"] category (track = worker id).
    Nested [run]s on the same domain are not allowed.
    @raise Stalled when the run deadlocks. *)

val current_counters : unit -> counters option
(** Live aggregate of the per-worker scheduling counters of the scheduler
    running the current fiber; [None] outside any scheduler.  Mid-run the
    sum is approximate (workers update their fields without
    synchronization); the [?on_counters] delivery at the end of {!run} is
    exact. *)

val counters_assoc : counters -> (string * int) list
(** Name→value view of {!counters} (for machine-readable output). *)

val spawn : (unit -> unit) -> unit
(** Create a new fiber.  Must be called from inside a running
    scheduler. *)

val suspend :
  ?timeout:float -> (resumer -> unit) -> [ `Resumed | `Timed_out ]
(** [suspend register] blocks the current fiber and calls [register resume]
    from the scheduler context; the fiber continues when [resume] is
    invoked ([`Resumed]).  [register] runs after the fiber is fully
    suspended, so a resume that races with suspension is never lost.
    This is the runtime's only way to block a fiber.

    With [?timeout], the fiber also continues once that many seconds
    elapse first ([`Timed_out]).  The resumer and the deadline race on
    one claim word, so the verdict is exact: after [`Timed_out] every
    call of [resume] returns [false]; after [`Resumed] the timer is
    cancelled.  The deadline is armed only after [register] returns, so
    it cannot win while [register] runs: a [resume] called from inside
    [register] always returns [true], and a registration that took a
    resource for the fiber (a free lock, say) never has to hand it back.
    The resumer may still sit in whatever [register] subscribed it to,
    so registrations must tolerate stale waiters. *)

val yield : unit -> unit
(** Reschedule the current fiber at the back of the global run queue,
    letting every other runnable fiber go first. *)

val sleep : float -> unit
(** [sleep dt] suspends the current fiber for at least [dt] seconds.
    [dt <= 0] is a {!yield}.  A sleeping fiber keeps the scheduler alive —
    parked workers wake at the earliest armed deadline, and stall detection
    treats pending timers as a wake source, so a run whose only activity is
    a sleeping fiber terminates normally instead of raising {!Stalled}. *)

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

val num_workers : t -> int
