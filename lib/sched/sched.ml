(* Work-stealing fiber scheduler over OCaml 5 domains.

   This is the bottom two layers of the SCOOP/Qs runtime (paper §3): "task
   switching" is provided by effect handlers (one-shot continuations), and
   "lightweight threads" are fibers multiplexed over a fixed set of domains.
   SCOOP handlers, actors, goroutine-style workers and STM transactions in
   the sibling libraries are all fibers of this scheduler.

   Scheduling structure per worker:
   - a [hot] slot, one fiber deep: a fiber resumed by the currently running
     fiber is placed here and runs next on this worker.  This implements the
     paper's direct client/handler handoff ("control passes directly from
     the handler to the client, ... avoiding the global scheduler").
   - a Chase–Lev deque for local work (LIFO for the owner, stolen FIFO).
   - a *sharded* injection queue per pool (see below) used by [yield]
     (round-robin fairness) and by overflow/remote scheduling.  The old
     single Michael–Scott MPMC here was the hottest contention point in the
     runtime (see the qoq-mpmc ablation); [Sharded_mpmc] splits that
     traffic per worker.

   Pools: a scheduler owns one or more named pools, each with its own
   injection queue and an (elastic) set of member workers.  Every fiber
   belongs to the pool it was spawned in; scheduling a fiber from a worker
   of another pool routes it to its home pool's injection queue instead of
   the local deque, and steals are pool-local (a stolen job that turns out
   to belong elsewhere is sent home, never run).  Workers re-evaluate pool
   membership every [reeval_period] dispatches and whenever they run dry:
   hot pools absorb idle workers, idle pools shrink to zero members.  Pool
   0 is always ["default"] and is where [run]'s main fiber and unpinned
   work live, so a single-pool scheduler behaves exactly as before.

   Idle workers spin briefly, steal, then sleep on a condition variable.
   The last worker to go idle while live fibers remain has found a global
   stall: every wake-up in this system comes from another fiber, so
   all-idle + live>0 is a genuine deadlock (this is how the runtime-level
   deadlock tests for paper §2.5 observe deadlocks instead of hanging). *)

exception Stalled of int
(** Raised out of {!run} when all workers are idle but fibers remain
    suspended; the payload is the number of stuck fibers. *)

type resumer = unit -> unit

type task = unit -> unit

(* A pool: a named injection queue plus load/membership accounting.  The
   jobs it carries know their pool, so any worker can prove where a piece
   of work belongs no matter which queue it surfaced from. *)
type pool = {
  pool_id : int;
  pool_name : string;
  inject : job Qs_queues.Sharded_mpmc.t;
  pending : int Atomic.t; (* jobs in [inject], for migration scoring *)
  assigned : int Atomic.t; (* member workers (parked workers leave) *)
  pn_drains : int Atomic.t; (* jobs taken out of [inject] *)
  pn_migrations : int Atomic.t; (* workers that joined from another pool *)
  pn_idle_shrinks : int Atomic.t; (* times the pool emptied of workers *)
}

and job = {
  run : task;
  jpool : pool; (* home pool; fibers never change pools *)
}

type worker = {
  wid : int;
  deque : job Qs_queues.Ws_deque.t;
  mutable hot : job option;
  mutable pool : pool; (* current membership; only [wid] writes it *)
  mutable tick : int;
  mutable steal_seed : int;
  (* per-worker plain counters, aggregated after the run *)
  mutable n_executed : int;
  mutable n_handoffs : int;
  mutable n_steals : int;
  mutable n_parks : int;
}

(* Scheduling counters — the "SCOOP-specific instrumentation" of paper §7
   at the scheduler layer.  [handoffs] counts hot-slot direct transfers
   (the §3.2 optimization), [parks] counts worker sleeps: together they
   quantify the context-switch claims of §4.3.  The pool trio aggregates
   the per-pool cells (see {!pool_counters} for the breakdown). *)
type counters = {
  c_executed : int; (* fiber dispatches *)
  c_handoffs : int; (* direct handoffs through the hot slot *)
  c_steals : int; (* successful steals *)
  c_parks : int; (* worker park episodes *)
  c_timer_arms : int; (* timers armed *)
  c_timer_fires : int; (* timers that expired and ran their action *)
  c_pool_drains : int; (* jobs taken from pool injection queues *)
  c_pool_migrations : int; (* workers switching pools *)
  c_pool_idle_shrinks : int; (* pools emptied of member workers *)
}

type pool_counters = {
  p_name : string;
  p_workers : int; (* current member workers (racy) *)
  p_pending : int; (* jobs waiting in the injection queue (racy) *)
  p_drains : int;
  p_migrations : int;
  p_idle_shrinks : int;
}

type t = {
  pools : pool array; (* index 0 is always "default" *)
  workers : worker array;
  timers : Timer.t; (* per-scheduler deadline queue *)
  poller : Poller.t; (* per-scheduler fd-readiness queue *)
  live : int Atomic.t; (* spawned but not yet completed fibers *)
  idle_hint : int Atomic.t;
  idle_mutex : Mutex.t;
  idle_cond : Condition.t;
  mutable idlers : int;
  mutable has_timekeeper : bool; (* a parked worker is watching the clock *)
  mutable stalled : bool;
  mutable stop : bool;
  first_exn : exn option Atomic.t;
  on_stall : [ `Raise | `Warn ];
  obs : Qs_obs.Sink.t option; (* event sink for worker-level tracing *)
}

(* Worker events land in the shared observability sink under the "sched"
   category, one track per worker: dispatch spans, park spans, steal and
   handoff instants.  Pool membership events get their own lanes (category
   "pool", track 1000 + pool id) so a Chrome trace shows each pool's
   worker arrivals and shrink-to-zero moments as a separate row.
   Everything is behind [t.obs = Some _], so an untraced run pays one
   branch. *)
let obs_cat = "sched"

let pool_track p = 1000 + p.pool_id

type _ Effect.t +=
  | Suspend : (resumer -> unit) -> unit Effect.t
  | Yield : unit Effect.t

(* The scheduler owning the current domain, if any. *)
let current : (t * worker) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let get_worker () = Domain.DLS.get current

let num_workers t = Array.length t.workers

let default_pool t = t.pools.(0)

let find_pool t name =
  let n = Array.length t.pools in
  let rec go i =
    if i = n then None
    else if t.pools.(i).pool_name = name then Some t.pools.(i)
    else go (i + 1)
  in
  go 0

let pool_names t =
  Array.to_list (Array.map (fun p -> p.pool_name) t.pools)

let wake_idlers t =
  if Atomic.get t.idle_hint > 0 then begin
    Mutex.lock t.idle_mutex;
    Condition.broadcast t.idle_cond;
    Mutex.unlock t.idle_mutex
  end

(* Send a job to its home pool's injection queue.  [pending] is bumped
   before the push so a migrating worker never observes the queue fuller
   than the score says — the transient is a phantom pending unit, which at
   worst wakes a worker early. *)
let push_job t job =
  Atomic.incr job.jpool.pending;
  Qs_queues.Sharded_mpmc.push job.jpool.inject job;
  wake_idlers t

let push_pool t pool run = push_job t { run; jpool = pool }

(* Schedule [job] for execution: hot slot if the caller is a worker of [t]
   *member of the job's pool* and the slot is free, else the caller's
   deque, else the pool's injection queue.  The pool guard is what makes
   pinning sound: work for pool P only ever sits in queues drained by P's
   workers. *)
let schedule t job =
  match get_worker () with
  | Some (t', w) when t' == t && w.pool == job.jpool ->
    if w.hot = None then begin
      w.n_handoffs <- w.n_handoffs + 1;
      (match t.obs with
      | Some sink ->
        Qs_obs.Sink.instant sink ~cat:obs_cat ~name:"handoff" ~track:w.wid ()
      | None -> ());
      w.hot <- Some job
    end
    else begin
      Qs_queues.Ws_deque.push w.deque job;
      wake_idlers t
    end
  | Some _ | None -> push_job t job

(* Like [schedule] but never uses the hot slot: used by [spawn] so a parent
   that spawns many fibers does not serialize behind each child. *)
let schedule_cold t job =
  match get_worker () with
  | Some (t', w) when t' == t && w.pool == job.jpool ->
    Qs_queues.Ws_deque.push w.deque job;
    wake_idlers t
  | Some _ | None -> push_job t job

(* Arm a one-shot timer on [t]'s timer queue.  The armed→fired interval is
   recorded as a "timer" span when tracing; parked workers are nudged so a
   timekeeper picks up the (possibly earlier) deadline. *)
let arm_timer_on t ~deadline action =
  let action =
    match t.obs with
    | None -> action
    | Some sink ->
      let t0 = Qs_obs.Sink.now sink in
      fun () ->
        let track = match get_worker () with Some (_, w) -> w.wid | None -> 0 in
        Qs_obs.Sink.complete sink ~cat:obs_cat ~name:"timer" ~track ~ts:t0
          ~dur:(Qs_obs.Sink.now sink -. t0)
          ();
        action ()
  in
  let handle = Timer.arm t.timers ~deadline action in
  wake_idlers t;
  handle

let record_exn t e =
  ignore (Atomic.compare_and_set t.first_exn None (Some e) : bool);
  Logs.err (fun m ->
    m "sched: fiber died with exception: %s" (Printexc.to_string e))

let fiber_done t =
  if Atomic.fetch_and_add t.live (-1) = 1 then begin
    (* Last fiber finished: release every sleeping worker so they can
       observe termination. *)
    Mutex.lock t.idle_mutex;
    t.stop <- true;
    Condition.broadcast t.idle_cond;
    Mutex.unlock t.idle_mutex
  end

(* Run a fresh fiber body under the effect handler.  Continuations resumed
   later re-enter this handler automatically.  [pool] is the fiber's home
   pool, captured once at spawn: every later resumption and yield routes
   through it, so a fiber pinned to a pool stays pinned across suspension
   points. *)
let exec t pool (body : unit -> unit) =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> fiber_done t);
      exnc =
        (fun e ->
          record_exn t e;
          fiber_done t);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                let resumed = Atomic.make false in
                let resume () =
                  if Atomic.compare_and_set resumed false true then
                    schedule t { run = (fun () -> continue k ()); jpool = pool }
                in
                register resume)
          | Yield ->
            Some (fun (k : (a, unit) continuation) ->
              push_pool t pool (fun () -> continue k ()))
          | _ -> None);
    }

let spawn_on_pool t pool body =
  Atomic.incr t.live;
  schedule_cold t { run = (fun () -> exec t pool body); jpool = pool }

(* Fibers inherit the spawner's *current* pool.  During a job's execution
   the worker's membership equals the job's home pool (membership only
   changes between jobs), so inheritance is deterministic: children live
   where their parent lives unless spawned through [spawn_in]. *)
let spawn_on t body =
  let pool =
    match get_worker () with
    | Some (t', w) when t' == t -> w.pool
    | Some _ | None -> default_pool t
  in
  spawn_on_pool t pool body

let spawn body =
  match get_worker () with
  | Some (t, w) -> spawn_on_pool t w.pool body
  | None -> invalid_arg "Sched.spawn: not running inside a scheduler"

let spawn_in name body =
  match get_worker () with
  | Some (t, _) -> (
    match find_pool t name with
    | Some pool -> spawn_on_pool t pool body
    | None -> invalid_arg ("Sched.spawn_in: unknown pool " ^ name))
  | None -> invalid_arg "Sched.spawn_in: not running inside a scheduler"

let current_pool () =
  match get_worker () with
  | Some (_, w) -> w.pool.pool_name
  | None -> invalid_arg "Sched.current_pool: not running inside a scheduler"

let suspend register = Effect.perform (Suspend register)

let yield () = Effect.perform Yield

(* Fd-readiness waits: park this fiber until [fd] is ready (or a closed
   fd triggers the poller's error sweep — the caller's retried syscall
   then surfaces the error in its own context).  The registration is
   one-shot; callers loop: try the syscall, on EAGAIN await and retry. *)
let await_fd name dir fd =
  match get_worker () with
  | Some (t, _) ->
    suspend (fun resume ->
      Poller.register t.poller fd dir resume;
      (* A parked worker must notice the new wake source and claim the
         timekeeper/poller role: the count is visible before this
         broadcast, and parked workers re-check under the idle mutex. *)
      wake_idlers t)
  | None -> invalid_arg (name ^ ": not running inside a scheduler")

let await_readable fd = await_fd "Sched.await_readable" Poller.Read fd

let await_writable fd = await_fd "Sched.await_writable" Poller.Write fd

(* The monotonic deadline [dt] seconds from now.  Delays are capped at
   [max_delay] (~31 years; NaN and infinity included) so the sum cannot
   overflow an int. *)
let max_delay = 1e9

let deadline_after dt =
  let dt = if dt < max_delay then Float.max 0.0 dt else max_delay in
  Qs_obs.Clock.now_ns () + Qs_obs.Clock.ns_of_s dt

let arm_timer ~delay action =
  match get_worker () with
  | Some (t, _) -> arm_timer_on t ~deadline:(deadline_after delay) action
  | None -> invalid_arg "Sched.arm_timer: not running inside a scheduler"

let sleep dt =
  match get_worker () with
  | None -> invalid_arg "Sched.sleep: not running inside a scheduler"
  | Some (t, _) ->
    if dt <= 0.0 then yield ()
    else
      suspend (fun resume ->
        ignore
          (arm_timer_on t ~deadline:(deadline_after dt) resume : Timer.handle))

(* Timed variant of [suspend].  The timer action and the registered resumer
   race on [state]; the CAS makes the outcomes mutually exclusive, so the
   continuation is resumed exactly once and the caller can trust the
   verdict: [`Timed_out] guarantees the timer won and any later invocation
   of the registered resumer is a no-op (the one-shot [resumed] CAS in
   [exec] is not enough by itself — it cannot tell the caller {e which}
   path resumed it). *)
let suspend_timeout register delay =
  match get_worker () with
  | None -> invalid_arg "Sched.suspend_timeout: not running inside a scheduler"
  | Some (t, _) ->
    (* 0 = waiting, 1 = resumed by the registered event, 2 = timed out *)
    let state = Atomic.make 0 in
    suspend (fun resume ->
      let handle =
        arm_timer_on t
          ~deadline:(deadline_after delay)
          (fun () -> if Atomic.compare_and_set state 0 2 then resume ())
      in
      register (fun () ->
        if Atomic.compare_and_set state 0 1 then begin
          ignore (Timer.cancel handle : bool);
          resume ()
        end));
    if Atomic.get state = 2 then `Timed_out else `Resumed

(* -- Pool membership ------------------------------------------------------ *)

(* Workers re-evaluate which pool to drain every [reeval_period] dispatches
   (the elastic-pool cadence): often enough that a flooded pool absorbs
   idle capacity within microseconds, rare enough that the scoring loads
   are invisible next to the dispatches themselves. *)
let reeval_period = 32

(* Load score: queued jobs per member worker.  The +1 keeps empty pools
   comparable and models the candidate worker itself joining. *)
let pool_score p =
  float_of_int (Atomic.get p.pending) /. float_of_int (1 + max 0 (Atomic.get p.assigned))

let leave_pool t w =
  let p = w.pool in
  Atomic.decr p.assigned;
  if Atomic.get p.assigned <= 0 && Atomic.get p.pending = 0 then begin
    Atomic.incr p.pn_idle_shrinks;
    match t.obs with
    | Some sink ->
      Qs_obs.Sink.instant sink ~cat:"pool" ~name:"shrink" ~track:(pool_track p)
        ~arg:w.wid ()
    | None -> ()
  end

let join_pool t w p ~migrated =
  w.pool <- p;
  Atomic.incr p.assigned;
  if migrated then begin
    Atomic.incr p.pn_migrations;
    match t.obs with
    | Some sink ->
      Qs_obs.Sink.instant sink ~cat:"pool" ~name:"migrate" ~track:(pool_track p)
        ~arg:w.wid ()
    | None -> ()
  end

(* Best migration target other than [cur]: highest score among pools with
   queued work. *)
let best_other_pool t cur =
  let best = ref None in
  let best_score = ref 0.0 in
  Array.iter
    (fun p ->
      if p != cur && Atomic.get p.pending > 0 then begin
        let s = pool_score p in
        if s > !best_score then begin
          best := Some p;
          best_score := s
        end
      end)
    t.pools;
  (!best, !best_score)

(* Periodic re-evaluation, between jobs only (hot slot and deque must be
   empty so no already-claimed work crosses pools with the worker). *)
let maybe_reeval t w =
  if
    Array.length t.pools > 1
    && w.n_executed mod reeval_period = 0
    && w.hot = None
    && Qs_queues.Ws_deque.size w.deque = 0
  then begin
    let cur = w.pool in
    match best_other_pool t cur with
    | Some p, s
      when Atomic.get cur.pending = 0 || s > 2.0 *. pool_score cur ->
      leave_pool t w;
      join_pool t w p ~migrated:true
    | _ -> ()
  end

let migrate_to t w p =
  leave_pool t w;
  join_pool t w p ~migrated:true

(* A worker that found no work at all: before spinning or parking, move to
   any pool with queued jobs.  This is the absorb side of autoscaling and
   also what prevents livelock — without it, work injected into a pool
   whose membership shrank to zero would only be picked up via the park
   path.  With no injection backlog anywhere, a pool whose members hold
   stealable deque work is the fallback target (steals are pool-local, so
   helping requires joining first). *)
let idle_migrate t w =
  if Array.length t.pools <= 1 then false
  else
    match best_other_pool t w.pool with
    | Some p, _ ->
      migrate_to t w p;
      true
    | None, _ ->
      let n = Array.length t.workers in
      let rec find i =
        if i = n then false
        else
          let v = t.workers.(i) in
          if v.pool != w.pool && Qs_queues.Ws_deque.size v.deque > 0 then begin
            migrate_to t w v.pool;
            true
          end
          else find (i + 1)
      in
      find 0

(* -- Worker loop ---------------------------------------------------------- *)

let take_hot w =
  match w.hot with
  | Some _ as job ->
    w.hot <- None;
    job
  | None -> None

(* Pool-local stealing: only workers of the same pool are victims, so a
   pinned pool's work stays on its members.  Membership reads race with
   migration, so a stolen job is re-checked against its [jpool] tag: a
   mismatch (the victim migrated after pushing it) sends the job home via
   its pool's injection queue instead of running it here. *)
let try_steal t w =
  let n = Array.length t.workers in
  if n <= 1 then None
  else begin
    (* xorshift for victim selection; any distribution works, we only need
       to avoid all thieves hammering worker 0. *)
    let s = w.steal_seed in
    let s = s lxor (s lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    w.steal_seed <- s;
    let start = abs s mod n in
    let rec loop i =
      if i = n then None
      else
        let v = t.workers.((start + i) mod n) in
        if v.wid = w.wid || v.pool != w.pool then loop (i + 1)
        else
          match Qs_queues.Ws_deque.steal v.deque with
          | Some job when job.jpool != w.pool ->
            push_job t job;
            loop (i + 1)
          | Some _ as job ->
            w.n_steals <- w.n_steals + 1;
            (match t.obs with
            | Some sink ->
              Qs_obs.Sink.instant sink ~cat:obs_cat ~name:"steal" ~track:w.wid
                ~arg:v.wid ()
            | None -> ());
            job
          | None -> loop (i + 1)
    in
    loop 0
  end

(* Every [global_check_period] dispatches, look at the pool's injection
   queue before every other source — including the hot slot — so that
   yielded fibers are not starved by a busy local supply (needed by retry
   loops, e.g. the `condition` benchmark).  The hot slot must be subject
   to this check too: a direct-handoff ping-pong pair (client↔handler on
   one worker) refills the slot on every dispatch, so consulting it first
   would starve the global queue indefinitely.  A hot task skipped by the
   periodic check is not lost — it stays in the slot and runs on the next
   dispatch. *)
let global_check_period = 17

(* Timer poll for busy workers, run on every dispatch: one atomic load
   when no timer is armed, plus one clock read (no allocation) when one is,
   plus [Timer.fire_due] when it is due.  A fiber whose deadline passes
   while the worker is busy therefore waits at most one dispatch. *)
let fire_due_timers t =
  let d = Timer.next_deadline t.timers in
  if d < Timer.never then begin
    let now = Qs_obs.Clock.now_ns () in
    if d <= now then ignore (Timer.fire_due t.timers ~now : int)
  end

let next_task t w =
  w.tick <- w.tick + 1;
  let from_inject () =
    (* Start the shard sweep at the worker's own shard so concurrent
       drainers fan out instead of convoying. *)
    match Qs_queues.Sharded_mpmc.pop_from w.pool.inject w.wid with
    | Some job as r ->
      Atomic.decr job.jpool.pending;
      Atomic.incr job.jpool.pn_drains;
      r
    | None -> None
  in
  let local () = Qs_queues.Ws_deque.pop w.deque in
  fire_due_timers t;
  let periodic = w.tick mod global_check_period = 0 in
  if periodic then begin
    (* Zero-timeout readiness sweep: busy workers service fd waiters
       every [global_check_period] dispatches, so I/O completions don't
       wait for the whole runtime to go idle. *)
    if Poller.has_waiters t.poller then
      ignore (Poller.poll t.poller ~timeout:0.0 : int);
    match from_inject () with
    | Some _ as job -> job
    | None -> (
      match take_hot w with
      | Some _ as job -> job
      | None -> (
        match local () with
        | Some _ as job -> job
        | None -> try_steal t w))
  end
  else
    match take_hot w with
    | Some _ as job -> job
    | None -> (
      match local () with
      | Some _ as job -> job
      | None -> (
        match from_inject () with
        | Some _ as job -> job
        | None -> try_steal t w))

(* Any runnable work anywhere?  Consulted on every park decision, so both
   levels short-circuit: the pool scan stops at the first pool whose
   sharded queue admits non-emptiness, and [Sharded_mpmc.is_empty] itself
   stops at the first non-empty shard. *)
let any_work t =
  Array.exists
    (fun p -> not (Qs_queues.Sharded_mpmc.is_empty p.inject))
    t.pools
  || Array.exists
       (fun w -> w.hot <> None || Qs_queues.Ws_deque.size w.deque > 0)
       t.workers

(* Maximum sleep slice for the parked timekeeper: bounds the latency with
   which an off-condvar sleeper notices [stop], work pushed from outside the
   scheduler, or a newly armed earlier deadline.  OCaml's [Condition] has no
   timed wait, so the timekeeper dozes in bounded [Unix.sleepf] slices
   instead. *)
let timekeeper_slice_ns = 1_000_000

(* The timekeeper's kernel sleep ends this long before the earliest
   deadline and the rest is spun: a kernel wake-up costs several
   microseconds even with minimal timer slack, a [cpu_relax] loop reads
   the clock every few tens of nanoseconds. *)
let timekeeper_spin_ns = 20_000

(* Spin until [deadline] (or an earlier newly armed one) is due, returning
   early when work or [stop] shows up.  Runs without the idle mutex. *)
let spin_until_due t deadline =
  let rec go deadline =
    if (not t.stop) && (not (any_work t)) && Qs_obs.Clock.now_ns () < deadline
    then begin
      Domain.cpu_relax ();
      go (Int.min deadline (Timer.next_deadline t.timers))
    end
  in
  go deadline

(* Sleep until work arrives, a timer is due, [stop] is set, or a stall is
   detected.  Returns [false] iff the worker should exit.

   Pending timers make parking time-aware: a sleeping fiber is *not* a
   deadlock, so the stall branch additionally requires [Timer.pending] to be
   false.  While timers are pending, exactly one parked worker acts as the
   timekeeper ([t.has_timekeeper]): it dozes in short slices until
   [timekeeper_spin_ns] before the earliest deadline, spins the rest, and
   then fires due timers; every other idler waits on the condition variable
   as before.  The dozes run at the worker's 1 ns kernel timer slack (see
   [worker_loop]), so a slice ends when it was asked to.  The timekeeper
   hands the clock to another parked worker (broadcast) whenever it leaves
   the role with timers still pending. *)
let park t =
  Mutex.lock t.idle_mutex;
  if t.stop then begin
    Mutex.unlock t.idle_mutex;
    false
  end
  else begin
    t.idlers <- t.idlers + 1;
    Atomic.incr t.idle_hint;
    let leave continue_ =
      t.idlers <- t.idlers - 1;
      Atomic.decr t.idle_hint;
      Mutex.unlock t.idle_mutex;
      continue_
    in
    let rec wait_for_work () =
      if t.stop then leave false
      else if any_work t then leave true
      else if Timer.pending t.timers || Poller.has_waiters t.poller then
        if t.has_timekeeper then begin
          (* Someone else is watching the clock. *)
          Condition.wait t.idle_cond t.idle_mutex;
          wait_for_work ()
        end
        else timekeep ()
      else if t.idlers = Array.length t.workers && Atomic.get t.live > 0 then begin
        (* Global stall: every runnable source is empty, all workers idle,
           no timer can fire, yet fibers remain suspended.  No external
           event can wake them. *)
        t.stalled <- true;
        t.stop <- true;
        Condition.broadcast t.idle_cond;
        leave false
      end
      else begin
        Condition.wait t.idle_cond t.idle_mutex;
        wait_for_work ()
      end
    and timekeep () =
      t.has_timekeeper <- true;
      let rec doze () =
        if t.stop || any_work t then relinquish ()
        else begin
          let deadline = Timer.next_deadline t.timers in
          if deadline = Timer.never && not (Poller.has_waiters t.poller) then
            relinquish ()
          else begin
            let now = Qs_obs.Clock.now_ns () in
            if deadline <= now then begin
              (* Leave the idle set first: timer actions re-enter the
                 scheduler (schedule → wake_idlers) and must not run under
                 the idle mutex. *)
              t.has_timekeeper <- false;
              t.idlers <- t.idlers - 1;
              Atomic.decr t.idle_hint;
              Mutex.unlock t.idle_mutex;
              ignore (Timer.fire_due t.timers ~now : int);
              (* If deadlines or fd waiters remain, make sure some parked
                 worker claims the clock — this worker is about to get
                 busy. *)
              if Timer.pending t.timers || Poller.has_waiters t.poller then
                wake_idlers t;
              true
            end
            else begin
              (* [deadline] may be [Timer.never] here (pure I/O wait):
                 the [min] still clamps the slice.  With fd waiters present
                 the doze is a [select] bounded by the slice — readiness
                 ends it early, so frames on an idle runtime wake their
                 fiber immediately instead of at the slice boundary.  The
                 last [timekeeper_spin_ns] before a deadline are spun. *)
              let left = deadline - now in
              Mutex.unlock t.idle_mutex;
              if left <= timekeeper_spin_ns then spin_until_due t deadline
              else begin
                let slice =
                  Qs_obs.Clock.s_of_ns
                    (Int.min (left - timekeeper_spin_ns) timekeeper_slice_ns)
                in
                if Poller.has_waiters t.poller then
                  ignore (Poller.poll t.poller ~timeout:slice : int)
                else Unix.sleepf slice
              end;
              Mutex.lock t.idle_mutex;
              doze ()
            end
          end
        end
      and relinquish () =
        t.has_timekeeper <- false;
        if Timer.pending t.timers || Poller.has_waiters t.poller then
          Condition.broadcast t.idle_cond;
        wait_for_work ()
      in
      doze ()
    in
    (* Re-check after advertising idleness: a concurrent [push_global] that
       missed our hint must be visible to us now. *)
    wait_for_work ()
  end

(* After a park, rejoin the most loaded pool (a parked worker belongs to no
   pool, which is how idle pools shrink to zero members); with nothing
   pending anywhere, resume the previous membership. *)
let rejoin_pool t w =
  let old = w.pool in
  let target =
    if Array.length t.pools = 1 then old
    else begin
      let best = ref old in
      let best_score = ref (pool_score old) in
      Array.iter
        (fun p ->
          if Atomic.get p.pending > 0 then begin
            let s = pool_score p in
            if s > !best_score then begin
              best := p;
              best_score := s
            end
          end)
        t.pools;
      !best
    end
  in
  join_pool t w target ~migrated:(target != old)

(* Set the calling thread's kernel timer slack in ns; returns the previous
   value, or -1 where there is none to set (see qs_sched_stubs.c). *)
external set_timer_slack : int -> int = "qs_sched_set_timer_slack" [@@noalloc]

let worker_loop t w =
  Domain.DLS.set current (Some (t, w));
  (* A worker's timed sleeps are fiber deadlines: without this the kernel
     may end each one up to its default 50 us slack late. *)
  let old_slack = set_timer_slack 1 in
  let spins = ref 0 in
  let rec loop () =
    if t.stop then ()
    else
      match next_task t w with
      | Some job ->
        spins := 0;
        w.n_executed <- w.n_executed + 1;
        (match t.obs with
        | None -> job.run ()
        | Some sink ->
          (* Dispatch span: one fiber slice on this worker. *)
          let t0 = Qs_obs.Sink.now sink in
          job.run ();
          Qs_obs.Sink.complete sink ~cat:obs_cat ~name:"dispatch" ~track:w.wid
            ~ts:t0
            ~dur:(Qs_obs.Sink.now sink -. t0)
            ());
        maybe_reeval t w;
        loop ()
      | None ->
        if idle_migrate t w then loop ()
        else begin
          incr spins;
          if !spins < 64 then begin
            Domain.cpu_relax ();
            loop ()
          end
          else begin
            spins := 0;
            w.n_parks <- w.n_parks + 1;
            (* Membership is released for the duration of the sleep: a
               parked worker counts toward no pool. *)
            leave_pool t w;
            let continue_ =
              match t.obs with
              | None -> park t
              | Some sink ->
                (* Park span: the worker is asleep (or deciding to). *)
                let t0 = Qs_obs.Sink.now sink in
                let continue_ = park t in
                Qs_obs.Sink.complete sink ~cat:obs_cat ~name:"park" ~track:w.wid
                  ~ts:t0
                  ~dur:(Qs_obs.Sink.now sink -. t0)
                  ();
                continue_
            in
            if continue_ then begin
              rejoin_pool t w;
              loop ()
            end
          end
        end
  in
  loop ();
  (* Worker 0 is the caller's thread: give it back its slack. *)
  if old_slack > 0 then ignore (set_timer_slack old_slack : int);
  Domain.DLS.set current None

let make ?(domains = 1) ?(pools = []) ?obs ~on_stall () =
  let domains = max 1 domains in
  let names = "default" :: pools in
  let () =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun name ->
        if name = "" then invalid_arg "Sched.make: empty pool name";
        if Hashtbl.mem seen name then
          invalid_arg ("Sched.make: duplicate pool " ^ name);
        Hashtbl.add seen name ())
      names
  in
  let pools =
    Array.of_list
      (List.mapi
         (fun pool_id pool_name ->
           {
             pool_id;
             pool_name;
             (* One shard per worker: injection traffic splits across
                domains instead of convoying on one queue. *)
             inject = Qs_queues.Sharded_mpmc.create_sharded ~shards:domains ();
             pending = Atomic.make 0;
             (* Every worker starts in the default pool; the others fill
                elastically. *)
             assigned = Atomic.make (if pool_id = 0 then domains else 0);
             pn_drains = Atomic.make 0;
             pn_migrations = Atomic.make 0;
             pn_idle_shrinks = Atomic.make 0;
           })
         names)
  in
  {
    obs;
    pools;
    workers =
      Array.init domains (fun wid ->
        {
          wid;
          deque = Qs_queues.Ws_deque.create ();
          hot = None;
          pool = pools.(0);
          tick = 0;
          steal_seed = (wid * 0x9E3779B9) + 0x5DEECE66D;
          n_executed = 0;
          n_handoffs = 0;
          n_steals = 0;
          n_parks = 0;
        });
    timers = Timer.create ();
    poller = Poller.create ();
    live = Atomic.make 0;
    idle_hint = Atomic.make 0;
    idle_mutex = Mutex.create ();
    idle_cond = Condition.create ();
    idlers = 0;
    has_timekeeper = false;
    stalled = false;
    stop = false;
    first_exn = Atomic.make None;
    on_stall;
  }

(* Live counters snapshot: per-worker fields are plain (unsynchronized)
   ints, so a mid-run aggregate is approximate — each addend is a value
   the worker recently wrote, but the sum is not a consistent cut.  At
   quiescence (end of run) it is exact. *)
let counters t =
  let tc = Timer.counters t.timers in
  let pd = ref 0 and pm = ref 0 and ps = ref 0 in
  Array.iter
    (fun p ->
      pd := !pd + Atomic.get p.pn_drains;
      pm := !pm + Atomic.get p.pn_migrations;
      ps := !ps + Atomic.get p.pn_idle_shrinks)
    t.pools;
  Array.fold_left
    (fun acc w ->
      {
        acc with
        c_executed = acc.c_executed + w.n_executed;
        c_handoffs = acc.c_handoffs + w.n_handoffs;
        c_steals = acc.c_steals + w.n_steals;
        c_parks = acc.c_parks + w.n_parks;
      })
    {
      c_executed = 0;
      c_handoffs = 0;
      c_steals = 0;
      c_parks = 0;
      c_timer_arms = tc.Timer.t_armed;
      c_timer_fires = tc.Timer.t_fired;
      c_pool_drains = !pd;
      c_pool_migrations = !pm;
      c_pool_idle_shrinks = !ps;
    }
    t.workers

let pool_counters t =
  Array.to_list
    (Array.map
       (fun p ->
         {
           p_name = p.pool_name;
           p_workers = max 0 (Atomic.get p.assigned);
           p_pending = max 0 (Atomic.get p.pending);
           p_drains = Atomic.get p.pn_drains;
           p_migrations = Atomic.get p.pn_migrations;
           p_idle_shrinks = Atomic.get p.pn_idle_shrinks;
         })
       t.pools)

let current_pool_counters () =
  match get_worker () with
  | Some (t, _) -> pool_counters t
  | None -> []

(* Flat name→value view: the three aggregates first (stable keys for the
   bench JSON / CI assertions), then a per-pool breakdown under
   [pool.<name>.<field>]. *)
let pool_counters_assoc per =
  let agg name field =
    (name, List.fold_left (fun acc p -> acc + field p) 0 per)
  in
  agg "pool_drains" (fun p -> p.p_drains)
  :: agg "pool_migrations" (fun p -> p.p_migrations)
  :: agg "pool_idle_shrinks" (fun p -> p.p_idle_shrinks)
  :: List.concat_map
       (fun p ->
         let key f = Printf.sprintf "pool.%s.%s" p.p_name f in
         [
           (key "workers", p.p_workers);
           (key "pending", p.p_pending);
           (key "drains", p.p_drains);
           (key "migrations", p.p_migrations);
           (key "idle_shrinks", p.p_idle_shrinks);
         ])
       per

let current_counters () =
  match get_worker () with
  | Some (t, _) -> Some (counters t)
  | None -> None

let counters_assoc c =
  [
    ("sched_dispatches", c.c_executed);
    ("sched_handoffs", c.c_handoffs);
    ("sched_steals", c.c_steals);
    ("sched_parks", c.c_parks);
    ("sched_timer_arms", c.c_timer_arms);
    ("sched_timer_fires", c.c_timer_fires);
    ("pool_drains", c.c_pool_drains);
    ("pool_migrations", c.c_pool_migrations);
    ("pool_idle_shrinks", c.c_pool_idle_shrinks);
  ]

let pp_counters ppf c =
  Format.fprintf ppf
    "@[<v>dispatches: %d@,handoffs:   %d@,steals:     %d@,parks:      \
     %d@,timer arms: %d@,timer fires:%d@,pool drains:%d@,migrations: \
     %d@,idle shrinks:%d@]"
    c.c_executed c.c_handoffs c.c_steals c.c_parks c.c_timer_arms
    c.c_timer_fires c.c_pool_drains c.c_pool_migrations c.c_pool_idle_shrinks

let run ?(domains = 1) ?(pools = []) ?(on_stall = `Raise) ?on_counters ?obs
    main =
  if get_worker () <> None then
    invalid_arg "Sched.run: already inside a scheduler (nested run)";
  let t = make ~domains ~pools ?obs ~on_stall () in
  let result = ref None in
  Atomic.incr t.live;
  push_pool t (default_pool t) (fun () ->
    exec t (default_pool t) (fun () -> result := Some (main ())));
  let others =
    Array.init
      (Array.length t.workers - 1)
      (fun i -> Domain.spawn (fun () -> worker_loop t t.workers.(i + 1)))
  in
  worker_loop t t.workers.(0);
  Array.iter Domain.join others;
  (match on_counters with
  | Some f -> f (counters t)
  | None -> ());
  if t.stalled then begin
    let stuck = Atomic.get t.live in
    match t.on_stall with
    | `Raise -> raise (Stalled stuck)
    | `Warn ->
      Logs.warn (fun m -> m "sched: stalled with %d stuck fibers" stuck)
  end;
  (match Atomic.get t.first_exn with Some e -> raise e | None -> ());
  match !result with
  | Some v -> v
  | None -> failwith "Sched.run: main fiber did not complete"

(* Worker [wid]'s [n]-th dispatch maps to [n * workers + wid]: distinct
   for every fiber slice of one scheduler, constant within a slice
   ([n_executed] is bumped before the job runs). *)
let dispatch_stamp () =
  match get_worker () with
  | Some (t, w) -> (w.n_executed * Array.length t.workers) + w.wid
  | None -> -1

let self () =
  match get_worker () with
  | Some (_, w) -> w.wid
  | None -> invalid_arg "Sched.self: not running inside a scheduler"

let scheduler () =
  match get_worker () with
  | Some (t, _) -> t
  | None -> invalid_arg "Sched.scheduler: not running inside a scheduler"

let live t = Atomic.get t.live
