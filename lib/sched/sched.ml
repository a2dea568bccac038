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
   - a *sharded* injection queue, shared by all workers, used by [yield]
     (round-robin fairness) and by scheduling from outside the scheduler.
     Each worker drains it from its own shard first, so concurrent
     injectors and drainers fan out instead of convoying on one queue
     (see the qoq-mpmc and pools:inject ablations).

   Idle workers spin briefly, steal, then sleep on a condition variable.
   The last worker to go idle while live fibers remain has found a global
   stall: every wake-up in this system comes from another fiber, so
   all-idle + live>0 is a genuine deadlock (this is how the runtime-level
   deadlock tests for paper §2.5 observe deadlocks instead of hanging). *)

exception Stalled of int
(** Raised out of {!run} when all workers are idle but fibers remain
    suspended; the payload is the number of stuck fibers. *)

type resumer = unit -> bool

type task = unit -> unit

type worker = {
  wid : int;
  deque : task Qs_queues.Ws_deque.t;
  mutable hot : task option;
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
   quantify the context-switch claims of §4.3. *)
type counters = {
  c_executed : int; (* fiber dispatches *)
  c_handoffs : int; (* direct handoffs through the hot slot *)
  c_steals : int; (* successful steals *)
  c_parks : int; (* worker park episodes *)
  c_timer_arms : int; (* timers armed *)
  c_timer_fires : int; (* timers that expired and ran their action *)
}

type t = {
  inject : task Qs_queues.Sharded_mpmc.t; (* one shard per worker *)
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
  obs : Qs_obs.Sink.t option; (* event sink for worker-level tracing *)
}

(* Worker events land in the shared observability sink under the "sched"
   category, one track per worker: dispatch spans, park spans, steal and
   handoff instants.  Everything is behind [t.obs = Some _], so an
   untraced run pays one branch. *)
let obs_cat = "sched"

type verdict = [ `Resumed | `Timed_out ]

(* An untimed suspension carries only its registration closure; a timed
   one also carries its absolute deadline. *)
type _ Effect.t +=
  | Suspend : (resumer -> unit) -> verdict Effect.t
  | Suspend_until : int * (resumer -> unit) -> verdict Effect.t
  | Yield : unit Effect.t

(* The scheduler owning the current domain, if any. *)
let current : (t * worker) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let get_worker () = Domain.DLS.get current

let num_workers t = Array.length t.workers

let wake_idlers t =
  if Atomic.get t.idle_hint > 0 then begin
    Mutex.lock t.idle_mutex;
    Condition.broadcast t.idle_cond;
    Mutex.unlock t.idle_mutex
  end

let push_job t job =
  Qs_queues.Sharded_mpmc.push t.inject job;
  wake_idlers t

(* Schedule [job]: hot slot if the caller is a worker of [t] and the slot
   is free, else the caller's deque, else the injection queue. *)
let schedule t job =
  match get_worker () with
  | Some (t', w) when t' == t ->
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
  | Some (t', w) when t' == t ->
    Qs_queues.Ws_deque.push w.deque job;
    wake_idlers t
  | Some _ | None -> push_job t job

(* A one-shot timer on [t]'s timer queue, not yet armed.  The
   armed→fired interval is recorded as a "timer" span when tracing. *)
let timer_on t ~deadline action =
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
  Timer.make t.timers ~deadline action

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
   later re-enter this handler automatically.

   Each suspension has a single claim word; its resumer and, for a timed
   suspension, its deadline race on it with one CAS, so the fiber is
   continued exactly once and knows which party won.  An untimed
   suspension allocates the word.  A timed one uses its timer's own: the
   resumer wins by cancelling the timer, the deadline by firing it.  The
   timer is armed only once [register] has returned (and not at all if
   the resumer already won), so the deadline never wins while [register]
   still runs: a registration that resumes the fiber itself — a lock or
   a value it found free — keeps what it took. *)
let exec t (body : unit -> unit) =
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
                let claim = Atomic.make false in
                register (fun () ->
                  Atomic.compare_and_set claim false true
                  && begin
                    schedule t (fun () -> continue k `Resumed);
                    true
                  end))
          | Suspend_until (deadline, register) ->
            Some
              (fun (k : (a, unit) continuation) ->
                let timer =
                  timer_on t ~deadline (fun () ->
                    schedule t (fun () -> continue k `Timed_out))
                in
                register (fun () ->
                  Timer.cancel timer
                  && begin
                    schedule t (fun () -> continue k `Resumed);
                    true
                  end);
                (* Parked workers are nudged so a timekeeper picks up the
                   (possibly earlier) deadline. *)
                Timer.arm timer;
                wake_idlers t)
          | Yield ->
            Some (fun (k : (a, unit) continuation) ->
              push_job t (fun () -> continue k ()))
          | _ -> None);
    }

let spawn body =
  match get_worker () with
  | Some (t, _) ->
    Atomic.incr t.live;
    schedule_cold t (fun () -> exec t body)
  | None -> invalid_arg "Sched.spawn: not running inside a scheduler"

let yield () = Effect.perform Yield

(* The monotonic deadline [dt] seconds from now.  Delays are capped at
   [max_delay] (~31 years; NaN and infinity included) so the sum cannot
   overflow an int. *)
let max_delay = 1e9

let deadline_after dt =
  let dt = if dt < max_delay then Float.max 0.0 dt else max_delay in
  Qs_obs.Clock.now_ns () + Qs_obs.Clock.ns_of_s dt

let suspend ?timeout register =
  match timeout with
  | None -> Effect.perform (Suspend register)
  | Some dt -> Effect.perform (Suspend_until (deadline_after dt, register))

let sleep dt =
  match get_worker () with
  | None -> invalid_arg "Sched.sleep: not running inside a scheduler"
  | Some _ ->
    if dt <= 0.0 then yield ()
    else
      ignore (Effect.perform (Suspend_until (deadline_after dt, ignore)))

(* Fd-readiness waits: park this fiber until [fd] is ready (or a closed
   fd triggers the poller's error sweep — the caller's retried syscall
   then surfaces the error in its own context).  The registration is
   one-shot; callers loop: try the syscall, on EAGAIN await and retry. *)
let await_fd name dir fd =
  match get_worker () with
  | Some (t, _) ->
    ignore
      (suspend (fun resume ->
         Poller.register t.poller fd dir resume;
         (* A parked worker must notice the new wake source and claim the
            timekeeper/poller role: the count is visible before this
            broadcast, and parked workers re-check under the idle mutex. *)
         wake_idlers t))
  | None -> invalid_arg (name ^ ": not running inside a scheduler")

let await_readable fd = await_fd "Sched.await_readable" Poller.Read fd

let await_writable fd = await_fd "Sched.await_writable" Poller.Write fd

(* -- Worker loop ---------------------------------------------------------- *)

let take_hot w =
  match w.hot with
  | Some _ as job ->
    w.hot <- None;
    job
  | None -> None

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
        if v.wid = w.wid then loop (i + 1)
        else
          match Qs_queues.Ws_deque.steal v.deque with
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

(* Every [global_check_period] dispatches, look at the injection queue
   before every other source — including the hot slot — so that yielded
   fibers are not starved by a busy local supply (needed by retry
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
  (* Start the shard sweep at the worker's own shard so concurrent
     drainers fan out instead of convoying. *)
  let from_inject () = Qs_queues.Sharded_mpmc.pop_from t.inject w.wid in
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

(* Runnable work anywhere: the injection queue, or some worker's hot slot
   or deque.  The one "is there work" test of an idle worker — its wait,
   the timekeeper's doze, the final spin and the stall verdict.
   Consulted on every park decision, so it short-circuits:
   [Sharded_mpmc.is_empty] stops at the first non-empty shard. *)
let has_work t =
  (not (Qs_queues.Sharded_mpmc.is_empty t.inject))
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
    if
      (not t.stop)
      && (not (has_work t))
      && Qs_obs.Clock.now_ns () < deadline
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
      else if has_work t then leave true
      else if Timer.pending t.timers || Poller.has_waiters t.poller then
        if t.has_timekeeper then begin
          (* Someone else is watching the clock. *)
          Condition.wait t.idle_cond t.idle_mutex;
          wait_for_work ()
        end
        else timekeep ()
      else if t.idlers = Array.length t.workers && Atomic.get t.live > 0
      then begin
        (* Global stall: every runnable source is empty (the [has_work]
           test above), all workers idle, no timer can fire, yet fibers
           remain suspended.  No external event can wake them. *)
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
        if t.stop || has_work t then relinquish ()
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
    (* Re-check after advertising idleness: a concurrent [push_job] that
       missed our hint must be visible to us now. *)
    wait_for_work ()
  end

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
        | None -> job ()
        | Some sink ->
          (* Dispatch span: one fiber slice on this worker. *)
          let t0 = Qs_obs.Sink.now sink in
          job ();
          Qs_obs.Sink.complete sink ~cat:obs_cat ~name:"dispatch" ~track:w.wid
            ~ts:t0
            ~dur:(Qs_obs.Sink.now sink -. t0)
            ());
        loop ()
      | None ->
        incr spins;
        if !spins < 64 then begin
          Domain.cpu_relax ();
          loop ()
        end
        else begin
          spins := 0;
          w.n_parks <- w.n_parks + 1;
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
          if continue_ then loop ()
        end
  in
  loop ();
  (* Worker 0 is the caller's thread: give it back its slack. *)
  if old_slack > 0 then ignore (set_timer_slack old_slack : int);
  Domain.DLS.set current None

let make ?(domains = 1) ?obs () =
  let n = max 1 domains in
  {
    obs;
    (* One shard per worker: injection traffic splits across domains
       instead of convoying on one queue. *)
    inject = Qs_queues.Sharded_mpmc.create_sharded ~shards:n ();
    workers =
      Array.init n (fun wid ->
        {
          wid;
          deque = Qs_queues.Ws_deque.create ();
          hot = None;
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
  }

(* Live counters snapshot: per-worker fields are plain (unsynchronized)
   ints, so a mid-run aggregate is approximate — each addend is a value
   the worker recently wrote, but the sum is not a consistent cut.  At
   quiescence (end of run) it is exact. *)
let counters t =
  let tc = Timer.counters t.timers in
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
    }
    t.workers

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
  ]

let run ?(domains = 1) ?on_counters ?obs main =
  if get_worker () <> None then
    invalid_arg "Sched.run: already inside a scheduler (nested run)";
  let t = make ~domains ?obs () in
  let result = ref None in
  Atomic.incr t.live;
  push_job t (fun () -> exec t (fun () -> result := Some (main ())));
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
  if t.stalled then raise (Stalled (Atomic.get t.live));
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
