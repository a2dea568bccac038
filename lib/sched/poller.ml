(* Fd-readiness wake source for the scheduler.

   The timer heap (PR 5) made parking time-aware; this module makes it
   I/O-aware: fibers blocked on a socket register (fd, direction,
   resumer) triples here and the scheduler folds [poll] into the same
   places it folds [Timer.fire_due] — the parked timekeeper dozes in
   [Unix.select] instead of [Unix.sleepf] while waiters exist (so a
   frame arriving on an idle runtime wakes a fiber in microseconds, not
   at the next slice boundary), and busy workers run a zero-timeout
   sweep on the periodic global check.  [has_waiters] is counted as a
   wake source by the stall detector exactly like pending timers: a
   fiber waiting on a peer is not deadlocked.

   Registrations are one-shot: a resumed fiber re-registers if its next
   read/write would still block.  Resumers are the scheduler's one-shot
   CAS-protected closures, so resuming one twice (e.g. after an EBADF
   sweep, below) is harmless.

   [select] is O(n) in fds and capped at FD_SETSIZE, which is fine at
   this runtime's scale (a node serves tens of connections, not tens of
   thousands); swapping in epoll/kqueue would change only this module.

   Concurrency: [waiters] is guarded by [lock] (short critical
   sections); [poll] itself is serialized by [poll_lock] with
   [Mutex.try_lock] so a busy worker's sweep never blocks behind the
   timekeeper's dozing select — it just skips the round. *)

type dir = Read | Write

type waiter = { fd : Unix.file_descr; dir : dir; resume : unit -> bool }

type t = {
  lock : Mutex.t; (* guards [waiters] *)
  mutable waiters : waiter list;
  count : int Atomic.t; (* = List.length waiters, read without the lock *)
  poll_lock : Mutex.t; (* at most one select at a time *)
}

let create () =
  {
    lock = Mutex.create ();
    waiters = [];
    count = Atomic.make 0;
    poll_lock = Mutex.create ();
  }

let has_waiters t = Atomic.get t.count > 0

let pending t = Atomic.get t.count

(* The count is bumped *before* the caller broadcasts to parked workers,
   and parked workers re-check [has_waiters] under the idle mutex, so a
   registration is never missed by the park path. *)
let register t fd dir resume =
  let w = { fd; dir; resume } in
  Mutex.lock t.lock;
  t.waiters <- w :: t.waiters;
  Atomic.incr t.count;
  Mutex.unlock t.lock

let take_ready t rs ws =
  Mutex.lock t.lock;
  let ready, rest =
    List.partition
      (fun w ->
        match w.dir with
        | Read -> List.memq w.fd rs
        | Write -> List.memq w.fd ws)
      t.waiters
  in
  t.waiters <- rest;
  Atomic.set t.count (List.length rest);
  Mutex.unlock t.lock;
  ready

let take_all t =
  Mutex.lock t.lock;
  let all = t.waiters in
  t.waiters <- [];
  Atomic.set t.count 0;
  Mutex.unlock t.lock;
  all

(* One select round over the current waiters, waiting at most [timeout]
   seconds (0.0 = non-blocking sweep).  Returns the number of fibers
   resumed.  A closed-while-waiting fd surfaces as EBADF from select; we
   cannot tell which fd it was without probing, so every waiter is
   resumed and retries its own syscall — the bad fd's owner gets its
   error in its own context, the others re-register.  Resumers run
   outside both locks (they re-enter the scheduler). *)
let poll t ~timeout =
  if not (Mutex.try_lock t.poll_lock) then 0
  else begin
    Mutex.lock t.lock;
    let snapshot = t.waiters in
    Mutex.unlock t.lock;
    if snapshot = [] then begin
      Mutex.unlock t.poll_lock;
      0
    end
    else begin
      let rfds =
        List.filter_map
          (fun w -> match w.dir with Read -> Some w.fd | Write -> None)
          snapshot
      and wfds =
        List.filter_map
          (fun w -> match w.dir with Write -> Some w.fd | Read -> None)
          snapshot
      in
      match Unix.select rfds wfds [] timeout with
      | rs, ws, _ ->
        let ready =
          if rs = [] && ws = [] then [] else take_ready t rs ws
        in
        Mutex.unlock t.poll_lock;
        List.iter (fun w -> ignore (w.resume () : bool)) ready;
        List.length ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        Mutex.unlock t.poll_lock;
        0
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
        let all = take_all t in
        Mutex.unlock t.poll_lock;
        List.iter (fun w -> ignore (w.resume () : bool)) all;
        List.length all
    end
  end
