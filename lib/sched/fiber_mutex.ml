(* Blocking mutex for fibers.

   Unlike a [Stdlib.Mutex], blocking here parks the fiber, not the domain.
   Used by the C++-style comparator benchmarks (coarse locking) and by
   [Fiber_cond].

   Ownership hand-off: [unlock] transfers the lock directly to the oldest
   waiter, so a stream of contenders is served FIFO and cannot starve.
   The waiters are plain resumers.  A timed waiter's resumer and its
   deadline race on the scheduler's claim ([Sched.suspend ?timeout]):
   ownership is transferred exactly when the resumer returns [true], and
   an abandoned (timed-out) waiter is skipped instead of being handed a
   lock it will never release. *)

type state =
  | Unlocked
  | Locked of Sched.resumer list (* newest first *)

type t = { state : state Atomic.t }

let create () = { state = Atomic.make Unlocked }

let try_lock t = Atomic.compare_and_set t.state Unlocked (Locked [])

(* Remove the oldest waiter (the list is newest-first). *)
let split_oldest waiters =
  match List.rev waiters with
  | [] -> assert false
  | oldest :: rest -> (oldest, List.rev rest)

let unlock t =
  let rec loop () =
    match Atomic.get t.state with
    | Unlocked -> invalid_arg "Fiber_mutex.unlock: not locked"
    | Locked [] as old ->
      if not (Atomic.compare_and_set t.state old Unlocked) then loop ()
    | Locked waiters as old ->
      let oldest, rest = split_oldest waiters in
      if Atomic.compare_and_set t.state old (Locked rest) then begin
        (* Ownership passes to [oldest] (the state stays [Locked]) unless
           it timed out and is gone: then unlock towards the next one. *)
        if not (oldest ()) then loop ()
      end
      else loop ()
  in
  loop ()

let lock ?timeout t =
  if not (try_lock t) then
    match
      Sched.suspend ?timeout (fun resume ->
        let rec subscribe () =
          match Atomic.get t.state with
          | Unlocked ->
            (* Freed while we were suspending: acquire and wake ourselves.
               The deadline is armed only after this registration returns,
               so the wake always wins and the lock is ours. *)
            if Atomic.compare_and_set t.state Unlocked (Locked []) then
              ignore (resume () : bool)
            else subscribe ()
          | Locked waiters as old ->
            let next = Locked (resume :: waiters) in
            if not (Atomic.compare_and_set t.state old next) then subscribe ()
        in
        subscribe ())
    with
    | `Resumed -> ()
    | `Timed_out -> raise Timer.Timeout

let with_lock t f =
  lock t;
  match f () with
  | v ->
    unlock t;
    v
  | exception e ->
    unlock t;
    raise e
