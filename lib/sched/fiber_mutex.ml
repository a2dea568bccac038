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

(* The waiters as a FIFO of two lists: [front] oldest first, [back]
   newest first.  A waiter joins [back]; a hand-off takes the head of
   [front], reversing [back] into [front] only when [front] is empty, so
   each waiter is reversed at most once and a hand-off is amortized
   O(1). *)
type state =
  | Unlocked
  | Locked of Sched.resumer list * Sched.resumer list (* front, back *)

type t = { state : state Atomic.t }

let create () = { state = Atomic.make Unlocked }

let try_lock t = Atomic.compare_and_set t.state Unlocked (Locked ([], []))

let unlock t =
  let rec loop () =
    match Atomic.get t.state with
    | Unlocked -> invalid_arg "Fiber_mutex.unlock: not locked"
    | Locked ([], []) as old ->
      if not (Atomic.compare_and_set t.state old Unlocked) then loop ()
    | Locked (front, back) as old ->
      let oldest, rest =
        match front with
        | oldest :: front -> (oldest, Locked (front, back))
        | [] -> (
          match List.rev back with
          | oldest :: front -> (oldest, Locked (front, []))
          | [] -> assert false)
      in
      if Atomic.compare_and_set t.state old rest then begin
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
            if Atomic.compare_and_set t.state Unlocked (Locked ([], [])) then
              ignore (resume () : bool)
            else subscribe ()
          | Locked (front, back) as old ->
            let next = Locked (front, resume :: back) in
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
