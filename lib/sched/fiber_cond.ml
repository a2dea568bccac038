(* Condition variable over [Fiber_mutex].

   The waiter list is protected by the associated mutex (as in the POSIX
   discipline: wait, signal and broadcast are called with the mutex held),
   so no atomics are needed here.  [wait] enqueues its resumer and releases
   the mutex only after the fiber is fully suspended, which makes the
   classic lost-wakeup window impossible. *)

type t = { mutable waiters : Sched.resumer list (* newest first *) }

let create () = { waiters = [] }

let wait t mutex =
  ignore
    (Sched.suspend (fun resume ->
       t.waiters <- resume :: t.waiters;
       Fiber_mutex.unlock mutex));
  Fiber_mutex.lock mutex

let signal t =
  match List.rev t.waiters with
  | [] -> ()
  | oldest :: rest ->
    t.waiters <- List.rev rest;
    ignore (oldest () : bool)

let broadcast t =
  let waiters = List.rev t.waiters in
  t.waiters <- [];
  List.iter (fun resume -> ignore (resume () : bool)) waiters
