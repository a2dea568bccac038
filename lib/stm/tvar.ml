(* Transactional variables.

   Each tvar carries a versioned lock word: [version lsl 1 lor locked].
   Readers snapshot the word, read the value, and re-check the word;
   writers lock the word during commit and release it with the new version.
   The waiter list supports [retry]: a blocked transaction subscribes to
   every tvar it read and is woken by the next commit that writes one. *)

type 'a t = {
  id : int;
  mutable value : 'a; (* protected by the lock bit of [vlock] *)
  vlock : int Atomic.t;
  waiters : Qs_sched.Sched.resumer list Atomic.t;
}

let next_id = Atomic.make 0

let make value =
  {
    id = Atomic.fetch_and_add next_id 1;
    value;
    vlock = Atomic.make 0;
    waiters = Atomic.make [];
  }

let is_locked word = word land 1 = 1
let version_of word = word lsr 1

(* Racy read of the current version (for validation). *)
let word t = Atomic.get t.vlock

let try_lock t =
  let w = Atomic.get t.vlock in
  (not (is_locked w)) && Atomic.compare_and_set t.vlock w (w lor 1)

let unlock_with t version = Atomic.set t.vlock (version lsl 1)

let unlock_restore t =
  let w = Atomic.get t.vlock in
  assert (is_locked w);
  Atomic.set t.vlock (w land lnot 1)

let subscribe t resume =
  let rec loop () =
    let old = Atomic.get t.waiters in
    if not (Atomic.compare_and_set t.waiters old (resume :: old)) then loop ()
  in
  loop ()

let wake_all t =
  match Atomic.exchange t.waiters [] with
  | [] -> ()
  | waiters -> List.iter (fun resume -> ignore (resume () : bool)) waiters
