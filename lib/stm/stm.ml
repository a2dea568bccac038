(* Software transactional memory in the TL2 style (global version clock,
   per-tvar versioned locks, lazy write set) with Haskell-style [retry] /
   [or_else] composition.  This is the comparator substrate for the
   paper's Haskell/STM benchmarks (§5, Table 3): every shared-state
   operation pays read-set/write-set bookkeeping and commit validation,
   the "extra level of bookkeeping on every operation" the paper blames
   for Haskell's coordination results.

   Transactions run inside scheduler fibers; a blocked [retry] parks the
   fiber until another transaction commits to one of the tvars it read. *)

type rentry = Rentry : 'a Tvar.t * int -> rentry
type wentry = Wentry : 'a Tvar.t * 'a -> wentry
type locked = Locked : 'a Tvar.t -> locked

type tx = {
  mutable rv : int; (* read version: global clock at (re)start *)
  mutable reads : rentry list;
  mutable writes : wentry list; (* newest first *)
}

exception Abort
(* internal: conflicting transaction, restart *)

exception Retry_request
(* internal: user-requested retry, park until a read tvar changes *)

exception Stm_failure of string

let clock = Atomic.make 0

let find_write (type a) tx (v : a Tvar.t) : a option =
  let rec go = function
    | [] -> None
    | Wentry (v', x) :: rest ->
      if v'.Tvar.id = v.Tvar.id then
        (* Equal ids imply physical equality, so the payload type matches. *)
        Some (Obj.magic x : a)
      else go rest
  in
  go tx.writes

let read tx v =
  match find_write tx v with
  | Some x -> x
  | None ->
    let w1 = Tvar.word v in
    if Tvar.is_locked w1 then raise Abort;
    let x = v.Tvar.value in
    let w2 = Tvar.word v in
    if w1 <> w2 || Tvar.version_of w1 > tx.rv then raise Abort;
    tx.reads <- Rentry (v, Tvar.version_of w1) :: tx.reads;
    x

let write tx v x = tx.writes <- Wentry (v, x) :: tx.writes

let retry _tx = raise Retry_request

let or_else f g tx =
  let saved_writes = tx.writes in
  try f tx
  with Retry_request ->
    (* First alternative blocked: roll back its writes (its reads stay in
       the read set so a later [retry] of the whole transaction waits on
       them too, as in GHC). *)
    tx.writes <- saved_writes;
    g tx

(* Keep only the newest write per tvar, sorted by id for deadlock-free
   lock acquisition. *)
let dedup_writes writes =
  let seen = Hashtbl.create 8 in
  let keep =
    List.filter
      (fun (Wentry (v, _)) ->
        if Hashtbl.mem seen v.Tvar.id then false
        else begin
          Hashtbl.add seen v.Tvar.id ();
          true
        end)
      writes
  in
  List.sort (fun (Wentry (a, _)) (Wentry (b, _)) -> Int.compare a.Tvar.id b.Tvar.id) keep

let commit tx =
  match tx.writes with
  | [] -> () (* read-only: reads were validated against rv at read time *)
  | _ ->
    let writes = dedup_writes tx.writes in
    let in_write_set id =
      List.exists (fun (Wentry (v, _)) -> v.Tvar.id = id) writes
    in
    (* Phase 1: lock the write set. *)
    let rec lock_all acquired = function
      | [] -> acquired
      | Wentry (v, _) :: rest ->
        if Tvar.try_lock v then lock_all (Locked v :: acquired) rest
        else begin
          List.iter (fun (Locked v) -> Tvar.unlock_restore v) acquired;
          raise Abort
        end
    in
    let acquired = lock_all [] writes in
    (* Phase 2: validate the read set. *)
    let valid =
      List.for_all
        (fun (Rentry (v, ver)) ->
          let w = Tvar.word v in
          Tvar.version_of w = ver
          && ((not (Tvar.is_locked w)) || in_write_set v.Tvar.id))
        tx.reads
    in
    if not valid then begin
      List.iter (fun (Locked v) -> Tvar.unlock_restore v) acquired;
      raise Abort
    end;
    (* Phase 3: publish. *)
    let wv = Atomic.fetch_and_add clock 1 + 1 in
    List.iter
      (fun (Wentry (v, x)) ->
        v.Tvar.value <- x;
        Tvar.unlock_with v wv;
        Tvar.wake_all v)
      writes

let read_set_changed tx =
  List.exists
    (fun (Rentry (v, ver)) ->
      let w = Tvar.word v in
      Tvar.is_locked w || Tvar.version_of w <> ver)
    tx.reads

let atomically f =
  let backoff = Qs_queues.Backoff.create () in
  let rec attempt () =
    let tx = { rv = Atomic.get clock; reads = []; writes = [] } in
    match f tx with
    | result -> (
      match commit tx with
      | () -> result
      | exception Abort ->
        Qs_queues.Backoff.once backoff;
        attempt ())
    | exception Abort ->
      Qs_queues.Backoff.once backoff;
      attempt ()
    | exception Retry_request ->
      if tx.reads = [] then
        raise (Stm_failure "retry with an empty read set would block forever");
      ignore
        (Qs_sched.Sched.suspend (fun resume ->
           List.iter (fun (Rentry (v, _)) -> Tvar.subscribe v resume) tx.reads;
           (* Close the race with a commit that happened before we
              subscribed. *)
           if read_set_changed tx then ignore (resume () : bool)));
      Qs_queues.Backoff.reset backoff;
      attempt ()
  in
  attempt ()

(* Convenience helpers used throughout the benchmarks. *)
let make = Tvar.make
let get v = atomically (fun tx -> read tx v)
let set v x = atomically (fun tx -> write tx v x)
let update v f = atomically (fun tx -> write tx v (f (read tx v)))

let modify_return v f =
  atomically (fun tx ->
    let x, r = f (read tx v) in
    write tx v x;
    r)
