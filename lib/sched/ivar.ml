(* Write-once synchronization variable for fibers.

   Used for packaged queries in the lock-based baseline runtime (the client
   blocks on the result the handler will produce, Fig. 10a of the paper) and
   as a general fork/join primitive in tests and benchmarks.

   The cell resolves exactly once, to either a value or an exception (the
   typed-completion contract of the failure-aware request path: a handler
   whose packaged closure raises rejects the cell instead of leaving the
   client wedged).  The state is a single atomic: either [Resolved outcome],
   or [Empty waiters] where [waiters] are the resumers of blocked readers.
   Both transitions are CAS loops over immutable values. *)

type 'a outcome = ('a, exn * Printexc.raw_backtrace) result

type 'a state =
  | Empty of Sched.resumer list
  | Resolved of 'a outcome

(* The ivar is its atomic state cell itself: no wrapper record, so a
   packaged query's rendezvous costs one small block. *)
type 'a t = 'a state Atomic.t

let create () = Atomic.make (Empty [])

let create_full v = Atomic.make (Resolved (Ok v))

let try_resolve t outcome =
  let rec loop () =
    match Atomic.get t with
    | Resolved _ -> false
    | Empty waiters as old ->
      if Atomic.compare_and_set t old (Resolved outcome) then begin
        (* FIFO wake-up: waiters accumulated head-first. *)
        List.iter (fun resume -> ignore (resume () : bool)) (List.rev waiters);
        true
      end
      else loop ()
  in
  loop ()

let try_fill t v = try_resolve t (Ok v)

let fill t v =
  if not (try_fill t v) then invalid_arg "Ivar.fill: already resolved"

let try_fill_error ?bt t e =
  let bt =
    match bt with Some bt -> bt | None -> Printexc.get_raw_backtrace ()
  in
  try_resolve t (Error (e, bt))

let fill_error ?bt t e =
  if not (try_fill_error ?bt t e) then
    invalid_arg "Ivar.fill_error: already resolved"

let peek_result t =
  match Atomic.get t with
  | Resolved outcome -> Some outcome
  | Empty _ -> None

let peek t =
  match Atomic.get t with
  | Resolved (Ok v) -> Some v
  | Resolved (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
  | Empty _ -> None

let is_filled t =
  match Atomic.get t with Resolved _ -> true | Empty _ -> false

let is_rejected t =
  match Atomic.get t with
  | Resolved (Error _) -> true
  | Resolved (Ok _) | Empty _ -> false

(* Completion callbacks reuse the waiter list: a callback is a resumer
   that reads the (by then guaranteed Resolved) state before running [f].
   Runs in the resolver's context, immediately if already resolved. *)
let on_resolve t f =
  let rec subscribe () =
    match Atomic.get t with
    | Resolved outcome -> f outcome
    | Empty waiters as old ->
      let cb () =
        match Atomic.get t with
        | Resolved outcome ->
          f outcome;
          true
        | Empty _ -> assert false
      in
      if not (Atomic.compare_and_set t old (Empty (cb :: waiters))) then
        subscribe ()
  in
  subscribe ()

let on_fill t f =
  on_resolve t (function Ok v -> f v | Error _ -> ())

(* A timed-out reader's resumer stays in the waiter list as dead weight
   until the cell resolves: resolution invokes it, and the scheduler's
   claim makes that a no-op.  Write-once cells resolve at most once, so
   the leak is one closure per timed-out reader, reclaimed with the
   cell. *)
let result ?timeout t =
  match Atomic.get t with
  | Resolved outcome -> outcome
  | Empty _ -> (
    let verdict =
      Sched.suspend ?timeout (fun resume ->
        let rec subscribe () =
          match Atomic.get t with
          | Resolved _ ->
            (* Resolved between our first check and suspension. *)
            ignore (resume () : bool)
          | Empty waiters as old ->
            if not (Atomic.compare_and_set t old (Empty (resume :: waiters)))
            then subscribe ()
        in
        subscribe ())
    in
    match (verdict, Atomic.get t) with
    | `Resumed, Resolved outcome -> outcome
    | `Timed_out, _ -> raise Timer.Timeout
    | `Resumed, Empty _ -> assert false)

let read ?timeout t =
  match result ?timeout t with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt
