(* Promises: deferred query results for promise-pipelined round trips.

   Morandi et al.'s operational semantics of the SCOOP request protocol
   (arXiv:1101.1038) models a query as a packaged call plus a *result
   rendezvous*; nothing forces the rendezvous to happen at issue time.
   A promise is exactly the deferred rendezvous: the packaged call is
   logged now, the client keeps a handle on the future result, and the
   blocking wait — if any — happens only when the value is forced.  A
   client fanning out queries to k handlers thereby overlaps all k
   round trips instead of paying them sequentially.

   Built on [Ivar] (the write-once cell that already backed blocking
   packaged queries), extended with:
   - non-blocking observation ([try_read], [is_resolved]),
   - completion callbacks ([on_fulfill], used by the runtime to close
     query-pipeline trace spans on the handler side),
   - combinators ([map], [both], [all]) for fan-in without
     intermediate blocking,
   - a one-shot force hook ([create ~on_force]) through which the
     SCOOP runtime observes the *first* client rendezvous: whether the
     value was already available (a fully overlapped round trip) or
     the client had to block, and — for registrations — the moment the
     synced status may be re-established.

   A promise can also *reject* ([fulfill_error]): forcing then re-raises
   the handler-side exception (with its captured backtrace) on whichever
   client forces first — the typed-completion half of the failure-aware
   request path.  Rejection counts as a resolution for the force hook:
   the rendezvous happened, it just delivered an exception.

   The force hook fires exactly once, on the first successful
   observation ([await] or a [try_read] returning [Some] or re-raising);
   combinator results propagate forcing to their components so that
   forcing a fan-in marks every underlying handler rendezvous as
   observed. *)

type 'a t = {
  ivar : 'a Ivar.t;
  on_force : (bool -> unit) option Atomic.t;
      (* argument: was the value already resolved when first observed *)
  mutable drained : bool;
      (* handler-side hint: at fulfilment time the registration's
         private queue held no later requests.  Written (at most once,
         by the fulfilling handler) strictly before the resolution CAS,
         read by a forcing client strictly after it — the ivar's
         resolution is the release/acquire edge, so no atomics are
         needed here. *)
}

let create ?on_force () =
  { ivar = Ivar.create (); on_force = Atomic.make on_force; drained = false }

let of_value v =
  { ivar = Ivar.create_full v; on_force = Atomic.make None; drained = false }

let mark_drained t = t.drained <- true
let was_drained t = t.drained

let fulfill t v = Ivar.fill t.ivar v
let try_fulfill t v = Ivar.try_fill t.ivar v
let fulfill_error ?bt t e = Ivar.fill_error ?bt t.ivar e
let try_fulfill_error ?bt t e = Ivar.try_fill_error ?bt t.ivar e
let is_resolved t = Ivar.is_filled t.ivar
let is_rejected t = Ivar.is_rejected t.ivar
let peek t = Ivar.peek t.ivar
let on_fulfill t f = Ivar.on_fill t.ivar f
let on_resolve t f = Ivar.on_resolve t.ivar f

(* Consume the hook at most once, from whichever observation wins. *)
let fire_force t ~was_ready =
  match Atomic.exchange t.on_force None with
  | Some f -> f was_ready
  | None -> ()

let await ?timeout t =
  let was_ready = Ivar.is_filled t.ivar in
  (* An expired deadline raises [Timer.Timeout] before any value was
     observed, so the force hook does NOT fire: the promise stays
     forceable and a later [await] can still complete the rendezvous (and
     re-establish registration synced bookkeeping). *)
  match Ivar.result ?timeout t.ivar with
  | Ok v ->
    fire_force t ~was_ready;
    v
  | Error (e, bt) ->
    (* A rejected rendezvous still happened: fire the hook so synced
       bookkeeping and ready/blocked accounting stay balanced. *)
    fire_force t ~was_ready;
    Printexc.raise_with_backtrace e bt

let try_read t =
  match Ivar.peek_result t.ivar with
  | Some (Ok v) ->
    fire_force t ~was_ready:true;
    Some v
  | Some (Error (e, bt)) ->
    fire_force t ~was_ready:true;
    Printexc.raise_with_backtrace e bt
  | None -> None

(* Combinators fulfil eagerly (in the last component's filler context)
   and force lazily (propagating the observation to every component, so
   registration synced-status bookkeeping sees the rendezvous).  The
   first component to reject wins: the combined promise rejects with
   that exception, even if other components are still pending. *)

let map f t =
  let p = create ~on_force:(fun was_ready -> fire_force t ~was_ready) () in
  on_resolve t (function
    | Ok v -> (
      match f v with
      | w -> fulfill p w
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        fulfill_error ~bt p e)
    | Error (e, bt) -> fulfill_error ~bt p e);
  p

let both a b =
  let p =
    create
      ~on_force:(fun was_ready ->
        fire_force a ~was_ready;
        fire_force b ~was_ready)
      ()
  in
  let remaining = Atomic.make 2 in
  let arm outcome =
    match outcome with
    | Error (e, bt) -> ignore (try_fulfill_error ~bt p e : bool)
    | Ok _ ->
      if Atomic.fetch_and_add remaining (-1) = 1 then (
        match (Ivar.peek_result a.ivar, Ivar.peek_result b.ivar) with
        | Some (Ok va), Some (Ok vb) -> ignore (try_fulfill p (va, vb) : bool)
        | _ -> assert false)
  in
  on_resolve a arm;
  on_resolve b arm;
  p

let all ps =
  match ps with
  | [] -> of_value []
  | _ ->
    let p =
      create
        ~on_force:(fun was_ready ->
          List.iter (fun q -> fire_force q ~was_ready) ps)
        ()
    in
    let remaining = Atomic.make (List.length ps) in
    let arm outcome =
      match outcome with
      | Error (e, bt) -> ignore (try_fulfill_error ~bt p e : bool)
      | Ok _ ->
        if Atomic.fetch_and_add remaining (-1) = 1 then
          ignore
            (try_fulfill p
               (List.map
                  (fun q ->
                    match Ivar.peek_result q.ivar with
                    | Some (Ok v) -> v
                    | _ -> assert false)
                  ps)
              : bool)
    in
    List.iter (fun q -> on_resolve q arm) ps;
    p
