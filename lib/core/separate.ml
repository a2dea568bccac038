(* Separate blocks: reservation and release of handlers.

   How a handler is reserved depends on its mailbox and is
   [Processor]'s business: [Processor.reserve] is the separate rule for
   one handler (Fig. 8), [Processor.reserve_many] the atomic
   multi-reservation of Fig. 11 and §3.3, and [Processor.release] and
   [Processor.release_many] the matching exits.  This module scopes them
   around a body, counts and traces them, and turns a reservation
   deadline into [Timeout].

   Block exit re-surfaces poison (SCOOP's dirty-processor rule): after
   the body has completed normally and the registrations are closed, a
   registration dirtied by a failed asynchronous call raises
   [Handler_failure] out of the block.  The check runs *after* the
   [Fun.protect] finally — never from inside it, so a body's own
   exception is never masked by a [Fun.Finally_raised] — and is
   best-effort for fully asynchronous failures: a failing call the
   handler has not reached by exit time surfaces at the next sync point
   with that handler instead. *)

(* A reservation or wait-condition deadline expired.  Reservations are
   the blocking half of the separate rule only in lock mode (and during
   wait-condition retries in either mode): queue-of-queues reservation
   is one asynchronous enqueue and never waits, so there the deadline
   only bounds the wait of [many_when]. *)
let reservation_timed_out ctx =
  Qs_obs.Counter.incr ctx.Ctx.stats.Stats.deadline_exceeded;
  raise Qs_sched.Timer.Timeout

let deadline_of_timeout = function
  | None -> None
  | Some dt -> Some (Qs_sched.Timer.now () +. Float.max 0.0 dt)

(* Recorded once the registration exists — after the reservation has
   actually happened (the queue insertion or lock acquisition), not
   before it — and attributed to the registration's id, so conformance
   checking sees each stream open with its own Reserved event.  (The old
   pre-reservation recording both misordered the event against a racing
   handler and left it unattributed.) *)
let trace_reserved ctx reg =
  match ctx.Ctx.trace with
  | Some tr ->
    Trace.record tr
      ~proc:(Processor.id (Registration.processor reg))
      ~client:(Registration.rid reg) Trace.Reserved
  | None -> ()

let enter ?timeout ctx proc =
  Qs_obs.Counter.incr ctx.Ctx.stats.Stats.reservations;
  let reg =
    try Registration.make ?timeout ~proc ~ctx ()
    with Qs_sched.Timer.Timeout -> reservation_timed_out ctx
  in
  trace_reserved ctx reg;
  reg

let exit reg =
  Registration.close reg;
  Processor.release (Registration.processor reg)

let one ?timeout ctx proc body =
  let reg = enter ?timeout ctx proc in
  let v = Fun.protect ~finally:(fun () -> exit reg) (fun () -> body reg) in
  Registration.check_poison reg;
  v

let check_distinct procs =
  let ids = List.map Processor.id procs in
  if List.length (List.sort_uniq Int.compare ids) <> List.length ids then
    invalid_arg "Scoop.Separate: the same processor reserved twice"

(* Multi-reservation needs the insertions of all handlers to be one
   atomic event (the generalized separate rule) — there is no wire
   protocol for a cross-node atomic reservation, so remote processors
   are restricted to single-reservation blocks.  Raises the typed
   [Scoop.Remote_error] naming every offending processor (a bare
   [Invalid_argument] left callers no way to distinguish this
   recoverable topology error from an API misuse).  Checked before any
   queue insertion or lock acquisition, so a rejected mixed reservation
   leaves no local handler reserved. *)
let check_local procs =
  match List.filter Processor.is_remote procs with
  | [] -> ()
  | remotes ->
    let name p =
      match Processor.remote_node p with
      | Some node -> Printf.sprintf "%d@%s" (Processor.id p) node
      | None -> string_of_int (Processor.id p)
    in
    raise
      (Remote_proto.Remote_error
         (Printf.sprintf
            "atomic multi-reservation requires local processors; remote: %s"
            (String.concat ", " (List.map name remotes))))

let many ?timeout ctx procs body =
  match procs with
  | [] -> body []
  | [ p ] -> one ?timeout ctx p (fun reg -> body [ reg ])
  | _ ->
    (* Remote refusal first: proxy ids are numbered per runtime, so a
       remote proxy can collide with a local id without being the same
       processor — the topology error is the real diagnosis. *)
    check_local procs;
    check_distinct procs;
    Qs_obs.Counter.incr ctx.Ctx.stats.Stats.reservations;
    Qs_obs.Counter.incr ctx.Ctx.stats.Stats.multi_reservations;
    let regs =
      try Registration.make_many ?timeout ~procs ~ctx ()
      with Qs_sched.Timer.Timeout -> reservation_timed_out ctx
    in
    List.iter (trace_reserved ctx) regs;
    (* endMany: signal END to every reserved handler (§2.4), then release
       them together. *)
    let exit_many () =
      List.iter Registration.close regs;
      Processor.release_many (List.map Registration.processor regs)
    in
    let v = Fun.protect ~finally:exit_many (fun () -> body regs) in
    List.iter Registration.check_poison regs;
    v

(* Wait conditions: SCOOP preconditions on separate objects do not fail,
   they wait (Nienaltowski's contract semantics, which the paper's SCOOP
   model inherits).  Condition and body run under the *same*
   registration, so the condition still holds when the body starts and no
   other client can interleave between them.

   The contract: a condition is a side-effect-free read of the reserved
   handlers' state, and it is re-evaluated only after a reserved handler
   has ended another client's registration.  A failed evaluation

   - reads each handler's change count while the block still holds the
     handlers, so the count covers every change the condition saw;
   - closes its registrations with an End that announces no change: a
     failed retry that woke the other waiters would be woken by theirs,
     and none of them would ever park;
   - parks the fiber, subscribed on every reserved handler, until one of
     them ends a registration that announces a change (or stops), then
     re-reserves and re-evaluates.

   The deadline ([?timeout]) bounds the park as well as every
   reservation.  A handler that stops while a waiter is parked releases
   it with [Processor.Aborted]: no registration can change it any more.

   Remote processors have no local handler to announce changes, so a
   wait on one polls with fiber-level pauses: a few yields, then sleeps
   doubling from 100 us to 10 ms, never past the deadline. *)

(* Park until a change on one of [procs] since [seen] (one count per
   processor), a handler stop, or [remaining] seconds.  A wake from the
   only handler took the resumer out of its list; in every other case it
   may still sit in some list, so it is dropped there. *)
let park ctx procs seen remaining =
  let parked = ref (fun () -> false) in
  let register resume =
    parked := resume;
    List.iter2 (fun p seen -> Processor.subscribe p resume ~seen) procs seen
  in
  let outcome = Qs_sched.Sched.suspend ?timeout:remaining register in
  (match (procs, outcome) with
  | [ _ ], `Resumed -> ()
  | _ -> List.iter (fun p -> Processor.unsubscribe p !parked) procs);
  match outcome with
  | `Resumed -> ()
  | `Timed_out -> reservation_timed_out ctx

let check_running procs =
  match
    List.find_opt (fun p -> Processor.lifecycle p <> Processor.Running) procs
  with
  | Some p -> raise (Processor.Aborted (Processor.id p))
  | None -> ()

let poll_pause ~attempt remaining =
  if attempt < 3 then Qs_sched.Sched.yield ()
  else begin
    let dt = Float.min 1e-2 (1e-4 *. Float.of_int (1 lsl min 7 (attempt - 3))) in
    Qs_sched.Sched.sleep
      (match remaining with Some r -> Float.min dt r | None -> dt)
  end

let many_when ?timeout ctx procs ~pred body =
  (* The deadline is absolute, fixed at entry: it bounds the whole wait
     (every reservation, failed evaluation and park), not each retry. *)
  let deadline = deadline_of_timeout timeout in
  let remaining () =
    match deadline with
    | None -> None
    | Some d ->
      let r = d -. Qs_sched.Timer.now () in
      if r <= 0.0 then reservation_timed_out ctx else Some r
  in
  let remote = List.exists Processor.is_remote procs in
  let rec retry attempt =
    let outcome =
      many ?timeout:(remaining ()) ctx procs (fun regs ->
        if pred regs then Ok (body regs)
        else begin
          List.iter Registration.mark_unchanged regs;
          Error (List.map Processor.changes procs)
        end)
    in
    match outcome with
    | Ok v -> v
    | Error seen ->
      Qs_obs.Counter.incr ctx.Ctx.stats.Stats.wait_retries;
      if remote then poll_pause ~attempt (remaining ())
      else begin
        park ctx procs seen (remaining ());
        check_running procs
      end;
      retry (attempt + 1)
  in
  retry 0

let when_ ?timeout ctx proc ~pred body =
  many_when ?timeout ctx [ proc ]
    ~pred:(fun regs -> pred (List.hd regs))
    (fun regs -> body (List.hd regs))
