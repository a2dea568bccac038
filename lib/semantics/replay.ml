(* Trace conformance checking (see replay.mli).

   One tiny automaton per processor id, driven over the merged event
   stream in observed order.  The state is the client-side view of the
   request log: how many calls were logged, how many the handler is
   known to have executed or shed, whether the synced status currently
   holds, and whether the registration is dirty (a failure completion
   was delivered — poison — or a request was shed).  The checked
   properties are the ones the request path, the dynamic sync elision
   and the failure paths could plausibly break:

   - execution order: a handler must never execute more calls than were
     logged minus those shed (a request served twice, served before its
     enqueue, or served after having been shed, shows up here);
   - shed accounting: a shed must consume a logged-but-unexecuted slot;
   - elision legality: a skipped sync round trip must coincide with the
     synced state on a clean registration — an elision on a dirty
     (poisoned) registration would swallow the pending failure. *)

type event =
  | Reserved of int
  | Logged of int
  | Executed of int
  | Synced of int
  | Pipelined of int
  | Elided of int
  | TimedOut of int
  | Shed of int
  | Poisoned of int

let pp_event ppf = function
  | Reserved p -> Format.fprintf ppf "reserved(%d)" p
  | Logged p -> Format.fprintf ppf "logged(%d)" p
  | Executed p -> Format.fprintf ppf "executed(%d)" p
  | Synced p -> Format.fprintf ppf "synced(%d)" p
  | Pipelined p -> Format.fprintf ppf "pipelined(%d)" p
  | Elided p -> Format.fprintf ppf "elided(%d)" p
  | TimedOut p -> Format.fprintf ppf "timed_out(%d)" p
  | Shed p -> Format.fprintf ppf "shed(%d)" p
  | Poisoned p -> Format.fprintf ppf "poisoned(%d)" p

type violation = { index : int; event : event; reason : string }

let pp_violation ppf v =
  Format.fprintf ppf "event %d (%a): %s" v.index pp_event v.event v.reason

type proc_state = {
  mutable logged : int;
  mutable executed : int;
  mutable shed : int;
  mutable synced : bool;
  mutable dirty : bool;
}

let proc_of = function
  | Reserved p | Logged p | Executed p | Synced p | Pipelined p | Elided p
  | TimedOut p | Shed p | Poisoned p ->
    p

let check_all events =
  let procs : (int, proc_state) Hashtbl.t = Hashtbl.create 8 in
  let state p =
    match Hashtbl.find_opt procs p with
    | Some s -> s
    | None ->
      (* A fresh processor has an empty, drained log; it is not in the
         synced state (no round trip has told the client anything). *)
      let s =
        { logged = 0; executed = 0; shed = 0; synced = false; dirty = false }
      in
      Hashtbl.add procs p s;
      s
  in
  let violations = ref [] in
  let fail index event reason = violations := { index; event; reason } :: !violations in
  List.iteri
    (fun index event ->
      let s = state (proc_of event) in
      match event with
      | Reserved _ ->
        (* A new registration starts clean and unsynced; the log
           watermarks are cumulative across sequential registrations
           (each one drains its own slice). *)
        s.synced <- false;
        s.dirty <- false
      | Logged _ ->
        s.logged <- s.logged + 1;
        s.synced <- false
      | Executed _ ->
        if s.executed + s.shed >= s.logged then
          fail index event
            (Printf.sprintf
               "execution before logging: %d calls accounted (%d executed + \
                %d shed) but only %d logged"
               (s.executed + s.shed + 1) (s.executed + 1) s.shed s.logged)
          (* clamp: do not let one spurious execution cascade *)
        else s.executed <- s.executed + 1
      | Shed _ ->
        (* A shed consumes a logged-but-unexecuted slot; the failure
           completion poisons the registration. *)
        if s.executed + s.shed >= s.logged then
          fail index event
            (Printf.sprintf
               "shed without a pending logged call: %d accounted (%d \
                executed + %d shed) but only %d logged"
               (s.executed + s.shed + 1) s.executed (s.shed + 1) s.logged)
        else s.shed <- s.shed + 1;
        s.dirty <- true;
        s.synced <- false
      | Poisoned _ ->
        (* A failure completion was delivered: the registration is dirty
           until the failure is raised (which the runtime does at the
           next operation, sync point or block exit). *)
        s.dirty <- true;
        s.synced <- false
      | TimedOut _ ->
        (* The rendezvous was abandoned: the round trip did not
           complete, so nothing is learned about the log — in
           particular the synced state is not established. *)
        ()
      | Synced _ ->
        (* The round trip completed: the handler necessarily drained
           everything logged before it (shed requests were consumed
           without executing), and nothing logged after it can precede
           this event — a sync completion is keyed after every covered
           execution. *)
        s.executed <- max s.executed (s.logged - s.shed);
        s.synced <- true
      | Pipelined _ ->
        (* A pipelined fulfilment proves draining only up to the query's
           *issue* point, which the event stream does not mark: calls
           logged between issue and fulfilment legitimately precede this
           event while still unexecuted, so the executed watermark must
           not be clamped here.  The synced state is established — the
           runtime only counts the force as a sync when its logged
           watermark is unchanged since issue. *)
        s.synced <- true
      | Elided _ ->
        if s.dirty then
          fail index event
            "sync elided on a dirty (poisoned) registration: the elision \
             would swallow the pending failure"
        else if not s.synced then
          fail index event
            "sync elided outside the synced state (no prior round trip, or \
             a call was logged since)")
    events;
  List.rev !violations

let check events =
  match check_all events with [] -> Ok () | vs -> Error vs
