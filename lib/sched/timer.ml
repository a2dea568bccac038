(* Per-scheduler timer queue: a mutex-protected binary min-heap of armed
   deadlines with lazy cancellation.

   Design constraints, in order of importance:
   - [next_deadline] must be readable without taking the lock and without
     allocating: busy workers poll it on every dispatch, and the parked
     "timekeeper" worker polls it between sleep slices.  It is a cached
     atomic int (monotonic nanoseconds, [max_int] when nothing is armed)
     that may run {e stale-early} (pointing at an already-cancelled entry)
     but never stale-late: a reader that sees a deadline in the future is
     guaranteed no live timer is due before it.
   - Deadlines are on the monotonic clock ({!Qs_obs.Clock.now_ns}), so a
     wall-clock step neither fires nor strands an armed deadline.
   - Arming and cancelling must be cheap: the dominant client is a deadline
     query that arms on issue and cancels on fulfilment, so [cancel] is a
     single CAS (lazy removal) and [arm] amortizes heap compaction.
   - Actions run outside the lock.  A timer action is a fiber resumer, which
     re-enters the scheduler ([schedule] → [wake_idlers]); running it under
     [t.lock] would invite lock-order cycles with the scheduler's idle
     mutex. *)

exception Timeout
(* Raised by deadline-bounded waits throughout the runtime (ivar and
   promise reads, fiber-mutex lock, and — re-exported as [Scoop.Timeout] —
   the whole scoop request path). *)

type handle = {
  deadline : int; (* monotonic ns *)
  mutable seq : int; (* FIFO tie-break among equal deadlines, set by [arm] *)
  mutable action : unit -> unit; (* [ignore] once cancelled *)
  claimed : bool Atomic.t; (* live=false; fired-or-cancelled=true *)
  owner : t;
}

and t = {
  lock : Mutex.t;
  mutable heap : handle option array; (* binary min-heap by (deadline, seq) *)
  mutable size : int;
  mutable next_seq : int;
  earliest : int Atomic.t; (* <= every live deadline; max_int if none *)
  live : int Atomic.t; (* armed and not yet fired/cancelled *)
  (* counters (atomic: [counters] reads them without the lock) *)
  armed : int Atomic.t;
  fired : int Atomic.t;
}

let now () = Qs_obs.Clock.s_of_ns (Qs_obs.Clock.now_ns ())

let never = max_int

let create () =
  {
    lock = Mutex.create ();
    heap = Array.make 8 None;
    size = 0;
    next_seq = 0;
    earliest = Atomic.make never;
    live = Atomic.make 0;
    armed = Atomic.make 0;
    fired = Atomic.make 0;
  }

(* -- heap primitives (call with [t.lock] held) ---------------------------- *)

let entry t i = match t.heap.(i) with Some e -> e | None -> assert false

let before a b =
  a.deadline < b.deadline || (a.deadline = b.deadline && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if before (entry t i) (entry t p) then begin
      swap t i p;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let m = if l + 1 < t.size && before (entry t (l + 1)) (entry t l) then l + 1 else l in
    if before (entry t m) (entry t i) then begin
      swap t i m;
      sift_down t m
    end
  end

let push t e =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) None in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- Some e;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  let root = entry t 0 in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- None;
  if t.size > 0 then sift_down t 0;
  root

(* Rebuild the heap without claimed (cancelled/fired) entries.  Amortized
   into [arm] so a cancel-heavy workload (deadline queries that always
   complete in time) does not accumulate dead entries until their distant
   deadlines pass. *)
let compact t =
  let old = t.heap in
  let n = t.size in
  t.heap <- Array.make (max 8 (Array.length old)) None;
  t.size <- 0;
  for i = 0 to n - 1 do
    match old.(i) with
    | Some e when not (Atomic.get e.claimed) -> push t e
    | _ -> ()
  done

let refresh_earliest t =
  Atomic.set t.earliest (if t.size = 0 then never else (entry t 0).deadline)

(* -- public operations ---------------------------------------------------- *)

(* A handle counts as live from [make]: [cancel] may claim it before
   [arm] queues it. *)
let make t ~deadline action =
  Atomic.incr t.live;
  { deadline; seq = 0; action; claimed = Atomic.make false; owner = t }

let arm e =
  let t = e.owner in
  Mutex.lock t.lock;
  (* A handle cancelled before this point is not queued; one cancelled
     from here on is queued dead and pruned like any other. *)
  if not (Atomic.get e.claimed) then begin
    e.seq <- t.next_seq;
    t.next_seq <- t.next_seq + 1;
    if t.size >= 64 && Atomic.get t.live < t.size / 2 then begin
      compact t;
      refresh_earliest t
    end;
    push t e;
    Atomic.incr t.armed;
    if e.deadline < Atomic.get t.earliest then Atomic.set t.earliest e.deadline
  end;
  Mutex.unlock t.lock

(* A cancelled entry may sit in the heap until its deadline or the next
   compaction: drop its action now, so the closure — and the fiber
   continuation it captures — does not stay reachable from there. *)
let cancel e =
  if Atomic.compare_and_set e.claimed false true then begin
    e.action <- ignore;
    Atomic.decr e.owner.live;
    true
  end
  else false

let next_deadline t = Atomic.get t.earliest

let pending t = Atomic.get t.live > 0

let fire_due t ~now =
  if Atomic.get t.earliest > now then 0
  else begin
    Mutex.lock t.lock;
    let due = ref [] in
    let n_due = ref 0 in
    let continue_ = ref true in
    while !continue_ && t.size > 0 do
      let root = entry t 0 in
      if Atomic.get root.claimed then ignore (pop t : handle) (* prune *)
      else if root.deadline <= now then begin
        let e = pop t in
        (* claim against a racing [cancel] *)
        if Atomic.compare_and_set e.claimed false true then begin
          Atomic.decr t.live;
          Atomic.incr t.fired;
          incr n_due;
          due := e :: !due
        end
      end
      else continue_ := false
    done;
    refresh_earliest t;
    Mutex.unlock t.lock;
    (* Oldest deadline first; actions run unlocked (they re-enter the
       scheduler).  An action that raises would unwind into the worker
       loop, so contain it here — resumers are not supposed to raise. *)
    List.iter
      (fun e ->
        try e.action ()
        with exn ->
          Logs.err (fun m ->
            m "timer: action raised %s" (Printexc.to_string exn)))
      (List.rev !due);
    !n_due
  end

type counters = { t_armed : int; t_fired : int }

let counters t = { t_armed = Atomic.get t.armed; t_fired = Atomic.get t.fired }
