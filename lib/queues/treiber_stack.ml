(* Treiber lock-free stack.

   Used for the private-queue cache (paper §3.2: a private queue "can either
   be freshly created or taken from a cache of queues") and as a building
   block in tests.  A plain immutable list behind a CAS'd atomic head; the
   head index never recycles nodes (the GC owns reclamation), so the classic
   ABA problem cannot bite. *)

type 'a t = { head : 'a list Atomic.t }

let create () = { head = Atomic.make [] }

(* Top-level recursion, and a backoff created only after a failed CAS:
   this stack is the private-queue cache, so every reservation and every
   recycle runs one push or pop, and the uncontended path must allocate
   nothing beyond the cons cell and the [Some]. *)
let rec push_loop t v b =
  let old = Atomic.get t.head in
  if not (Atomic.compare_and_set t.head old (v :: old)) then begin
    let b = match b with Some b -> b | None -> Backoff.create () in
    Backoff.once b;
    push_loop t v (Some b)
  end

let push t v = push_loop t v None

let rec pop_loop t b =
  match Atomic.get t.head with
  | [] -> None
  | v :: rest as old ->
    if Atomic.compare_and_set t.head old rest then Some v
    else begin
      let b = match b with Some b -> b | None -> Backoff.create () in
      Backoff.once b;
      pop_loop t (Some b)
    end

let pop t = pop_loop t None

let is_empty t = Atomic.get t.head = []

let length t = List.length (Atomic.get t.head)
