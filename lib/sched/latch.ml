(* Countdown latch: fork/join barrier for fibers.

   [Parfor] and the benchmark drivers use it to wait for a batch of worker
   fibers.  A count plus an [Ivar] that the last [count_down] fills: the
   waiting is the ivar's. *)

type t = {
  remaining : int Atomic.t;
  zero : unit Ivar.t;
}

let create n =
  if n < 0 then invalid_arg "Latch.create: negative count";
  {
    remaining = Atomic.make n;
    zero = (if n = 0 then Ivar.create_full () else Ivar.create ());
  }

let count_down t =
  let rec loop () =
    let n = Atomic.get t.remaining in
    if n <= 0 then invalid_arg "Latch.count_down: already at zero"
    else if Atomic.compare_and_set t.remaining n (n - 1) then begin
      if n = 1 then Ivar.fill t.zero ()
    end
    else loop ()
  in
  loop ()

let wait t = Ivar.read t.zero
