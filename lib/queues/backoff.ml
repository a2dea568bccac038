(* Exponential backoff for contended atomic operations.

   Spinning re-reads a contended location as fast as the core allows, which
   floods the interconnect with cache-line traffic.  Doubling the number of
   [cpu_relax] pauses between attempts (up to a cap) lets the winner of the
   race finish its critical section, after which everyone else succeeds on
   the first retry.  Once saturated we sleep instead: on machines with fewer
   cores than domains the thread we are waiting for may need the CPU we are
   spinning on.  The request is one microsecond, but the kernel ends a sleep
   up to the thread's timer slack late (50 us by default on Linux), and the
   sleep stops the whole domain, every fiber on it included.  So a fiber
   waiting for another fiber must yield to the scheduler, not back off. *)

type t = {
  mutable step : int;
  max_step : int;
}

let default_max_step = 1 lsl 9

let create ?(max_step = default_max_step) () = { step = 1; max_step }

let reset t = t.step <- 1
let step t = t.step

let once t =
  if t.step >= t.max_step then Unix.sleepf 1e-6
  else begin
    for _ = 1 to t.step do
      Domain.cpu_relax ()
    done;
    t.step <- t.step * 2
  end
