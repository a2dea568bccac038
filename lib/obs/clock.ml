(* Monotonic integer-nanosecond clock.

   The one clock the latency-accounting path reads: a C stub over
   CLOCK_MONOTONIC returning an immediate OCaml int, so stamping a
   timestamp on the request hot path costs one vDSO call and zero
   allocation (the boxed-float return of [Unix.gettimeofday] would cost
   ~3 minor words per read, twice per request on the hot path).  Monotonicity also means a latency difference can never go
   negative across a wall-clock step. *)

external now_ns : unit -> int = "qs_obs_clock_now_ns" [@@noalloc]

let ns_of_s s = int_of_float (s *. 1e9)
let s_of_ns ns = float_of_int ns *. 1e-9
