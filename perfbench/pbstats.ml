(* The benchmark's own arithmetic: order statistics, open-loop latency
   accounting and span self time.  Pure functions over plain
   arrays and lists, so the test suite can pin them down without a
   runtime. *)

(* Nearest-rank quantile of an ascending array: the ⌈q·n⌉-th smallest
   sample (q in (0, 1]).  Nearest rank reports a value that was actually
   measured rather than an interpolation. *)
let rank n q = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pbstats.quantile: no samples";
  if not (q > 0. && q <= 1.) then invalid_arg "Pbstats.quantile: q outside (0, 1]";
  sorted.(max 0 (min (n - 1) (rank n q - 1)))

(* Samples strictly above the q-quantile's rank.  A percentile is trusted
   only with at least [min_tail] samples beyond it: a p99 read from 300
   samples (3 beyond it) is flagged, not reported as a tail. *)
let beyond n q = n - rank n q

let min_tail = 10

let tail_ok n q = beyond n q >= min_tail

let sorted_of_list xs = Array.of_list (List.sort compare xs)

let median xs =
  let s = sorted_of_list xs in
  let n = Array.length s in
  if n = 0 then invalid_arg "Pbstats.median: empty";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let geomean = function
  | [] -> invalid_arg "Pbstats.geomean: empty"
  | xs ->
    let n = float_of_int (List.length xs) in
    exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. n)

(* Open-loop latency is charged from the request's intended arrival, not
   from when the generator got round to issuing it: a stalled generator
   shows up in every request it delayed. *)
let open_loop_latency ~intended ~completed = completed - intended

(* Self time of the span [start, stop): its duration minus the part of it
   that child spans cover.  Children may overlap each other or stick out
   of the parent; only their union inside the parent is subtracted. *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a start and b = min b stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, start) clipped
  in
  stop - start - covered

(* The serve workload's accounting identity: every issued request ends in
   exactly one outcome.  [shed] is the runtime's shed counter; a shed
   query or pipelined read also raises [Overloaded] at its client, which
   is part of [shed], not an extra failure. *)
type outcomes = {
  issued : int;
  completed : int;
  shed : int;
  timed_out : int;
  failed : int;
}

let balanced o = o.issued = o.completed + o.shed + o.timed_out + o.failed
