(* Registry-based lock-free latency histograms — the distribution
   sibling of [Counter] (HdrHistogram-style log-linear buckets).

   A histogram is a set of per-domain shards registered under a name in
   a registry; [record] is O(1) and allocation-free after a shard's
   first use: compute the bucket index with shift/mask arithmetic, then
   one [Atomic.incr] on the calling domain's shard (plus one
   fetch-and-add for the value sum).  Nothing is ever locked on the
   record path and shards are separate heap arrays, so concurrent
   recorders from different domains never contend on one cache line —
   the same discipline as [Counter]'s sharded cells.

   Bucket scheme (log-linear, like HdrHistogram): values below
   [sub_count = 2^sub_bits] get one bucket each (exact); above that,
   each power-of-two octave is split into [sub_count] equal-width
   sub-buckets, so the relative width of any bucket is at most
   [2^-sub_bits] (~3.1% with the default 5 sub-bucket bits).  A
   quantile read is therefore within one bucket's relative error of the
   exact order statistic.  Values beyond [max_value] (~73 minutes in
   nanoseconds) are not force-fitted into the top bucket: they bump a
   counted [overflow] cell instead, so a snapshot can always account
   for every sample it is missing from the buckets.

   Snapshots are racy-by-summation, exactly like [Counter.get]: a
   [read] while other domains record may miss increments still in
   flight, but every record lands in exactly one atomic cell, so a
   quiesced read accounts for every sample and a concurrent read is a
   monotone lower bound.  [snapshot] walks the registry in registration
   order; [merge] is pointwise addition (associative, commutative),
   which also folds multi-runtime or multi-process distributions. *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32 sub-buckets per octave *)

(* Highest tracked power: values in [2^41, 2^42) land in the top
   octave; [max_value] is the largest representable sample. *)
let max_msb = 41
let max_value = (1 lsl (max_msb + 1)) - 1

(* msb 0..62 of a positive int, by binary search (6 branches, no loop
   proportional to the value). *)
let msb v =
  let n = 0 in
  let n, v = if v lsr 32 <> 0 then (n + 32, v lsr 32) else (n, v) in
  let n, v = if v lsr 16 <> 0 then (n + 16, v lsr 16) else (n, v) in
  let n, v = if v lsr 8 <> 0 then (n + 8, v lsr 8) else (n, v) in
  let n, v = if v lsr 4 <> 0 then (n + 4, v lsr 4) else (n, v) in
  let n, v = if v lsr 2 <> 0 then (n + 2, v lsr 2) else (n, v) in
  if v lsr 1 <> 0 then n + 1 else n

(* Bucket index of a value in [0, max_value]: identity in the linear
   region, then octave [k] (the [k]-th power past the linear region)
   occupies indices [k*sub_count .. (k+1)*sub_count - 1]. *)
let index_of v =
  if v < sub_count then v
  else
    let m = msb v in
    let k = m - sub_bits + 1 in
    (k * sub_count) + ((v lsr (m - sub_bits)) - sub_count)

let buckets = index_of max_value + 1

(* Inclusive upper bound of bucket [i] — the value a quantile read
   reports, so reads err high by at most one bucket width. *)
let bound_of_index i =
  if i < sub_count then i
  else
    let k = i lsr sub_bits in
    let low = i land (sub_count - 1) in
    (((low + sub_count) lsl (k - 1)) + (1 lsl (k - 1))) - 1

type shard = {
  cts : int Atomic.t array; (* length [buckets] *)
  vsum : int Atomic.t; (* summed recorded values (excluding overflow) *)
  over : int Atomic.t; (* samples beyond [max_value] *)
}

type t = {
  name : string;
  shards : shard option Atomic.t array; (* length is a power of two *)
}

type registry = {
  lock : Mutex.t; (* registration is rare; recording never locks *)
  mutable hists : t list; (* newest first *)
}

let registry () = { lock = Mutex.create (); hists = [] }

let default_shards = Counter.default_shards

let make ?(shards = default_shards) registry name =
  let n =
    let rec pow2 p = if p >= max 1 shards then p else pow2 (p * 2) in
    pow2 1
  in
  let t = { name; shards = Array.init n (fun _ -> Atomic.make None) } in
  Mutex.lock registry.lock;
  (match List.find_opt (fun t' -> t'.name = name) registry.hists with
  | Some _ ->
    Mutex.unlock registry.lock;
    invalid_arg ("Qs_obs.Histogram.make: duplicate histogram " ^ name)
  | None -> ());
  registry.hists <- t :: registry.hists;
  Mutex.unlock registry.lock;
  t

let name t = t.name

let fresh_shard () =
  {
    cts = Array.init buckets (fun _ -> Atomic.make 0);
    vsum = Atomic.make 0;
    over = Atomic.make 0;
  }

(* The calling domain's shard, allocated on its first record (a
   histogram that is registered but never recorded from some domain
   costs [n] one-word cells, not [n * buckets]).  The CAS publishes the
   array; a losing racer just uses the winner's. *)
let my_shard t =
  let slot = t.shards.((Domain.self () :> int) land (Array.length t.shards - 1)) in
  match Atomic.get slot with
  | Some s -> s
  | None ->
    let s = fresh_shard () in
    if Atomic.compare_and_set slot None (Some s) then s
    else (match Atomic.get slot with Some s -> s | None -> assert false)

let record t v =
  let s = my_shard t in
  if v > max_value then Atomic.incr s.over
  else begin
    let v = if v < 0 then 0 else v in
    Atomic.incr s.cts.(index_of v);
    ignore (Atomic.fetch_and_add s.vsum v : int)
  end

(* -- Merged distributions -------------------------------------------------- *)

type dist = {
  counts : int array; (* per-bucket sample counts, up to the last non-empty one *)
  total : int; (* sum of [counts] *)
  sum : int; (* summed sample values behind [counts] *)
  overflow : int; (* samples beyond [max_value], not in [counts] *)
}

let zero = { counts = [||]; total = 0; sum = 0; overflow = 0 }

(* A distribution keeps its buckets up to the last non-empty one, so it
   costs its occupied range rather than the whole scheme: an empty one
   is [||], a microsecond-scale one about half of [buckets].  Callers
   that keep one snapshot per run (the benchmarks) keep that much less
   live heap. *)
let trim counts =
  let n = ref (Array.length counts) in
  while !n > 0 && counts.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length counts then counts else Array.sub counts 0 !n

let read t =
  let counts = Array.make buckets 0 in
  let total = ref 0 and sum = ref 0 and overflow = ref 0 in
  Array.iter
    (fun slot ->
      match Atomic.get slot with
      | None -> ()
      | Some s ->
        for i = 0 to buckets - 1 do
          let c = Atomic.get s.cts.(i) in
          if c <> 0 then begin
            counts.(i) <- counts.(i) + c;
            total := !total + c
          end
        done;
        sum := !sum + Atomic.get s.vsum;
        overflow := !overflow + Atomic.get s.over)
    t.shards;
  { counts = trim counts; total = !total; sum = !sum; overflow = !overflow }

let count d i = if i < Array.length d.counts then d.counts.(i) else 0

let merge a b =
  {
    counts =
      Array.init
        (max (Array.length a.counts) (Array.length b.counts))
        (fun i -> count a i + count b i);
    total = a.total + b.total;
    sum = a.sum + b.sum;
    overflow = a.overflow + b.overflow;
  }

type snapshot = (string * dist) list

let snapshot registry =
  Mutex.lock registry.lock;
  let hists = registry.hists in
  Mutex.unlock registry.lock;
  (* Registration order: oldest first (like [Counter.snapshot]). *)
  List.rev_map (fun t -> (t.name, read t)) hists

let dist registry name =
  Option.value ~default:zero (List.assoc_opt name (snapshot registry))

(* Quantile 0.0 < q <= 1.0: the upper bound of the bucket holding the
   ceil(q * total)-th smallest sample (so [quantile d 1.0] bounds the
   maximum recorded sample from above, within one bucket width). *)
let quantile d q =
  if d.total = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int d.total)) in
      if r < 1 then 1 else if r > d.total then d.total else r
    in
    let rec walk i seen =
      let seen = seen + d.counts.(i) in
      if seen >= rank || i = Array.length d.counts - 1 then bound_of_index i
      else walk (i + 1) seen
    in
    walk 0 0
  end

let mean d =
  if d.total = 0 then 0.0 else float_of_int d.sum /. float_of_int d.total

let pp_dist ppf d =
  Format.fprintf ppf
    "n=%d p50=%dns p99=%dns p999=%dns max<=%dns mean=%.0fns overflow=%d"
    d.total (quantile d 0.5) (quantile d 0.99) (quantile d 0.999)
    (quantile d 1.0) (mean d) d.overflow

let pp_snapshot ppf s =
  Format.pp_open_vbox ppf 0;
  List.iteri
    (fun i (name, d) ->
      if i > 0 then Format.pp_print_cut ppf ();
      Format.fprintf ppf "%s: %a" name pp_dist d)
    s;
  Format.pp_close_box ppf ()

(* Machine-readable summary: the shape embedded in bench JSON and the
   Chrome trace's otherData. *)
let summary_json d =
  Json.Obj
    [
      ("count", Json.Int d.total);
      ("p50_ns", Json.Int (quantile d 0.5));
      ("p90_ns", Json.Int (quantile d 0.9));
      ("p99_ns", Json.Int (quantile d 0.99));
      ("p999_ns", Json.Int (quantile d 0.999));
      ("max_ns", Json.Int (quantile d 1.0));
      ("mean_ns", Json.Float (mean d));
      ("overflow", Json.Int d.overflow);
    ]
