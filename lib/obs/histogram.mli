(** Registry-based lock-free latency histograms: the distribution
    sibling of {!Counter}.

    A {!registry} owns named histograms; {!record} files one sample
    (integer nanoseconds) with O(1) shift/mask bucket arithmetic and one
    atomic increment on the calling domain's shard — no locks, no
    allocation after a shard's first use.  {!snapshot} reads every
    histogram as a merged {!dist} in registration order; {!merge} folds
    distributions pointwise (associative and commutative), and
    {!quantile} extracts order statistics within one bucket's relative
    error (≤ 2{^-5} ≈ 3.1% with the default bucket scheme).

    Buckets are log-linear (HdrHistogram-style): exact below
    {!sub_count}, then 2{^5} equal sub-buckets per power-of-two octave
    up to {!max_value} (~73 min in ns).  Samples beyond {!max_value} are
    counted in [dist.overflow] rather than force-fitted, so every
    recorded sample is accounted for: a quiesced read never loses more
    samples than [overflow] reports. *)

type t
(** One named histogram. *)

type registry

val registry : unit -> registry

val make : ?shards:int -> registry -> string -> t
(** Register a fresh histogram under [name] with per-domain shards
    (default {!default_shards}, rounded up to a power of two; shard
    storage is allocated lazily on a domain's first record).
    @raise Invalid_argument if [name] is already registered. *)

val default_shards : int

val name : t -> string

val record : t -> int -> unit
(** [record t v] files one sample of [v] nanoseconds (negative values
    clamp to 0; values beyond {!max_value} bump the overflow counter).
    Safe from any fiber or domain; never locks or allocates after the
    calling domain's shard exists. *)

(** {1 Bucket scheme} *)

val sub_bits : int
val sub_count : int
val buckets : int

val max_value : int
(** Largest representable sample ([2]{^42}[- 1] ns). *)

val index_of : int -> int
(** Bucket index of a value in [[0, max_value]]. *)

val bound_of_index : int -> int
(** Inclusive upper value bound of a bucket — quantile reads report
    this, so they err high by at most one bucket width. *)

(** {1 Merged distributions} *)

type dist = {
  counts : int array;
      (** per-bucket sample counts, from bucket 0 up to the last
          non-empty one (at most {!buckets}; [[||]] when empty) *)
  total : int;  (** sum of [counts] *)
  sum : int;  (** summed sample values behind [counts] *)
  overflow : int;  (** samples beyond {!max_value}, not in [counts] *)
}

val zero : dist

val read : t -> dist
(** Merge the shards into one distribution.  Racy-by-summation like
    [Counter.get]: concurrent records may be missed (monotone lower
    bound), a quiesced read is exact. *)

val merge : dist -> dist -> dist
(** Pointwise addition — associative and commutative, with {!zero} as
    unit; also folds distributions across runtimes or processes. *)

type snapshot = (string * dist) list

val snapshot : registry -> snapshot
(** Name→distribution view of every registered histogram, in
    registration order (oldest first, like [Counter.snapshot]). *)

val dist : registry -> string -> dist
(** The named histogram's merged distribution ({!zero} if absent). *)

val quantile : dist -> float -> int
(** [quantile d q] (0 < [q] <= 1) is the upper bound of the bucket
    holding the ⌈q·total⌉-th smallest sample; [0] on an empty
    distribution.  [quantile d 1.0] bounds the recorded maximum. *)

val mean : dist -> float
(** Mean recorded value ([0.] on an empty distribution). *)

val pp_dist : Format.formatter -> dist -> unit
val pp_snapshot : Format.formatter -> snapshot -> unit

val summary_json : dist -> Json.t
(** [{count, p50_ns, p90_ns, p99_ns, p999_ns, max_ns, mean_ns,
    overflow}] — the summary shape embedded in bench JSON and the
    Chrome trace's [otherData]. *)
