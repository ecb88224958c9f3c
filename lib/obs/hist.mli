(** Bucketed histogram for virtual-time durations.

    The default [Log2] mode keeps the original fixed 64-bucket layout:
    bucket [i] covers values with bit length [i] (2^(i-1) <= v < 2^i),
    non-positive values land in bucket 0. [Log_linear k] cuts every
    octave into 2^k equal sub-buckets (HdrHistogram-style), bounding
    relative resolution by 2^-k everywhere — use it when tail
    percentiles (p99/p999) must resolve finer than 2x steps.

    Percentiles interpolate linearly within the winning bucket and are
    clamped to the observed [min]/[max].

    Buckets are allocated on demand: {!create} allocates no bucket
    array, {!add} and {!merge} grow it to the highest bucket they need
    (never past the mode's full layout), and {!percentile}, {!clear} and
    {!buckets_list} touch only the buckets between the observed [min]'s
    and [max]'s. A [Log2] histogram takes its 64 buckets on its first
    sample. *)

type mode =
  | Log2  (** power-of-two buckets; the default *)
  | Log_linear of int
      (** [Log_linear k], [k] in 1..8: 2^k linear sub-buckets per
          octave; values below 2^(k+1) are counted exactly *)

type t

val create : ?mode:mode -> unit -> t
(** Raises [Invalid_argument] for a [Log_linear] exponent outside
    1..8. *)

val mode : t -> mode
val add : t -> int -> unit
val n : t -> int
val sum : t -> int
val mean : t -> float

val stddev : t -> float
(** Population standard deviation of the added values; 0 when empty.
    Computed from an exact float sum of squares, so it survives merge
    and nanosecond magnitudes that overflow an int sum of squares. *)

val min_value : t -> int
val max_value : t -> int

val percentile : t -> float -> int
(** [percentile t p] with [p] in [0;1]; 0 on an empty histogram. The
    rank-[ceil (p*n)] sample's bucket is located exactly; the returned
    value interpolates the rank's position across the bucket's value
    range (clamped to the observed min/max). *)

val percentile_of_samples : mode -> int array -> float -> int
(** [percentile_of_samples mode a p] is [percentile h p] for a histogram
    [h] of [mode] holding exactly the samples of [a], in any order,
    without building [h]: its cost depends on [length a], not on the
    number of buckets, and is linear for a p99 over fewer than 100
    samples. *)

val merge : t -> t -> unit
(** [merge dst src] folds [src] into [dst] without replaying events;
    [src] is left untouched. Exact in both modes: combining per-domain
    histograms from [Pardriver]/[Pool] workers equals histogramming the
    concatenated samples. Raises [Invalid_argument] when the two
    histograms use different bucketing modes. *)

val buckets_list : t -> (int * int) list
(** Non-empty buckets as [(index, count)], ascending by index. *)

val bucket_of : int -> int
(** The [Log2] bucket index of a value. *)

val bucket_upper : int -> int
(** Inclusive upper bound of a [Log2] bucket. *)

val bounds_of_mode : mode -> int -> int * int
(** Inclusive [(lo, hi)] value range of bucket [i] under a mode. *)

val clear : t -> unit
val pp : Format.formatter -> t -> unit
