(** Deterministic pseudo-random number generation.

    Every stochastic element of the simulation (fault injection times,
    register choice, bit choice, workload jitter) draws from an explicit
    [Rng.t] so that campaigns are reproducible bit-for-bit from a seed.
    The generator is splitmix64, which is small, fast and has no shared
    global state. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Two generators created with
    the same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each subsystem its own stream so that adding draws in one
    subsystem does not perturb another. *)

val streams : t -> int -> t array
(** [streams t n] is [n] successive {!split}s of [t], in order: the
    master-split discipline shared by the DST scenario generator and
    the open-loop load generator. [streams t n = [| split t; ... |]]
    with stream 0 derived first, so prepending a stream never perturbs
    the existing ones. *)

val copy : t -> t
(** [copy t] duplicates the current state of [t]. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val choose : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. Raises [Invalid_argument] on an
    empty array. *)

val weighted : t -> (int * 'a) array -> 'a
(** [weighted t choices] draws [k] uniform in [\[0, total)], [total] the
    sum of the weights (a negative one counts as 0), and returns the
    first choice whose cumulative weight exceeds [k]: one draw, a
    choice with weight 0 never returned. Raises [Invalid_argument] when
    no weight is positive. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean; used for Poisson
    fault inter-arrival times (paper §V-A). *)

val gap_ns : t -> mean:float -> int
(** [max 1 (int_of_float (exponential t ~mean))]: a Poisson
    inter-arrival gap in whole ns, strictly positive. Unlike
    {!exponential} it returns an immediate, so a draw allocates
    nothing. *)
