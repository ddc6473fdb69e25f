(** Deterministic pseudo-random number generation.

    All stochastic components of the library (trace generation, k-means
    seeding, the genetic algorithm) draw from this module so that every
    experiment is bit-reproducible.  The generator is xoshiro256**, seeded
    via SplitMix64 as recommended by its authors. *)

type t
(** Mutable generator state. *)

val create : seed:int64 -> t
(** [create ~seed] initializes a generator from a 64-bit seed.  Equal seeds
    yield equal streams. *)

val of_string : string -> t
(** [of_string s] seeds a generator from the FNV-1a hash of [s]; used to give
    every named workload its own independent stream. *)

val split : t -> t
(** [split t] derives a statistically independent generator from [t],
    advancing [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t n] is uniform over [0, n).  Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform over [lo, hi] inclusive.  Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t x] is uniform over [0, x). *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p] (clamped to [0,1]). *)

val geometric : t -> p:float -> int
(** [geometric t ~p] counts Bernoulli(p) failures before the first success;
    support 0, 1, 2, ...  Requires [0 < p <= 1]. *)

val geometric_log : t -> log_q:float -> int
(** [geometric_log t ~log_q] is [geometric t ~p] for [log_q = log (1. -. p)]:
    the same value from the same draws, for callers that draw many times at
    one [p] and take the logarithm once. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via Box-Muller. *)

val exponential : t -> mean:float -> float
(** Exponential deviate with the given mean. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] samples ranks 0..n-1 with probability proportional to
    [1/(rank+1)^s], via rejection-inversion-free CDF table-less sampling
    (linear scan is avoided; uses the Ziggurat-free approximation of
    rejection sampling for the Zipf law). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val shuffle_ints : t -> int array -> pos:int -> len:int -> unit
(** [shuffle_ints t a ~pos ~len] shuffles [a.(pos) .. a.(pos + len - 1)] in
    place, drawing exactly as [shuffle] does on an array of [len]
    elements, without [shuffle]'s write barrier per store.  Raises
    [Invalid_argument] if the range is not within [a]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_weighted : t -> (float * 'a) array -> 'a
(** [pick_weighted t choices] samples proportionally to the (non-negative,
    not all zero) weights. *)

val hash_string : string -> int64
(** FNV-1a 64-bit hash, used for name-derived seeds. *)
