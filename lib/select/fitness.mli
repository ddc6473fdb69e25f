(** Fitness of characteristic subsets.

    Both reduction methods of section V judge a subset S of the N
    characteristics by how well pairwise benchmark distances computed in
    the reduced space correlate with distances in the full normalized
    space.  This module precomputes the per-pair, per-characteristic
    squared differences once, in a flat characteristic-major buffer (one
    contiguous column of pairs per characteristic), and evaluates a whole
    batch of subsets in one cache-blocked, block-major sweep over the
    pairs — which is what makes the genetic algorithm and the
    correlation-elimination sweep affordable.

    [rho]/[paper_fitness] and every rebuild job of {!eval} are
    bit-identical to the naive reference path
    [Correlation.pearson (Distance.subset_distances components subset)
    (Distance.condensed normalized)]; a delta job agrees with a full
    recompute up to the floating-point tolerance documented in DESIGN.md
    §9. *)

type t

val create : Mica_stats.Matrix.t -> t
(** [create normalized] builds the evaluation context from an
    observations-by-characteristics matrix that is already normalized
    (z-scored).  Requires at least 2 observations. *)

val n_characteristics : t -> int
val n_pairs : t -> int

val full_distances : t -> float array
(** Condensed pairwise distances using all characteristics. *)

val distances_for : t -> int array -> float array
(** Condensed pairwise distances using only the given characteristic
    indices, summed in the given order.  This and [rho] raise
    [Invalid_argument] on an index outside [0, n_characteristics). *)

val rho : t -> int array -> float
(** Pearson correlation between the subset-space distances and the
    full-space distances.  0 for the empty subset.  Evaluates through a
    scratch row owned by [t]: single-domain use only — parallel callers
    evaluate through {!eval}. *)

val paper_fitness : t -> int array -> float
(** The paper's GA fitness [f = rho * (1 - n/N)]. *)

val of_rho : t -> size:int -> float -> float
(** [of_rho t ~size rho] is the paper's fitness of a [size]-column subset
    whose correlation is [rho]; 0 when [size = 0]. *)

(** {1 Batch evaluation} *)

type job = {
  cols : int array;
      (** columns in summing order; [c >= 0] adds column [c], [lnot c]
          subtracts it *)
  base : float array option;
      (** the delta path: start from these per-pair sums (a parent
          subset's, length [n_pairs]); [None] starts every sum from 0.0 *)
  keep : float array option;  (** receives the finished per-pair sums *)
}
(** One subset to evaluate.  A rebuild job ([base = None], non-negative
    [cols]) is exact, bit-identical to [rho t cols]; a delta job computes
    [sqrt (Float.max 0.0 (base +/- columns))], one column at a time in
    [cols] order, and carries the delta drift. *)

type scratch
(** Distance rows for the jobs of one {!eval} call, reusable across
    calls. *)

val scratch : t -> int -> scratch
(** Room for up to the given number of jobs per call. *)

val eval : ?pool:Mica_util.Pool.t -> ?scratch:scratch -> t -> job array -> float array
(** [eval t jobs] is the rho of every job, in order.  Jobs are split
    over the pool in contiguous ranges; each range is swept block-major
    (all of its jobs on one block of pairs before the next block), and
    results are bit-identical at any pool size.  Jobs must not share a
    [keep] array, nor keep into another job's [base] (a job may keep
    into its own).  Without [scratch], the call allocates its distance
    rows.  Raises [Invalid_argument] on a column outside
    [0, n_characteristics), on sums whose length is not [n_pairs], or on
    a scratch with fewer rows than jobs or made for another [t]. *)
