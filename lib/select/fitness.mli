(** Fitness of characteristic subsets.

    Both reduction methods of section V judge a subset S of the N
    characteristics by how well pairwise benchmark distances computed in
    the reduced space correlate with distances in the full normalized
    space.  This module precomputes the per-pair, per-characteristic
    squared differences once, in a flat characteristic-major buffer (one
    contiguous column of pairs per characteristic), so that evaluating a
    subset is a cache-blocked sweep over the pairs with no intermediate
    allocation — which is what makes the genetic algorithm and the
    correlation-elimination sweep affordable.

    [rho]/[paper_fitness] are bit-identical to the naive reference path
    [Correlation.pearson (Distance.subset_distances components subset)
    (Distance.condensed normalized)]; the {!Subset} delta updates agree
    with a full recompute up to the floating-point tolerance documented in
    DESIGN.md §9. *)

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
    indices.  This and the other subset evaluators below raise
    [Invalid_argument] on an index outside [0, n_characteristics). *)

val rho : t -> int array -> float
(** Pearson correlation between the subset-space distances and the
    full-space distances.  0 for the empty subset.  Evaluates through a
    scratch buffer owned by [t]: single-domain use only — parallel
    callers evaluate through their own {!context}. *)

val paper_fitness : t -> int array -> float
(** The paper's GA fitness [f = rho * (1 - n/N)]. *)

type ctx
(** A per-domain evaluation context: [t] plus a private scratch buffer,
    so worker domains can evaluate subsets concurrently with zero
    allocation per evaluation and no shared mutable state. *)

val context : t -> ctx
val rho_with : ctx -> int array -> float
val fitness_with : ctx -> int array -> float

(** Mutable subset state with O(pairs) add/remove updates.

    [sums] holds, per pair, the sum of squared differences over the
    current members; adding or removing a column is one elementwise pass
    ([sum +/- column]), and [rho] evaluates the Pearson correlation from
    the square roots of those sums.  This is what makes each
    correlation-elimination step O(pairs) instead of O(k * pairs), and
    gives the GA a delta path for genomes that differ from an evaluated
    parent in few bits.

    Delta updates accumulate floating-point drift relative to an
    in-order full recompute; [rebuild] resets it.  All elementwise phases
    accept an optional pool and are bit-identical at any [jobs] (each
    pair slot is written independently; reductions stay sequential). *)
module Subset : sig
  type fitness := t
  type t

  val make : fitness -> t
  (** The empty subset. *)

  val of_cols : ?pool:Mica_util.Pool.t -> fitness -> int array -> t
  (** Subset with the given member columns, sums computed in ascending
      column order (no drift).  Raises [Invalid_argument] on an
      out-of-range column. *)

  val set_cols : ?pool:Mica_util.Pool.t -> t -> int array -> unit
  (** Reset the membership to exactly the given columns and recompute the
      sums in-order (as {!of_cols}, reusing the state's storage). *)

  val blit : src:t -> dst:t -> unit
  (** Copy membership and running sums from [src] to [dst] (same
      underlying fitness; O(pairs), no allocation). *)

  val copy : t -> t
  val cardinal : t -> int
  val mem : t -> int -> bool

  val cols : t -> int array
  (** Member columns in ascending order. *)

  val add : ?pool:Mica_util.Pool.t -> t -> int -> unit
  val remove : ?pool:Mica_util.Pool.t -> t -> int -> unit
  (** O(pairs) delta update; no-ops when membership already matches. *)

  val rebuild : ?pool:Mica_util.Pool.t -> t -> unit
  (** Recompute sums from the components in ascending column order,
      clearing accumulated delta drift. *)

  val rho : ?pool:Mica_util.Pool.t -> t -> float
  val fitness : ?pool:Mica_util.Pool.t -> t -> float

  val rho_without : ?pool:Mica_util.Pool.t -> ?buf:float array -> t -> int -> float
  (** [rho_without s c]: rho of the current subset with column [c] left
      out, via [sqrt (sums - column c)] in one O(pairs) pass; [s] is not
      modified.  [buf] (length [n_pairs]) overrides the internal distance
      buffer so concurrent candidate evaluations can share [s]. *)
end
