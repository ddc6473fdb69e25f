(** Bootstrap confidence intervals.

    The paper reports point estimates (a correlation of 0.46, a
    false-positive rate of 41%) without uncertainty.  Because our
    benchmark-pair statistics are built from 122 benchmarks, we resample
    {e benchmarks} (not pairs — pairs sharing a benchmark are dependent)
    and recompute each statistic per replicate: a case-bootstrap over the
    workload set. *)

type interval = {
  estimate : float;  (** statistic on the original sample *)
  lo : float;  (** lower percentile bound *)
  hi : float;  (** upper percentile bound *)
  replicates : int;
}

val interval :
  ?replicates:int ->
  ?pool:Mica_util.Pool.t ->
  rng:Mica_util.Rng.t ->
  n:int ->
  (int array -> float) ->
  interval
(** [interval ~rng ~n f] evaluates [f] on the identity sample [|0..n-1|]
    for the point estimate, then on [replicates] (default 1000) resamples
    drawn with replacement, and returns the two-sided 95% percentile
    bounds.  Each replicate draws from its own generator split off
    [rng] up front and the replicates fan out over [pool]; the interval is
    identical at any pool size. *)

val pair_distance_statistic :
  normalized_a:Matrix.t ->
  normalized_b:Matrix.t ->
  (float array -> float array -> float) ->
  int array ->
  float
(** Helper for statistics over the pairwise distances of two normalized
    observation matrices (e.g. the Figure 1 correlation): given a
    benchmark resample, rebuilds both condensed distance vectors over the
    resampled rows — skipping pairs of identical resampled benchmarks,
    whose distance is trivially 0 in both spaces — and applies the
    two-vector statistic. *)
