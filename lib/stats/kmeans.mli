(** K-means clustering with k-means++ seeding.

    Deterministic given the supplied generator; Lloyd iterations run to
    assignment convergence or [max_iters].  Empty clusters are re-seeded
    with the point farthest from its centroid. *)

type result = {
  k : int;
  assignments : int array;  (** cluster id per observation *)
  centroids : Matrix.t;
  inertia : float;  (** sum of squared distances to assigned centroid *)
  iterations : int;
}

val fit :
  ?max_iters:int ->
  ?restarts:int ->
  ?pool:Mica_util.Pool.t ->
  ?features:string array ->
  rng:Mica_util.Rng.t ->
  k:int ->
  Matrix.t ->
  result
(** [fit ~rng ~k m] clusters the rows of [m].  With [restarts] > 1 the best
    inertia over independent seedings wins (earliest restart on a tie);
    each restart draws from its own generator split off [rng] up front, so
    the restarts may run on [pool] with a result independent of the pool
    size.  Requires [1 <= k <= Array.length m], rows of equal length and
    finite inputs: a ragged row raises [Invalid_argument], and so does a
    NaN/Inf anywhere in [m], naming the observation and the
    characteristic column (labelled via [features] when given) instead of
    silently corrupting assignments. *)

val cluster_members : result -> int list array
(** Observation indices per cluster, ascending. *)
