(** Workload clustering (section VI, Figure 6).

    K-means over a (typically reduced) workload dataset, with K chosen by
    sweeping K = k_min..k_max and applying the paper's BIC rule: the
    smallest K whose score is within 90% of the maximum. *)

type t = {
  dataset : Dataset.t;  (** the clustered dataset (rows = workloads) *)
  k : int;
  assignments : int array;
  result : Mica_stats.Kmeans.result;
  bic_sweep : (int * float) array;  (** (K, BIC score) over the sweep *)
}

val cluster :
  ?k_min:int ->
  ?k_max:int ->
  ?prefer:Mica_stats.Bic.preference ->
  ?restarts:int ->
  ?seed:int64 ->
  ?pool:Mica_util.Pool.t ->
  Dataset.t ->
  t
(** Normalizes the dataset (z-score) and clusters.  Defaults: K in 1..70,
    90% BIC rule taking the peak-scoring K ({!Mica_stats.Bic.Peak} — see
    the preference discussion there), 3 k-means restarts, fixed seed.  The
    BIC k-sweep and the restarts within each fit fan out over [pool]; the
    clustering is identical at any pool size. *)

val members : t -> int -> string array
(** Row names assigned to a cluster, in dataset order. *)

val sorted_clusters : t -> (int * string array) list
(** Clusters ordered by size (desc), singletons last;
    each with its member names. *)
