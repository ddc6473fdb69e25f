(** Agglomerative hierarchical clustering.

    The paper's prior-work methodology (Eeckhout et al., Phansalkar et al.)
    presents benchmark similarity as dendrograms from hierarchical
    clustering; this module provides the same capability over workload
    spaces.  Classic O(n^3) agglomeration with Lance-Williams updates —
    ample for hundreds of benchmarks. *)

type linkage =
  | Single  (** nearest-member distance *)
  | Complete  (** farthest-member distance *)
  | Average  (** unweighted average (UPGMA) *)

type tree =
  | Leaf of int  (** observation index *)
  | Node of { left : tree; right : tree; height : float; size : int }
      (** merge of two subtrees at the given inter-cluster distance *)

val cluster : ?linkage:linkage -> Matrix.t -> tree
(** Cluster the rows of an observations-by-features matrix under Euclidean
    distance.  Requires at least one row. *)

val size : tree -> int
val height : tree -> float
(** 0 for leaves. *)

val cut : tree -> k:int -> int array
(** Cut into exactly [k] clusters (undoing the last k-1 merges); returns a
    cluster id per observation, ids 0..k-1 in leaf order.  Requires
    [1 <= k <= size]. *)
