(** Pairwise distances between observations.

    Distance matrices over n observations are stored in condensed form: a
    vector of the n(n-1)/2 upper-triangle entries, ordered
    (0,1), (0,2), ..., (0,n-1), (1,2), ...  The condensed form is what the
    distance-correlation fitness of {!Mica_select} consumes. *)

val euclidean : float array -> float array -> float
val squared_euclidean : float array -> float array -> float

val pair_index : n:int -> int -> int -> int
(** [pair_index ~n i j] is the condensed index of pair (i, j), [i <> j]. *)

val pairs : n:int -> (int * int) array
(** All (i, j) with i < j, in condensed order. *)

val condensed : Matrix.t -> float array
(** Euclidean distances between all row pairs, condensed order. *)

val condensed_squared_components : Matrix.t -> Matrix.t
(** Row p of the result holds, for pair p, the per-column squared
    differences — so the squared distance of pair p over a column subset S
    is the sum over S.  This is the precomputation that makes feature-subset
    search cheap. *)

val subset_distances : Matrix.t -> int array -> float array
(** [subset_distances components cols]: condensed Euclidean distances using
    only the selected columns, from {!condensed_squared_components} output. *)
