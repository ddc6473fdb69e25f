(** Principal components analysis.

    PCA is the prior-work baseline the paper improves on (Eeckhout et al.,
    Phansalkar et al.): it decorrelates the characteristic space but still
    requires measuring every original characteristic.  We include it both
    as a comparison method and for its own utility.

    Eigen-decomposition is done with the cyclic Jacobi method on the
    covariance (or correlation) matrix, which is robust for the symmetric
    matrices that arise here. *)

type t = {
  mean : float array;  (** column means of the input *)
  scale : float array;  (** column stddevs (1s when not standardized) *)
  components : Matrix.t;  (** rows = principal components (eigenvectors) *)
  eigenvalues : float array;  (** descending *)
}

val fit : ?standardize:bool -> Matrix.t -> t
(** [fit m] computes principal components of an observations-by-variables
    matrix.  [standardize] (default true) z-scores columns first, i.e. PCA
    on the correlation matrix. *)

val transform : t -> ?dims:int -> Matrix.t -> Matrix.t
(** Project observations onto the first [dims] components (default all). *)

val explained_variance_ratio : t -> float array
