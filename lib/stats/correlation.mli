(** Correlation coefficients. *)

val pearson : float array -> float array -> float
(** Pearson product-moment correlation.  Returns 0 if either input has zero
    variance.  Requires equal lengths. *)

val spearman : float array -> float array -> float
(** Spearman rank correlation (Pearson over average ranks, handling
    ties). *)
