(** Receiver operating characteristic analysis of workload spaces.

    Following section V-D of the paper: benchmark pairs are labelled
    positive when their distance in the hardware-performance-counter space
    exceeds a fixed threshold (20% of the maximum observed distance);
    sweeping the classification threshold in the
    microarchitecture-independent space then traces a ROC curve of
    sensitivity (true-positive rate) against 1 - specificity
    (false-positive rate). *)

type point = { threshold : float; tpr : float; fpr : float }

type curve = { points : point array; auc : float }

val positives : ref_distances:float array -> frac:float -> bool array
(** [positives ~ref_distances ~frac] labels pair [p] positive when
    [ref_distances.(p) > frac *. max ref_distances]. *)

val curve : labels:bool array -> scores:float array -> curve
(** ROC of [scores] (higher score = predicted positive at low thresholds
    swept over all distinct score values) against ground-truth [labels].
    Points are ordered by increasing FPR; AUC by trapezoidal rule.
    Requires equal lengths and at least one positive and one negative
    label; a NaN score raises [Invalid_argument] naming its index. *)

val curves : labels:bool array -> float array list -> curve list
(** [curves ~labels scores] is [List.map (fun scores -> curve ~labels ~scores) scores],
    with one set of sort buffers shared by all the curves. *)
