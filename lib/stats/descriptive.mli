(** Descriptive statistics over float arrays. *)

val mean : float array -> float
(** Arithmetic mean; 0 for the empty array. *)

val variance : float array -> float
(** Population variance (divide by n); 0 for fewer than 2 elements. *)

val stddev : float array -> float
(** Population standard deviation. *)

val min_max : float array -> float * float
(** Requires a non-empty array. *)

val sum : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,1], linear interpolation between order
    statistics.  Requires a non-empty array.  Does not modify [xs]. *)

type summary = {
  count : int;  (** finite samples seen (non-finite inputs are dropped) *)
  mean_v : float;  (** 0 when no finite sample *)
  stddev_v : float;  (** population stddev; 0 for fewer than 2 samples *)
  cv : float;
      (** coefficient of variation, [stddev / |mean|]; 0 for a constant
          series, [infinity] for a zero-mean non-constant one *)
}

val summarize : float array -> summary
(** Single-pass (Welford) mean/stddev/CV over the finite elements of the
    array.  The run-to-run noise aggregator behind [mica variance]:
    non-finite samples are dropped rather than propagated, so one corrupt
    measurement degrades a sample instead of poisoning the report. *)
