(** [mica variance RUN..]: run-to-run noise measurement over N runs.

    For every metric the runs share — bench times ([bench/<name>]),
    observability span wall-times ([span/<name>]) and per-characteristic
    dataset means ([char/<name>], [counter/<name>]) — reports
    mean/stddev/CV across runs and flags metrics whose CV exceeds a noise
    budget.  This is how [mica compare] tolerances are grounded: a bench
    tolerance below the measured CV of the machine would gate on noise,
    one far above it would miss real regressions.  The characteristic
    rows double as a determinism check — same-config runs must report
    CV = 0 there. *)

type row = {
  metric : string;
  present : int;  (** runs carrying a finite sample of this metric *)
  dropped : int;
      (** non-finite samples (NaN characteristics, null bench fits)
          excluded from the summary; reported as [dropped=<n>] in the
          table and as ["dropped"] in the JSON rather than silently
          shrinking [present] *)
  stats : Mica_stats.Descriptive.summary;
  noisy : bool;  (** CV above the budget *)
}

type t = {
  budget : float;
  runs : string list;  (** run directory paths, in argument order *)
  rows : row list;  (** sorted by CV, noisiest first *)
}

val default_budget : float
(** 0.2 — a metric whose run-to-run CV exceeds 20% is flagged. *)

val analyze : ?budget:float -> Run_dir.t list -> t
(** Rows cover every metric with a finite sample in at least two runs;
    non-finite samples are counted per row in [dropped]. *)

val noisy : t -> row list
val render : t -> string
val to_json : t -> Mica_obs.Json.t
