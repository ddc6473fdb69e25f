(** Branch-predictability analyzer: characteristics 44-47.

    Implements the Prediction-by-Partial-Matching (PPM) predictor of Chen,
    Coffey and Mudge as a microarchitecture-independent measure of branch
    predictability.  A PPM predictor of order [m] keeps frequency counts
    for every branch-history context of length 0..m; prediction uses the
    longest context seen before (escaping to shorter contexts), predicting
    the majority outcome recorded under that context.

    Four variants are measured, following the paper:
    - GAg: global history, one shared table;
    - PAg: per-branch (local) history, one shared table;
    - GAs: global history, separate tables per branch;
    - PAs: per-branch history, separate tables per branch.

    Only conditional branches participate.  The reported value is the
    misprediction rate (lower = more predictable). *)

type variant = GAg | PAg | GAs | PAs

type t

val create : ?order:int -> ?variants:variant list -> unit -> t
(** [order] is the maximum context length in branch outcomes; default 8.
    [variants] restricts which predictors are simulated (default all
    four) — measuring fewer variants costs proportionally less, which is
    what makes a reduced characteristic set cheaper to collect. *)

val sink : t -> Mica_trace.Sink.t

val miss_rate : t -> variant -> float
(** Misprediction rate over all conditional branches seen (0 if none). *)

val branches : t -> int
(** Conditional branches observed. *)

val to_vector : t -> float array
(** Miss rates for GAg, PAg, GAs, PAs. *)
