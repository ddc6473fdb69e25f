(** One-pass fleet characterization: the corpus against N machine models,
    and the cross-machine stability of counter-based similarity.

    Each workload's trace is generated exactly once and fanned out to all
    N machine sinks ({!Mica_uarch.Machine.measure_all}); workloads run
    pool-parallel.  Because trace generation dominates machine simulation,
    this is markedly faster than N single-machine passes — and the result
    is bit-identical to them, which {!characterize_n_pass} exists to prove
    (and to serve as the benchmark baseline).

    The paper's core warning is that conclusions drawn from
    microarchitecture-dependent characteristics "may not be generalized
    to other microarchitectures".  {!report} and {!transfer} quantify it:
    they compare the benchmark-distance structure each machine induces
    against the other machines and against the
    microarchitecture-independent space, which is machine-invariant by
    construction.  [mica machines] runs them on
    {!Mica_uarch.Machine_desc.presets} and prints {!render_transfer}. *)

type t = {
  machine_names : string array;
  metric_names : string array;  (** {!Mica_uarch.Machine.metric_names} *)
  workload_ids : string array;
  matrix : float array array;
      (** [workloads x (machines * metrics)], machine-major columns: the
          six counters of machine 0, then of machine 1, ... *)
  icount : int;
}

val characterize :
  ?jobs:int ->
  configs:Mica_uarch.Machine.config list ->
  icount:int ->
  Mica_workloads.Workload.t list ->
  t
(** One chunk pass per workload fanned out to every machine.  [jobs]
    defaults to [Pool.default_jobs ()]; results are bit-identical at any
    [jobs].  Raises [Invalid_argument] on an empty config list or
    duplicate machine names. *)

val characterize_n_pass :
  configs:Mica_uarch.Machine.config list ->
  icount:int ->
  Mica_workloads.Workload.t list ->
  t
(** The sequential oracle: one full corpus pass per machine, regenerating
    each workload's trace N times.  Must equal {!characterize}
    bit-for-bit. *)

val to_table : t -> Mica_run.Run_dir.table
(** The N×6-per-workload counter matrix as a run-directory table. *)

type report_row = {
  machine : string;
  mica_corr : float;
      (** distance correlation of this machine's counter space with the
          microarchitecture-independent space ([nan] when not supplied) *)
  hpc_corr : float option;
}

type report = {
  rows : report_row list;
  cross : (string * string * float) list;
      (** distance correlation for each machine pair [(a, b)] with
          [a < b], in machine order *)
  spaces : (string * Space.t) list;  (** each machine's counter space *)
}

val report : ?mica:Space.t -> ?hpc:Space.t -> t -> report
(** Builds each machine's counter {!Space} and correlates benchmark
    distances across machines and against the supplied reference
    spaces. *)

val render_report : report -> string

val transfer : report -> (string * string * Classify.counts) list
(** For each pair of [cross], treating "similar on machine a" as ground
    truth at the 20% threshold, how "similar on machine b" verdicts
    classify.  False positives are benchmark pairs one machine calls
    similar and the other does not: conclusions that failed to
    transfer. *)

val render_transfer : report -> string
(** The cross-machine experiment's text ([mica machines]): pairwise
    machine correlations, each machine's correlation with the MICA space
    ([nan] when {!report} had no [mica]) and the {!transfer} table. *)
