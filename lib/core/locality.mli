(** Temporal-locality comparison across suites (Joshi et al. follow-up).

    Using the reuse-distance analyzer, measures each workload's temporal
    data locality and aggregates per suite — the axis along which Joshi et
    al. found SPEC generations drifting.  Also extracts full LRU miss-rate
    curves (miss rate as a function of cache capacity, all sizes priced by
    one trace pass) for selected workloads. *)

type row = {
  id : string;
  suite : Mica_workloads.Suite.t;
  mean_log2_distance : float;  (** higher = poorer temporal locality *)
  cold_fraction : float;  (** first-touch share of accesses *)
}

type suite_summary = {
  s_suite : Mica_workloads.Suite.t;
  s_mean : float;  (** average of members' mean_log2_distance *)
  s_min : float;
  s_max : float;
}

type result = {
  rows : row list;  (** per workload, sorted by descending mean distance *)
  suites : suite_summary list;
}

val run : Experiments.Context.t -> result
(** One additional trace pass per workload at the context's trace length. *)

val miss_curve : Mica_workloads.Workload.t -> icount:int -> (int * float) array
(** [(capacity_in_32B_blocks, LRU miss rate)] points for one workload, at
    64 to 65536 blocks in powers of four. *)

val render : result -> string
