(** Metamorphic laws of the characterization pipeline.

    Each law relates two independently computed results that must agree
    bit-exactly; none needs ground truth, so they survive aggressive
    refactors of the hot path:

    - {e seed determinism}: characterizing the same program twice yields
      the identical 47-element vector;
    - {e prefix law}: the first [n] instructions of a longer trace carry
      exactly the characteristics of an [icount = n] run — the generator
      is prefix-closed and no analyzer looks ahead;
    - {e jobs equality}: {!Mica_core.Pipeline.datasets} at [jobs = 1] and
      [jobs = n] produce identical datasets — parallelism must not leak
      into results;
    - {e cache round-trip}: re-reading a dataset through the CSV cache
      reproduces it exactly. *)

type outcome = {
  law : string;
  ok : bool;
  detail : string;  (** what was compared; the first difference on failure *)
}

val seed_determinism : Mica_trace.Program.t -> icount:int -> outcome

val prefix_law : Mica_trace.Program.t -> n:int -> m:int -> outcome
(** Requires [0 < n <= m]: analyzing [icount = n] must equal analyzing
    the first [n] instructions collected from an [icount = m] run. *)

val jobs_equality : ?jobs:int -> Mica_workloads.Workload.t list -> icount:int -> outcome
(** Default [jobs] is the pipeline default (capped core count). *)

val cache_roundtrip : Mica_workloads.Workload.t list -> icount:int -> outcome
(** Runs the pipeline against a fresh temporary cache directory twice and
    compares; the directory is removed afterwards. *)

val all : ?jobs:int -> Mica_workloads.Workload.t list -> icount:int -> outcome list
(** Every law over the given workloads: per-workload seed determinism and
    prefix law, then jobs equality and cache round-trip across the set. *)
