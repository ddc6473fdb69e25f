(** Approximation laws for the fixed-memory sketch analyzers.

    The contract the sketch layer must honour, checked against the exact
    analyzers as oracle:

    - every sketched characteristic is within a documented
      per-characteristic error bound of the exact value (reuse 0.15,
      working sets / strides / PPM / branch 0.05, everything else exact);
    - mean error is non-increasing in the byte budget;
    - vectors and stream snapshots are bit-identical across chunk
      boundaries and repeated runs;
    - the sketched pipeline dataset is invariant under the worker count.

    Errors are [|sketch - exact| / max(|exact|, 1)]. *)

type outcome = { law : string; ok : bool; detail : string }

val all :
  ?accuracy_workloads:Mica_workloads.Workload.t list ->
  icount:int ->
  Mica_workloads.Workload.t list ->
  outcome list
(** All five laws.  [accuracy_workloads] (default: [workloads]) lets the
    full suite sweep the accuracy law over the whole registry while the
    heavier determinism and pipeline laws stay on the small set; the
    determinism, stream and jobs laws cap their icount at 20k. *)
