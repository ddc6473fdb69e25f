(** A machine model's event counts in the metrics registry
    ({!Mica_obs.Obs}). *)

val record :
  model:string ->
  instrs:int ->
  l1i:Cache.t ->
  l1d:Cache.t ->
  l2:Cache.t ->
  dtlb:Tlb.t ->
  Branch_pred.t ->
  unit
(** When metrics are on, add the instructions stepped, each cache level's
    and the DTLB's accesses and misses, and the predictor's predictions
    and mispredictions to the counters [uarch.<model>.instrs],
    [uarch.<model>.l1d_misses], [uarch.<model>.dtlb_accesses],
    [uarch.<model>.mispredictions] and so on.  A no-op with metrics
    off. *)
