(** The oracle suite: invariants, reference analyzers and metamorphic laws
    over a set of contrasting workloads, with a renderable report.

    This is what [mica verify] and CI run; tests exercise the same entry
    point so a violation fails everywhere the same way. *)

type level = Quick | Full

type check = {
  layer : string;
      (** ["invariants"], ["reference"], ["differential"], ["sketch"] or
          ["scale"] *)
  subject : string;  (** workload id or law name *)
  ok : bool;
  detail : string;
}

type report = {
  level : level;
  checks : check list;
  duration : float;  (** wall-clock seconds *)
}

val passed : report -> bool

val run :
  ?level:level ->
  ?workloads:Mica_workloads.Workload.t list ->
  ?invariant_icount:int ->
  ?reference_icount:int ->
  ?differential_icount:int ->
  unit ->
  report
(** Runs all layers.  Defaults depend on [level] (default [Quick]):
    Quick checks invariants over 50k instructions, reference oracles over
    2k, differential laws over 10k and sketch laws over 20k per workload;
    Full uses 200k / 5k / 50k / 100k, and additionally sweeps the sketch
    accuracy bound over the entire workload registry rather than just the
    supplied trio.  Explicit [*_icount] arguments override either
    level. *)

val render : report -> string
(** Multi-line human-readable report ending in a pass/fail summary. *)
