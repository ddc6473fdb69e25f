(** Basic-block-vector (BBV) collection for phase analysis.

    The paper's related work (Sherwood et al.'s SimPoint, Lau et al.)
    identifies program phases from basic-block vectors: per fixed-length
    instruction interval, the execution count of each basic block.  A
    basic block is keyed by its entry pc — the target of the control
    transfer that entered it (or the fall-through pc after a not-taken
    branch).  Intervals are row-normalized so they compare by behaviour,
    not length. *)

type t

val create : ?interval:int -> unit -> t
(** [interval] is the number of dynamic instructions per BBV interval
    (default 10,000).  Must be positive. *)

val sink : t -> Mica_trace.Sink.t

val matrix : t -> float array array
(** Interval-by-block matrix of execution frequencies, each row summing to
    1 (for non-empty intervals). *)

val projected : ?dims:int -> ?seed:int64 -> t -> float array array
(** SimPoint-style random projection of {!matrix} down to [dims]
    dimensions (default 15) — the standard trick to make interval
    clustering cheap and stable. *)
