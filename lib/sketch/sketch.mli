(** Sketched characterization: the full [Mica_analysis.Extended] vector
    from fixed-memory streaming estimators.

    Produces the same 56-characteristic vector (same Table II ordering)
    as the exact extended analyzer, but with every unbounded table
    replaced by a bounded estimator: working sets by {!Cardinality}
    sketches, stride and PPM per-key tables by {!Bounded.Map}, reuse
    distance by {!Sampled_reuse}.  Mix, ILP and register traffic reuse
    the exact analyzers (their state is fixed-size already), so those
    characteristics are exact by construction.

    Memory is fixed at creation from a byte budget and does not grow
    with trace length; accuracy is monotone in the budget.  All hashing
    is fixed-key ({!Cardinality.hash}), so vectors are bit-deterministic
    and invariant under chunk boundaries, RNG seeds and worker counts. *)

type t

(** How a byte budget is split across the estimator families.  Every
    component is monotone in [bytes]. *)
type plan = {
  bytes : int;
  ws_registers : int;  (** per working-set cardinality sketch (4 total) *)
  stride_slots : int;  (** last-address slots for local strides *)
  ppm_slots : int;  (** context slots per PPM variant (4 tables) *)
  hist_slots : int;  (** PPM local-history slots *)
  branch_slots : int;  (** per-branch statistics slots *)
  reuse_near_slots : int;  (** near recency slots in the reuse estimator *)
  reuse_capacity : int;  (** sampled far blocks in the reuse estimator *)
}

val default_bytes : int
(** 1 MiB. *)

val plan : ?bytes:int -> unit -> plan
(** Split [bytes] (default {!default_bytes}, min 4096) across the
    families: three eighths each to PPM contexts and reuse, the rest to
    strides, branch statistics, working sets and history.  Every
    component is monotone in [bytes]. *)

val create : ?ppm_order:int -> ?plan:plan -> unit -> t

val sink : t -> Mica_trace.Sink.t
(** Chunk sink; drop-in for [Mica_analysis.Extended.sink] in any
    pipeline that feeds [Sink.t]. *)

val vector : t -> float array
(** The 47 base characteristics ([Mica_analysis.Characteristics] order). *)

val extended_vector : t -> float array
(** All 56 characteristics ([Mica_analysis.Extended] order). *)

val instructions : t -> int

val reset : t -> unit
(** Return every estimator to its freshly-created state in place; the
    windowed streaming mode calls this at window boundaries. *)

val state_bytes : t -> int
(** Total resident estimator memory in bytes — fixed at creation,
    independent of trace length. *)

val analyze : ?ppm_order:int -> ?plan:plan -> Mica_trace.Program.t -> icount:int -> t
(** Generate [icount] instructions of [program] into a fresh sketch. *)
