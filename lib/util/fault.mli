(** Deterministic, seeded fault injection.

    Every recovery path in the characterization stack — worker retry,
    cache quarantine, checkpoint resume, graceful degradation — is
    exercised by tests through this facility rather than trusted.  A fault
    plan names injection {!point}s with a firing probability; whether a
    given [check] fires is a pure function of [(seed, point, task,
    attempt, key)], so runs are bit-reproducible at any parallelism and a
    retried attempt re-rolls the dice instead of hitting the same fault
    forever.

    Disabled (the default) costs one atomic load per [check] and nothing
    is ever raised; the trace generator's per-chunk call sites are the
    hottest users and stay allocation-free either way. *)

type point =
  | Trace_gen  (** trace generation, per delivered chunk *)
  | Analyzer_chunk  (** analyzer fan-in, per consumed chunk *)
  | Cache_read  (** cache / checkpoint file reads *)
  | Cache_write  (** cache / checkpoint atomic commits *)
  | Pool_worker  (** supervised pool task body, per attempt *)
  | Pool_crash  (** worker death: aborts the worker's whole block *)

val all_points : point list
val point_name : point -> string

exception Injected of string
(** The injected failure.  Carries a human-readable site description
    (point, task, attempt, site key). *)

type t
(** A parsed fault plan: a seed plus per-point rules. *)

val parse : string -> (t, string) result
(** Parse a plan spec: comma-separated [seed=N] and [point=prob] or
    [point=prob\@task] items, e.g. ["seed=7,pool.worker=0.3,cache.read=1@2"].
    [prob] must lie in [0, 1]; [\@task] restricts the rule to one task
    index (for targeting a single workload). *)

val to_string : t -> string
(** Normalized spec; [parse (to_string t)] round-trips. *)

val install : t option -> unit
(** Install (or clear, with [None]) the process-wide plan.  Reads
    [MICA_FAULTS] at startup when set. *)

val installed : unit -> t option

val with_plan : t option -> (unit -> 'a) -> 'a
(** Run with a plan temporarily installed, restoring the previous one
    afterwards (exception-safe).  Test helper; not for concurrent use. *)

val enabled : unit -> bool
(** Cheap guard for call sites that want to skip key computation. *)

val with_context : task:int -> attempt:int -> (unit -> 'a) -> 'a
(** Scope the ambient (task, attempt) identity used by {!check}.  The
    supervised pool wraps each task attempt; sites inside only supply
    their local [key].  Domain-local, exception-safe. *)

val check : point -> key:int -> unit
(** Raise {!Injected} iff the installed plan fires for [(point, ambient
    task, ambient attempt, key)].  No-op when no plan is installed. *)
