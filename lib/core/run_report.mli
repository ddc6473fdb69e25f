(** Structured outcome of a characterization batch.

    {!Pipeline.datasets_report} returns one entry per requested workload
    saying where its row came from — the cache, a resumed checkpoint, a
    fresh (possibly retried) computation — or why it is missing, with the
    failing exception and backtrace.  Consumers degrade gracefully: the
    CLI renders the report and keeps going with the surviving rows. *)

type status =
  | Computed of { attempts : int }
      (** freshly characterized; [attempts > 1] means retries happened *)
  | Cached  (** served from the on-disk cache *)
  | Resumed  (** recovered from an interrupted run's checkpoint *)
  | Failed of { attempts : int; error : string; backtrace : string }
      (** attempt budget exhausted; no row for this workload *)

type timing = { elapsed_s : float; minor_words : float }
(** Per-workload characterization cost, measured unconditionally (two
    clock reads and two GC counter reads per workload) so that report
    structure does not depend on whether metrics are enabled. *)

type entry = { id : string; status : status; timing : timing option }
(** [timing] is [Some] only for freshly computed workloads. *)

type t

val create : entry list -> t
val entries : t -> entry list
val computed : t -> int
val cached : t -> int
val resumed : t -> int

val failures : t -> entry list
val all_ok : t -> bool

val timings : t -> (string * timing) list
(** Per-workload stage timings for the entries that were computed this
    run, in report order.  Used by [mica profile]. *)

val summary : t -> string
(** One line: ["5 computed (1 retried), 116 cached, 1 resumed, 0 failed"]. *)

val render : t -> string
(** Multi-line report: the summary plus one block per failure with its
    error and backtrace. *)
