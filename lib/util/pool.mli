(** A reusable pool of worker domains with deterministic, work-stealing-free
    scheduling.

    [run pool n f] executes [f i] for every [i] in [0, n), split into at
    most [jobs pool] contiguous index blocks — block boundaries depend only
    on [(n, jobs)], never on timing.  Tasks that are pure per index and
    write only to their own result slot therefore produce bit-identical
    results at any [jobs] setting, which is the contract the selection and
    clustering kernels' differential tests pin down.

    A pool with [jobs = 1] never spawns domains, never locks, and runs
    bodies inline, so sequential use has zero overhead.  Worker domains are
    spawned lazily on the first parallel [run] and parked between calls.
    Nested [run] calls on a busy pool execute inline rather than deadlock.

    A pool is a single-client resource: one domain submits work at a time
    (concurrent submissions degrade safely to inline execution). *)

type t

val create : jobs:int -> t
(** [create ~jobs] makes a pool that splits work into at most [jobs]
    blocks.  Raises [Invalid_argument] if [jobs < 1].  No domains are
    spawned until the first parallel [run]. *)

val sequential : t
(** The jobs = 1 pool; always runs inline. *)

val run : t -> int -> (int -> unit) -> unit
(** [run t n f] calls [f i] for all [0 <= i < n]; each index exactly once.
    Worker exceptions are re-raised in the caller after all blocks finish
    (first one wins), preserving the backtrace from the raising domain. *)

val run_blocks : t -> int -> (int -> int -> int -> unit) -> unit
(** [run_blocks t n f] calls [f block lo hi] for each contiguous block
    [lo..hi] (inclusive) of the static partition of [0, n).  Use when the
    body wants per-block scratch state: [block] indexes are dense from 0
    and at most [jobs t]. *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map t n f] is [| f 0; ...; f (n-1) |], computed in parallel blocks,
    returned in index order. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  The pool may be used again
    afterwards (workers respawn lazily). *)

type failure = { error : exn; backtrace : string }
(** [backtrace] is captured on the domain that ran the failing attempt
    (backtrace recording is enabled per executing domain), so it is
    populated for parallel runs too, not just [jobs = 1]. *)

type 'a outcome = { result : ('a, failure) result; attempts : int }
(** Per-index result of a supervised run.  [attempts] counts executions of
    the body for that index (1 = first try succeeded); a [Failed] outcome
    has consumed its whole attempt budget. *)

val run_results : ?retries:int -> t -> int -> (int -> 'a) -> 'a outcome array
(** [run_results t n f] is {!map} with per-task fault containment: the
    body's exceptions are caught and retried at once, up to [retries]
    extra attempts (default 2), and each index yields an [outcome] instead of aborting the batch — this
    function never raises.  Scheduling uses the same static partition as
    {!run}; with a deterministic body the outcome array is bit-identical
    at any [jobs], and with no fault plan installed the values equal
    [map t n f]'s.  An escaped [Fault.Injected] crash (the
    [pool.crash] injection point) kills and respawns the workers, then a
    sequential recovery pass recomputes the lost indices. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, exception-safe. *)

val default_jobs : unit -> int
(** Pool size for shared infrastructure: the [MICA_JOBS] environment
    variable when set to a positive integer (so CI can pin parallelism),
    otherwise the machine's recommended domain count capped at 8. *)

val default : unit -> t
(** The process-wide shared pool, created on first use with
    [default_jobs ()] workers and shut down at exit. *)

val using : jobs:int -> (t -> 'a) -> 'a
(** [using ~jobs f]: run [f] with a pool of [jobs] workers, reusing
    {!sequential} for [jobs <= 1] and the shared {!default} pool when the
    sizes match, spawning a transient pool otherwise. *)
