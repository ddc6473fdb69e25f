(** The end-to-end characterization pipeline.

    For each workload, one trace is generated and fanned out to both the
    microarchitecture-independent analyzer (47 characteristics) and the
    machine models (7 hardware-counter metrics) — a single pass, like
    running ATOM and DCPI over the same execution.

    Results are cached as CSV under [cache_dir] keyed by trace length and
    model version, so repeated experiments and the CLI share work.  The
    cache tier is crash-safe: files are committed atomically (temp file +
    rename) under a content checksum, corrupt files are quarantined and
    recomputed, and each finished workload is checkpointed so a run killed
    mid-batch resumes from the last committed workload.  Workload failures
    are contained per task (bounded retry, then reported in
    {!Run_report.t}) instead of aborting the batch. *)

type run_sink = {
  run_root : string;  (** run directories land under this root, e.g. ["runs"] *)
  run_tag : string;  (** usually the CLI subcommand; names the directory *)
  run_seeds : (string * string) list;  (** named seeds recorded in the manifest *)
}

type config = {
  icount : int;  (** dynamic instructions per workload trace *)
  ppm_order : int;  (** PPM predictor maximum context length *)
  cache_dir : string option;  (** [None] disables caching *)
  progress : bool;  (** log one line per characterized workload *)
  jobs : int;
      (** worker domains for characterization; workloads are independent
          and deterministic, so results are identical at any parallelism *)
  retries : int;
      (** extra attempts per workload before it is reported as failed *)
  run : run_sink option;
      (** when set, every {!datasets_report} batch commits a
          self-describing run directory ([Mica_run.Run_dir]) holding the
          manifest, both datasets and the metrics snapshot; commit
          failure degrades to a warning, never an error *)
  sketch : int option;
      (** when set, characterize through the fixed-memory sketch
          analyzers ([Mica_sketch.Sketch]) under this byte budget
          instead of the exact tables.  Estimated vectors bypass the
          characterization cache and checkpoints entirely — in both
          directions — so exact and sketched results never mix. *)
  cancel : (unit -> bool) option;
      (** cooperative cancellation: when set, {!characterize} polls this
          between trace chunks (every [Chunk.capacity] instructions) and
          raises {!Cancelled} as soon as it returns [true].  The serve
          daemon uses it to abandon work whose deadline has passed. *)
}

exception Cancelled
(** Raised by {!characterize} when [config.cancel] fires.  Cancellation
    is observation-free: no partial vector escapes and no cache or
    checkpoint entry is written for the abandoned workload. *)

val default_config : config
(** 200k instructions, PPM order 8, cache under ["results/cache"],
    progress off, parallelism = {!Mica_util.Pool.default_jobs} (the
    [MICA_JOBS] environment variable when set to a positive integer,
    otherwise available cores capped at 8), 2 retries, exact analyzers
    (no sketch). *)

val model_version : string
(** Bumped whenever the generator or analyzers change semantics; part of
    the cache key. *)

val characterize : config -> Mica_workloads.Workload.t -> float array * float array
(** [(mica_47, hpc_7)] for one workload (no caching, no supervision).
    Raises {!Cancelled} if [config.cancel] fires mid-trace. *)

val warm_cache : config -> (string * float array * float array) list
(** Every complete [(id, mica_47, hpc_7)] row currently in the on-disk
    characterization caches for this config's [(icount, model_version)]
    key, sorted by id; [[]] when caching is disabled.  Rows failing the
    checksum or arity checks are excluded exactly as in
    {!datasets_report}.  The serve daemon's warm start. *)

val flush_cache : config -> (string * (float array * float array)) list -> unit
(** Merge [(id, (mica_47, hpc_7))] entries into the on-disk caches:
    current cache contents are re-loaded, given entries override by id,
    and both files are committed through the same atomic checksummed
    writer as {!datasets_report}.  Never raises — failures degrade to a
    warning.  No-op when caching is disabled or [entries] is empty. *)

val committed_run_dir : unit -> string option
(** The run directory committed by the most recent {!datasets_report}
    with [config.run] set, if any.  The CLI uses it to refresh the run's
    [metrics.json] at process exit with the full-command snapshot. *)

val datasets_report :
  ?config:config ->
  Mica_workloads.Workload.t list ->
  Dataset.t * Dataset.t * Run_report.t
(** [(mica, hpc, report)] over the given workloads.  Rows are workload
    ids, in request order, restricted to the workloads that produced a
    vector — from the cache, from a resumed checkpoint, or freshly
    computed (with up to [config.retries] retries).  Workloads whose
    attempt budget is exhausted are simply absent from the datasets and
    carried as [Failed] entries in the report; this function never raises
    on workload or cache-file failure. *)

val datasets : ?config:config -> Mica_workloads.Workload.t list -> Dataset.t * Dataset.t
(** {!datasets_report} with strict semantics: raises [Failure] naming the
    first permanently failed workload, so callers that must have every row
    fail loudly. *)

val mica_dataset : ?config:config -> Mica_workloads.Workload.t list -> Dataset.t
