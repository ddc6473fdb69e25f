(** Self-describing run directories ([runs/<stamp>-<tag>/]).

    A run directory is the unit of reproducibility: every [mica] and
    [bench] invocation that characterizes workloads commits one, holding

    - [manifest.json] — provenance ({!Manifest.t}) plus the MD5 of every
      other artifact, itself under a checksum header;
    - [mica_dataset.csv] / [hpc_dataset.csv] — the characteristic-vector
      and counter datasets backing the invocation;
    - [metrics.json] — the observability snapshot ([Mica_obs.Obs]);
    - [bench.json] — bench measurements (bench runs only).

    [mica compare] and [mica variance] consume these directories; loading
    verifies every recorded digest and returns [Error] — never raises —
    on truncation, corruption or schema drift, so a damaged run is
    reported as unreadable instead of being half-compared. *)

type table = {
  row_names : string array;  (** workload ids *)
  columns : string array;  (** characteristic short names *)
  cells : float array array;
}

type t = {
  dir : string;  (** the run directory path *)
  manifest : Manifest.t;
  mica : table option;
  hpc : table option;
  metrics : Mica_obs.Json.t option;
  bench : Mica_obs.Json.t option;
}

val mica_file : string
val hpc_file : string
val metrics_file : string
val bench_file : string

val timestamp : unit -> string
(** Local time as [YYYYMMDD-HHMMSS]. *)

val csv_of_table : table -> string
(** [name,<col>...] header then one row per observation, [%.17g] floats —
    the cache layout, so the dataset round-trips bit-exactly. *)

type artifact = { filename : string; contents : string }

val commit :
  root:string -> ?dirname:string -> manifest:Manifest.t -> artifacts:artifact list -> unit -> string
(** Create [root/<dirname>] (default [<manifest.created>-<manifest.tag>];
    when that exists, the first of [<dirname>.2], [<dirname>.3], ... that
    this call creates), write every artifact atomically, then write
    [manifest.json] — with [files] replaced by the artifacts' actual
    digests — last, under its checksum header.  Returns the run directory
    path.  On failure it removes the directory it created and raises
    [Sys_error] / [Fault.Injected]; callers treat the run directory as an
    optimization and degrade to a warning. *)

val refresh_artifact : dir:string -> filename:string -> contents:string -> unit
(** Rewrite one artifact of an existing run and re-commit the manifest
    with its updated digest.  Used to finalize [metrics.json] at process
    exit, after spans the initial commit could not have seen (e.g. the GA
    stage of [mica select-ga]) have run. *)

val load : string -> (t, string) result
(** Read and fully verify a run directory.  [Error] (with a
    human-readable reason) on: missing/truncated/corrupt manifest,
    foreign schema, a manifest file name that is not a plain name of the
    directory (empty, [.], [..] or containing [/]), any artifact listed
    in the manifest that is missing or fails its digest, or an
    unparsable dataset/JSON artifact. *)

val resolve : string -> [ `Run of string | `Not_run | `Error of string ]
(** Interpret a CLI path argument as a run directory.

    - [`Run dir]: the path is a run directory (holds a [manifest.json]),
      or is the magic basename [latest] and the newest run under its
      parent was found — [dir] is that run.
    - [`Error reason]: the argument clearly meant a run but cannot name
      one — a dangling symlink, a [latest] whose parent is missing or
      holds no runs, or an existing directory without a manifest.  The
      reason is a complete, actionable sentence.
    - [`Not_run]: the argument is not about run directories at all
      (e.g. a workload id); callers fall through to their other
      interpretations.

    Never raises. *)
