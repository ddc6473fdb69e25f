(** The self-describing head of a run directory.

    [manifest.json] records everything needed to reproduce and audit the
    invocation that produced the run — subcommand, full argv, pipeline
    config, seeds, [MICA_JOBS], git revision, fault-injection spec — plus
    the MD5 of every other artifact in the directory, so a run loads
    all-or-nothing: any artifact that drifted from its recorded digest
    makes the whole run unreadable instead of silently comparing stale
    data.  Serialization goes through {!Mica_obs.Json} with a fixed key
    order, so the on-disk form is byte-stable and golden-testable. *)

type t = {
  schema : string;  (** ["mica-run/v1"] *)
  created : string;  (** local timestamp, [YYYYMMDD-HHMMSS] *)
  tag : string;  (** run-directory tag, usually the subcommand *)
  subcommand : string;
  argv : string list;  (** the full command line, verbatim *)
  git_rev : string;  (** ["unknown"] when undeterminable *)
  icount : int;
  ppm_order : int;
  jobs : int;
  retries : int;
  cache : bool;  (** whether the characterization cache was enabled *)
  mica_jobs_env : string option;  (** [$MICA_JOBS] at invocation time *)
  fault_spec : string option;  (** normalized installed fault plan, if any *)
  seeds : (string * string) list;  (** named seeds, e.g. [("ga", "0x6a5eed")] *)
  workloads : int;  (** rows in the characteristic-vector dataset *)
  report : string;  (** run-report summary line; [""] when not applicable *)
  files : (string * string) list;  (** artifact filename -> MD5 hex, sorted *)
}

val schema_version : string

val to_json : t -> Mica_obs.Json.t
(** Fixed key order; [of_json (to_json m) = Ok m]. *)

val of_json : Mica_obs.Json.t -> (t, string) result
(** Validates the schema tag and every field's type.  Integer fields must
    be integers within [±2^53] ({!Mica_obs.Json.to_int}). *)

val git_rev : unit -> string
(** Best-effort HEAD commit of the enclosing repository (read from
    [.git/HEAD] / [.git/packed-refs], no subprocess); ["unknown"] when it
    cannot be determined. *)
