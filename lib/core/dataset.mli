(** Labeled observation matrices: benchmarks (rows) by characteristics
    (columns), with CSV round-tripping for caching and export. *)

type t = {
  names : string array;  (** row labels (workload ids) *)
  features : string array;  (** column labels (characteristic short names) *)
  data : Mica_stats.Matrix.t;
}

val create : names:string array -> features:string array -> Mica_stats.Matrix.t -> t
(** Validates that dimensions match the labels. *)

val rows : t -> int
val cols : t -> int

val row_index : t -> string -> int option
val row_exn : t -> string -> float array

val select_features : t -> int array -> t

val csv : t -> string
(** [t] in the {!Mica_util.Csv.table} layout. *)

val to_csv : t -> string -> unit
(** [to_csv t path] commits [csv t] through {!Mica_util.Artifact.write}:
    atomically, or not at all, raising [Sys_error] or [Fault.Injected]. *)

val of_csv : string -> t
(** Inverse of {!to_csv}.  Raises [Failure] on malformed input. *)
