(** The six benchmark suites of Table I, plus the synthetic sweep corpus. *)

type t =
  | BioInfoMark  (** bioinformatics *)
  | BioMetricsWorkload  (** biometrics *)
  | CommBench  (** telecommunication / network processing *)
  | MediaBench  (** multimedia *)
  | MiBench  (** embedded *)
  | SpecCpu2000  (** general purpose *)
  | Generated
      (** parameter-sweep corpus members ({!Corpus}); named ["gen"], and
          deliberately absent from {!all} so the Table I registry keeps
          its 122 rows *)

val all : t list
(** The six Table I suites (excludes {!Generated}). *)

val name : t -> string
val of_name : string -> t option
(** Case-insensitive lookup by {!name}. *)

val pp : Format.formatter -> t -> unit
