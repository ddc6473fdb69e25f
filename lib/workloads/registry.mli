(** The registry of all 122 benchmarks of Table I. *)

val all : Workload.t list
(** Every workload, in Table I order (suite by suite). *)

val count : int
(** 122. *)

val by_suite : Suite.t -> Workload.t list

val find : string -> Workload.t option
(** Lookup by exact {!Workload.id}, by ["program/input"], by
    ["program.input"] label or — when unambiguous — by bare program name.
    Case-insensitive.  The first of these tiers that knows the name
    decides, and a name that is ambiguous there gives [None].  One hash
    probe: the first call, from any thread, builds an index of every
    name, and lookups never add to it. *)

val find_exn : string -> Workload.t
(** @raise Not_found when {!find} returns [None]. *)

val matching : string -> Workload.t list
(** All workloads whose id contains the given substring
    (case-insensitive). *)
