(** Architectural register identifiers.

    The abstract machine has 32 integer registers (ids 0-31) and 32
    floating-point registers (ids 32-63), matching the Alpha architecture.
    Id [-1] ([none]) denotes the absence of an operand; integer register 31
    ([zero]) is hardwired to zero and never carries a dependency. *)

val none : int
(** Sentinel for "no register": [-1]. *)

val zero : int
(** The hardwired zero register (integer r31). *)

val count : int
(** Total number of architectural registers (64). *)

val fp_base : int
(** First floating-point register id (32). *)

val fp_count : int
(** Number of floating-point registers (32). *)

val is_none : int -> bool
val is_fp : int -> bool

val carries_dependency : int -> bool
(** False for [none] and [zero]. *)

val to_string : int -> string
(** ["r4"], ["f2"], ["-"] for none. *)
