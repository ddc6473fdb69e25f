(** Dynamic instruction records.

    A trace is a stream of these records, one per executed instruction.
    This is the contract between the trace generator ({!Mica_trace}) and
    every analyzer ({!Mica_analysis}) and timing model ({!Mica_uarch}):
    exactly the information ATOM-style instrumentation would deliver. *)

type t = {
  pc : int;  (** instruction address (bytes); also the static-instruction key *)
  op : Opcode.t;
  src1 : int;  (** first source register, or {!Reg.none} *)
  src2 : int;  (** second source register, or {!Reg.none} *)
  dst : int;  (** destination register, or {!Reg.none} *)
  addr : int;  (** effective memory address for loads/stores, else 0 *)
  taken : bool;  (** outcome, meaningful when [op] is a control transfer *)
  target : int;  (** control-transfer target pc, else 0 *)
}

val make :
  pc:int ->
  op:Opcode.t ->
  ?src1:int ->
  ?src2:int ->
  ?dst:int ->
  ?addr:int ->
  ?taken:bool ->
  ?target:int ->
  unit ->
  t
(** Record constructor with absent-operand defaults. *)

val next_pc : t -> int
(** The pc of the successor instruction: fall-through ([pc + 4]) or the
    taken target for control transfers. *)

val source_count : t -> int
(** Number of present register source operands (0-2), counting the
    hardwired zero register (an instruction reading r31 still has the
    operand encoded). *)

val to_string : t -> string
