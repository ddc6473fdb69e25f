(** Opcode classes of the abstract Alpha-like ISA.

    The characterization methodology never needs concrete opcodes, only the
    behavioural class of each dynamic instruction: whether it reads or
    writes memory, transfers control, and which functional-unit family it
    occupies.  These classes mirror the categories of the paper's
    instruction-mix characteristics (Table II, rows 1-6). *)

type t =
  | Load       (** memory read *)
  | Store      (** memory write *)
  | Branch     (** conditional control transfer *)
  | Jump       (** unconditional direct jump *)
  | Call       (** subroutine call *)
  | Return     (** subroutine return (indirect) *)
  | Int_alu    (** integer add/sub/logic/shift/compare *)
  | Int_mul    (** integer multiply *)
  | Fp_add     (** floating-point add/sub/compare/convert *)
  | Fp_mul     (** floating-point multiply *)
  | Fp_div     (** floating-point divide/sqrt *)
  | Nop        (** no architectural effect *)

val is_load : t -> bool
val is_store : t -> bool
val is_mem : t -> bool
(** Load or store. *)

val is_control : t -> bool
(** Branch, jump, call or return. *)

val is_cond_branch : t -> bool
val is_int_alu : t -> bool
val is_int_mul : t -> bool
val is_fp : t -> bool
(** Any floating-point operation. *)

val latency : t -> int
(** Nominal execution latency in cycles, used by the idealized ILP model and
    the out-of-order timing model (memory latency excluded for loads, which
    take their latency from the cache model). *)

val to_string : t -> string

val all : t list
(** Every opcode class, in declaration order. *)

val count : int
(** Number of opcode classes. *)

val to_int : t -> int
(** Dense integer code of an opcode, in declaration order ([Load] is 0,
    [Nop] is [count - 1]).  The struct-of-arrays trace chunks and the
    binary trace format both store opcodes as these codes. *)

val of_int : int -> t
(** Inverse of {!to_int}.  Raises [Invalid_argument] for codes outside
    [0, count). *)
