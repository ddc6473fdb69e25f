(** Struct-of-arrays trace chunks: the unit of transport between the
    generator and every trace consumer.

    A chunk holds up to [capacity] dynamic instructions decomposed into
    parallel arrays (one per {!Mica_isa.Instr.t} field), so the hot path
    from generator to analyzers moves plain integers through preallocated
    storage — no per-instruction record allocation, no per-instruction
    closure dispatch.  Consumers read the arrays directly in a tight loop
    over [0 .. len - 1]; the elements of a chunk are in program order, and
    successive chunks partition the trace (chunk boundaries carry no
    meaning — a basic block may straddle two chunks).

    Opcodes are stored as {!Mica_isa.Opcode.to_int} codes and branch
    outcomes as one byte per element ['\000'] / ['\001'].  Register and
    address fields use the same conventions as {!Mica_isa.Instr.t}
    ({!Mica_isa.Reg.none} for absent operands, [0] for absent
    address/target). *)

type t = {
  capacity : int;  (** allocated element count; never changes *)
  mutable len : int;  (** live elements; indices [0 .. len - 1] are valid *)
  pc : int array;
  op : int array;  (** {!Mica_isa.Opcode.to_int} codes *)
  src1 : int array;
  src2 : int array;
  dst : int array;
  addr : int array;
  target : int array;
  taken : Bytes.t;  (** ['\000'] not taken, anything else taken *)
}

val create : ?capacity:int -> unit -> t
(** An empty chunk.  Raises [Invalid_argument] unless [capacity > 0]. *)

val length : t -> int
val is_full : t -> bool

val clear : t -> unit
(** Resets [len] to 0; storage is reused, not reallocated. *)

val taken : t -> int -> bool
(** [taken c i] decodes element [i]'s branch outcome. *)

val get : t -> int -> Mica_isa.Instr.t
(** [get c i] reconstructs element [i] as a boxed instruction record — the
    compatibility path for consumers that still want {!Mica_isa.Instr.t}.
    Allocates; not for hot loops.  Raises [Invalid_argument] if [i] is
    outside [0 .. len - 1]. *)

val push : t -> Mica_isa.Instr.t -> unit
(** [push c ins] appends a boxed instruction.  Raises [Invalid_argument]
    when full; check {!is_full} first. *)

val append : t -> int -> t -> unit
(** [append src i dst] copies element [i] of [src] onto the end of [dst]
    without boxing.  Raises [Invalid_argument] on a bad index or a full
    destination. *)

val to_list : t -> Mica_isa.Instr.t list
(** Boxed snapshot of the live elements, in order. *)
