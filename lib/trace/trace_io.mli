(** Trace serialization.

    Two interchange formats for dynamic instruction traces:

    - {e text}: one instruction per line —
      [pc op src1 src2 dst addr taken target] with hex pc/addr/target;
      greppable and diffable;
    - {e binary}: fixed 28-byte little-endian records behind a magic
      header; compact and fast.

    Readers replay a file into any {!Sink}, so every analyzer works
    identically on live and recorded traces. *)

val write_text : path:string -> Program.t -> icount:int -> int
val write_binary : path:string -> Program.t -> icount:int -> int
(** Generate a program's trace straight to a file; returns the
    instruction count. *)

val replay_text : path:string -> sink:Sink.t -> int
(** Feed a recorded text trace into a sink; returns the instruction count.
    Raises [Failure] with a line number on malformed input, including a
    register below [Mica_isa.Reg.none] or at or above
    [Mica_isa.Reg.count] and a pc that does not fit a non-negative int. *)

val replay_binary : path:string -> sink:Sink.t -> int
(** Raises [Failure] on a bad header, a truncated record or a record
    naming a register below [Mica_isa.Reg.none] or at or above
    [Mica_isa.Reg.count], or a pc outside [0, 2^62). *)

val instr_to_line : Mica_isa.Instr.t -> string
val instr_of_line : string -> Mica_isa.Instr.t
(** Single-record text conversions (exposed for tests and tooling).
    @raise Failure on malformed input, including an out-of-range register
    or a negative pc. *)
