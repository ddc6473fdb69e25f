(** Online validation of a dynamic instruction stream.

    Wraps the checks every analyzer silently relies on into an explicit
    {!Mica_trace.Sink.t}: feed it the trace (alone or fanned out next to
    the real analyzers) and read back a structured list of violations
    instead of crashing mid-trace.  Checked invariants:

    - positive instruction addresses;
    - program-order consistency: each instruction's pc is the previous
      instruction's fall-through or taken target ({!Mica_isa.Instr.next_pc});
    - register operand ids are [Reg.none] or valid architectural ids;
    - registers are defined before use (strict mode only — generator
      traces legitimately read live-in values, which are counted instead);
    - memory operations carry a positive effective address, non-memory
      operations carry none;
    - taken control transfers carry a positive target, non-control
      instructions are never taken and carry no target;
    - a static conditional branch always transfers to the same target;
    - exact instruction count ({!finish} with [~expected_icount]).

    The sink never raises: violations are recorded (up to
    [max_violations], counting continues beyond) and the stream keeps
    flowing, so one corrupt record yields a report, not a crash. *)

type violation = {
  index : int;  (** 0-based position in the dynamic stream *)
  rule : string;  (** stable rule identifier, e.g. ["pc-chain"] *)
  detail : string;  (** human-readable description *)
}

val pp_violation : Format.formatter -> violation -> unit

type t

val create : ?strict_defined_use:bool -> ?max_violations:int -> unit -> t
(** [strict_defined_use] (default [false]) flags any read of a register
    that was never written earlier in the stream; leave it off for traces
    that start mid-execution.  [max_violations] (default 64) bounds the
    retained list; the total count is unbounded. *)

val sink : t -> Mica_trace.Sink.t

val instructions : t -> int
(** Instructions observed so far. *)

val live_in_registers : t -> int
(** Distinct registers read before any write (initial machine state). *)

val violations : t -> violation list
(** Violations recorded so far, in stream order. *)

val finish : ?expected_icount:int -> t -> violation list
(** End-of-trace checks (currently the exact-icount check) appended to
    the recorded violations.  Does not mutate the sink; safe to call more
    than once. *)

val ok : ?expected_icount:int -> t -> bool
(** [finish] is empty and no violations overflowed the retained list. *)
