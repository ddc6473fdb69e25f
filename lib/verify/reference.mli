(** Naive reference reimplementations of the six characteristic families.

    Each oracle recomputes one slice of the 47-element MICA vector from a
    collected instruction list using deliberately simple, obviously-correct
    code — direct counting, exhaustive window scheduling, list scans,
    sorted address sets, plain hashtables — with none of the incremental
    state, rings or packed hash keys the production analyzers use for
    speed.  Agreement within tolerance on the same instruction stream
    is strong evidence both sides are right; disagreement localizes the
    bug to one family.

    Oracles are O(n^2)-ish in places and meant for short traces (a few
    thousand instructions). *)

val ilp : ?windows:int array -> Mica_isa.Instr.t list -> float array
(** Characteristics 7-10 by exhaustive scheduling: every instruction's
    issue cycle is recomputed from scratch by scanning backwards for its
    producers and the window-occupancy constraint. *)

val regtraffic : Mica_isa.Instr.t list -> float array
(** Characteristics 11-19 by per-register list scans over the full
    indexed trace. *)

val ppm : ?order:int -> Mica_isa.Instr.t list -> float array
(** Characteristics 44-47: the four PPM predictors with boolean-list
    histories and structurally-keyed plain hashtables. *)

val vector : ?ppm_order:int -> Mica_isa.Instr.t list -> float array
(** All 47 characteristics in Table II order. *)

type mismatch = {
  index : int;  (** characteristic index (0-based, Table II order) *)
  name : string;  (** short characteristic name *)
  got : float;  (** production analyzer value *)
  oracle : float;  (** reference value *)
  tolerance : float;
}

val pp_mismatch : Format.formatter -> mismatch -> unit

val compare_vectors : got:float array -> oracle:float array -> mismatch list
(** Elementwise comparison, absolute plus relative: to 1e-12 for the
    counting families (mix, working set, strides, PPM), to 1e-9 for
    scheduling and register traffic (they divide accumulated integers and
    may round the final division differently).  NaN on either side is
    always a mismatch. *)

val check : ?ppm_order:int -> Mica_trace.Program.t -> icount:int -> mismatch list
(** Collect the program's first [icount] instructions once, feed the same
    list to {!Mica_analysis.Analyzer} and to the oracles, and compare. *)
