(** Parametric synthetic computational kernels.

    A kernel models a loop nest: a static body of instruction slots executed
    repeatedly, plus optional straight-line helper routines that spread the
    instruction footprint.  Each slot carries its own memory-access pattern
    state and its own data-dependency edges to earlier slots, so the
    microarchitecture-independent characteristics measured downstream
    (instruction mix, ILP, register traffic, working sets, strides, branch
    predictability) all emerge from executing the model rather than being
    asserted.

    Benchmark profiles ({!Mica_workloads}) are built by combining kernels
    with suite- and benchmark-specific parameters. *)

type mem_pattern =
  | Fixed  (** one address, revisited on every execution (globals, spills) *)
  | Seq of { stride : int }  (** small constant stride (array streaming) *)
  | Strided of { stride : int }  (** large constant stride (row/column walks) *)
  | Random  (** uniform random within the kernel's data region *)
  | Chase  (** dependent pointer chasing; serializes the slot on itself *)

type branch_kind =
  | Loop_like of { period : int }
      (** taken [period - 1] times out of [period] (inner-loop back edges,
          highly predictable) *)
  | Periodic of { period : int; taken_in_period : int }
      (** deterministic repeating pattern *)
  | Biased of { taken_prob : float }  (** independent random outcomes *)
  | History of { depth : int }
      (** outcome is the parity of the last [depth] global outcomes:
          predictable from global history, opaque to local history *)

type mix = {
  load : float;
  store : float;
  branch : float;  (** conditional branches inside the body *)
  int_mul : float;
  fp : float;
}
(** Target dynamic fractions for the body; the remainder is integer ALU. *)

type spec = {
  name : string;
  body_slots : int;  (** static instructions per loop body *)
  mix : mix;
  load_patterns : (float * mem_pattern) list;  (** mixture over load slots *)
  store_patterns : (float * mem_pattern) list;
  data_bytes : int;  (** size of the kernel's data region *)
  helper_instrs : int;  (** total static instructions across helper routines *)
  helper_regions : int;  (** number of helper routines *)
  helper_call_prob : float;  (** per-visit probability of calling a helper *)
  helper_zipf_s : float;  (** skew of helper popularity (hot/cold code) *)
  trip_count : int;  (** loop iterations per visit *)
  dep_geom_p : float;
      (** geometric parameter for dependency distance: larger means sources
          come from nearer producers (shorter dependencies, higher ILP
          pressure on the window) *)
  loop_carried_frac : float;
      (** fraction of slots whose first source is their own previous-iteration
          output (serial chains; lowers ILP) *)
  hot_value_frac : float;
      (** fraction of sources redirected to slot 0's output (a hot loop
          index / base pointer; raises register degree of use) *)
  imm_frac : float;  (** probability an ALU slot has only one register source *)
  branch_kinds : (float * branch_kind) list;  (** mixture over body branches *)
  branch_skip_max : int;  (** a taken body branch skips at most this many slots *)
  fp_mul_frac : float;  (** of FP slots, fraction that are multiplies *)
  fp_div_frac : float;  (** of FP slots, fraction that are divides *)
}

val default : spec
(** A bland scalar-integer kernel; build custom kernels with
    [{ default with ... }]. *)

val validate : spec -> (unit, string) result
(** Checks ranges (fractions in [0,1], positive sizes, non-empty pattern
    mixtures...) and every branch kind's parameters: loop and periodic
    periods of at least 1 with [taken_in_period] in [\[0, period\]], a
    biased probability in [\[0, 1\]] (not NaN), and a history depth in
    [\[0, 16\]] (the generator keeps 16 bits of global history).  The
    generator validates every spec it instantiates. *)

(** {1 Instantiated kernels}

    The instantiation freezes the static structure: concrete slot opcodes,
    dependency edges, register assignment, per-slot pattern state and code
    addresses.  Mutable state (pattern cursors, branch execution counters)
    lives inside and advances as the generator executes the instance.

    An instance is one flat code image: parallel arrays indexed by slot,
    the body's [body_len] slots first, then each helper region's
    [helper_len] slots in turn.  Slot [i] of the body sits at
    [code_base + 4 i] and slot [j] of helper [h] at
    [helper_bases.(h) + 4 j]; pcs are computed, not stored.  Memory state
    is meaningful only where [mem_access] is not [No_access] (exactly the
    load and store slots), branch state only where [br_rule] is not
    [No_rule] (exactly the body's branch slots; the branch arrays span the
    body only, since helpers are straight-line code). *)

(** How a memory slot forms its next address.  [Seq] and [Strided] both
    walk by their stride. *)
type access = No_access | Fixed_access | Stride_access | Random_access | Chase_access

(** How a branch slot decides its outcome: one rule per {!branch_kind}. *)
type rule = No_rule | Loop_rule | Periodic_rule | Biased_rule | History_rule

type instance = private {
  spec : spec;
  code_base : int;
  loop_pc : int;  (** pc of the loop back-edge branch *)
  data_base : int;
  body_len : int;  (** [spec.body_slots] *)
  helper_len : int;  (** slots per helper region; 0 without helpers *)
  helper_bases : int array;  (** code address of each helper region *)
  helper_weights : (float * int) array;  (** zipf-ish popularity, index *)
  op : int array;  (** {!Mica_isa.Opcode.to_int} codes *)
  dst : int array;
  src1 : int array;  (** register id or {!Mica_isa.Reg.none} *)
  src2 : int array;
  mem_access : access array;
  mem_stride : int array;  (** of [Stride_access] slots *)
  mem_cursor : int array;  (** offset of the next access within the data region *)
  mem_aux : int array;
      (** start of the current locality window for Random/Chase patterns *)
  br_rule : rule array;
  br_param : int array;  (** period of Loop_like/Periodic, depth of History *)
  br_taken : int array;  (** [taken_in_period] of Periodic *)
  br_prob : float array;  (** [taken_prob] of Biased *)
  br_skip : int array;  (** slots a taken branch skips *)
  br_execs : int array;  (** executions so far *)
}

val instantiate : spec -> rng:Mica_util.Rng.t -> code_base:int -> data_base:int -> instance
(** Freeze a spec into an executable instance.  Raises [Invalid_argument]
    if [validate spec] fails. *)

val slot_pc : instance -> int -> int
(** Code address of image slot [i].  Raises [Invalid_argument] outside
    [0, Array.length op). *)

val code_bytes : spec -> int
(** Static code footprint implied by the spec (body + loop branch + helpers),
    in bytes. *)
