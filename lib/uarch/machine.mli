(** The one timing simulator: configurable machine models.

    A machine is described by a configuration (core kind, cache geometry,
    TLB, branch predictor, latencies and penalties, per-opcode timing) and
    yields six counter metrics from a trace.  The paper's two Alpha
    machines are two such configurations ({!Hw_counters.ev56} and
    {!Hw_counters.ev67}); the machine fleet, calibration and the
    cross-machine experiment run others.  Measuring the same workloads on
    several machines quantifies the paper's central warning: similarity
    conclusions drawn from one machine's counters need not hold on another
    machine.

    Latencies are data.  A load on an out-of-order core completes after
    [l1_latency] on an L1 hit, plus [l2_latency] when it goes to the L2,
    plus [mem_latency] when it also misses there, plus [dtlb_penalty] on a
    DTLB miss.  An in-order core stalls for the same extras beyond the
    L1.  On an I-cache miss an out-of-order core redirects fetch by
    [l1i_latency] plus the L2/memory extra; an in-order core stalls for
    the extra alone. *)

type cache_geometry = { size_bytes : int; line_bytes : int; assoc : int }

type core_kind =
  | In_order of { issue_width : int }
  | Out_of_order of { width : int; window : int }

type predictor_kind =
  | Bimodal of { entries : int }
  | Gshare of { entries : int; history_bits : int }
  | Local_two_level of { entries : int; history_bits : int }
  | Tournament of { entries : int; history_bits : int }

type op_timing = {
  op_latency : int;  (** result latency in cycles (out-of-order dependence edges) *)
  op_recip : int;
      (** reciprocal throughput in cycles; an in-order core stalls
          [op_recip - 1] cycles behind the operation *)
}

val default_op_timing : Mica_isa.Opcode.t -> op_timing
(** The historical model: fully-pipelined units everywhere except a
    non-pipelined FP divider ([op_recip = op_latency]) and a partially
    pipelined integer multiplier ([op_recip = (latency - 1) / 2 + 1]). *)

val default_ops : op_timing array
(** [default_op_timing] tabulated by dense opcode code ({!Mica_isa.Opcode.to_int});
    treat as read-only — the presets share this array. *)

type config = {
  name : string;
  core : core_kind;
  l1i : cache_geometry;
  l1d : cache_geometry;
  l2 : cache_geometry;
  dtlb_entries : int;
  page_bytes : int;
  predictor : predictor_kind;
  prefetch_next_line : bool;
      (** on an L1D miss, also install the next line (sequential
          prefetcher); helps streaming codes, pollutes pointer codes *)
  l1i_latency : int;
      (** fetch latency added to an I-cache miss's fetch redirect (OOO
          cores; in-order cores ignore it) *)
  l1_latency : int;  (** load-to-use on an L1 hit (OOO cores) *)
  l2_latency : int;  (** additional latency of an L2 hit *)
  mem_latency : int;  (** additional latency of an L2 miss *)
  mispredict_penalty : int;
  dtlb_penalty : int;
  ops : op_timing array;
      (** per-opcode timing, indexed by dense opcode code; must have
          {!Mica_isa.Opcode.count} entries ({!create} validates) *)
}

(** {1 Presets} *)

val ev56 : config
(** The paper's measurement machine, the Alpha 21164A: dual-issue
    in-order, 8KB direct-mapped L1s, 96KB 3-way L2, bimodal predictor.
    {!Hw_counters.ev56} is this config. *)

val ev67 : config
(** A 4-wide out-of-order core shaped like the Alpha 21264A: 64KB 2-way
    L1s, 2MB L2, tournament predictor.  The fleet's member, not the
    paper's EV67 ({!Hw_counters.ev67}): its loads take 3 / 16 / 116
    cycles (L1 / L2 / memory, additive) plus a 20-cycle DTLB penalty, and
    its I-cache misses redirect fetch by the extra beyond the L1 alone
    ([l1i_latency = 0]). *)

val embedded : config
(** A small single-issue embedded core (StrongARM-flavoured): 16KB 32-way
    L1s, no L2 benefit to speak of, tiny bimodal predictor. *)

val wide : config
(** An aggressive 8-wide, 256-entry-window core with large caches and a
    next-line prefetcher — a "future machine" against which counter-based
    conclusions from [ev56] can be tested, in the spirit of the
    benchmark-drift discussion. *)

val presets : config list
(** [ev56; ev67; embedded; wide]. *)

(** {1 Simulation} *)

type result = {
  ipc : float;
  branch_mispredict_rate : float;
  l1d_miss_rate : float;
  l1i_miss_rate : float;
  l2_miss_rate : float;
  dtlb_miss_rate : float;
}

val metric_names : string array
(** Labels of {!to_vector}'s six entries. *)

type t

val create : ?model:string -> config -> t
(** [model] (default ["machine.<name>"]) names the Obs counters {!result}
    adds to: [uarch.<model>.*]. *)

val sink : t -> Mica_trace.Sink.t

val feed : t -> Mica_trace.Chunk.t -> pos:int -> len:int -> unit
(** Step the chunk's instructions [pos] to [pos + len - 1]; {!sink} feeds
    whole chunks.  For consumers that read {!instructions} and {!cycles}
    between instructions of a chunk.  Raises [Invalid_argument] when the
    range is outside the chunk. *)

val instructions : t -> int
(** Instructions stepped so far. *)

val cycles : t -> int
(** Cycles so far (at least 1), the denominator of {!result}'s IPC.
    Reading it, unlike {!result}, records nothing. *)

val result : t -> result
(** The six metrics.  With metrics on, each call also adds the machine's
    event counts to the [uarch.<model>.*] counters ({!Events.record}). *)

val to_vector : result -> float array

val measure : config -> Mica_trace.Program.t -> icount:int -> result
(** Trace the program on this machine. *)

val measure_all : config list -> Mica_trace.Program.t -> icount:int -> result list
(** One generated trace fanned out to every machine (machines never
    perturb each other). *)
