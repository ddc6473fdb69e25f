(** Configurable machine models.

    {!Inorder} and {!Ooo} are the paper's two fixed Alpha machines.  This
    module generalizes them: a machine is described by a configuration
    (core kind, cache geometry, TLB, branch predictor, penalties) and
    yields the same six counter metrics from a trace.  Measuring the same
    workloads on several machines quantifies the paper's central warning:
    similarity conclusions drawn from one machine's counters need not hold
    on another machine. *)

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
(** The paper's measurement machine: dual-issue in-order, 8KB direct-mapped
    L1s, 96KB 3-way L2, bimodal predictor. *)

val ev67 : config
(** The paper's second machine: 4-wide out-of-order, 64KB 2-way L1s,
    tournament predictor. *)

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

val create : config -> t
val sink : t -> Mica_trace.Sink.t
val result : t -> result
(** The six metrics.  With metrics on, each call also adds the machine's
    event counts to the [uarch.machine.<name>.*] counters
    ({!Events.record}). *)

val to_vector : result -> float array

val measure : config -> Mica_trace.Program.t -> icount:int -> result
(** Trace the program on this machine. *)

val measure_all : config list -> Mica_trace.Program.t -> icount:int -> result list
(** One generated trace fanned out to every machine (machines never
    perturb each other). *)
