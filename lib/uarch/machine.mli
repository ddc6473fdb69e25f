(** The one timing simulator: configurable machine models.

    A machine is described by a configuration (core kind, cache geometry,
    TLB, branch predictor, latencies and penalties, per-opcode timing) and
    yields six counter metrics from a trace.  The programs read their
    configurations from descriptions ({!Machine_desc}): the paper's two
    Alpha machines ({!Hw_counters.ev56} and {!Hw_counters.ev67}), the four
    compiled-in presets the cross-machine experiment runs
    ({!Machine_desc.presets}), and the [machines/] fleet that [mica fleet]
    and calibration load.
    Measuring the same workloads on several machines quantifies the
    paper's central warning: similarity conclusions drawn from one
    machine's counters need not hold on another machine.

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
