(** In-order dual-issue timing model in the style of the Alpha 21164A
    (EV56): the machine on which the paper collects its hardware
    performance counters.

    The model charges a base throughput of [issue_width] instructions per
    cycle and adds stall cycles for L1/L2 misses, DTLB misses, branch
    mispredictions and long-latency arithmetic — the classic
    stall-accounting model for in-order pipelines.  Cache geometry defaults
    follow the 21164: 8KB direct-mapped split L1s, 96KB 3-way unified L2,
    64-entry data TLB. *)

type config = {
  issue_width : int;
  l2_latency : int;  (** extra cycles on an L1 miss hitting in L2 *)
  mem_latency : int;  (** extra cycles on an L2 miss *)
  mispredict_penalty : int;
  dtlb_penalty : int;
}

val default_config : config

type t

val create : ?config:config -> unit -> t
val sink : t -> Mica_trace.Sink.t

val step_instr : t -> Mica_isa.Instr.t -> unit
(** Advance the model by one boxed instruction.  Equivalent to delivering
    the instruction through {!sink}; for consumers (interval sampling) that
    must observe model state between individual instructions. *)

val record_events : t -> model:string -> unit
(** {!Events.record} of this model's counts so far, under [model]. *)

type result = {
  instructions : int;
  cycles : int;
  ipc : float;
  branch_mispredict_rate : float;  (** over conditional branches *)
  l1d_miss_rate : float;
  l1i_miss_rate : float;
  l2_miss_rate : float;  (** over L2 accesses, i.e. L1 misses *)
  dtlb_miss_rate : float;
}

val result : t -> result
