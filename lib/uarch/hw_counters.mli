(** The hardware-performance-counter characterization of section III-B.

    Seven metrics, exactly the paper's set: IPC on the in-order EV56-like
    machine; its branch misprediction, L1 D-cache, L1 I-cache, L2 and
    D-TLB miss rates; and IPC on the out-of-order EV67-like machine.  Both
    machines are compiled-in descriptions ({!Machine_desc}) fed the same
    trace in one pass. *)

val count : int
(** 7. *)

val names : string array
val short_names : string array

val ev56 : unit -> Machine.config
(** The in-order Alpha 21164A: [machines/ev56.json], the first of
    {!Machine_desc.presets}. *)

val ev67 : unit -> Machine.config
(** The out-of-order Alpha 21264A as the paper's counters measure it:
    [machines/paper/ev67.json] ({!Machine_desc.paper_ev67}).  It is the
    fleet's [ev67] core, caches and predictor with loads taking 3, 13 or
    100 cycles (L1 hit, L2 hit, memory), I-cache misses redirecting fetch
    by the same 13 or 100, and a zero DTLB penalty, so the simulated DTLB
    never reaches the timing.  Not a member of the fleet in [machines/]. *)

type t

val create : unit -> t
val sink : t -> Mica_trace.Sink.t

type result = {
  ipc_ev56 : float;
  branch_mispredict_rate : float;
  l1d_miss_rate : float;
  l1i_miss_rate : float;
  l2_miss_rate : float;
  dtlb_miss_rate : float;
  ipc_ev67 : float;
}

val result : t -> result
(** The seven counters.  With metrics on, each call also adds both
    machines' event counts to the [uarch.ev56.*] and [uarch.ev67.*]
    counters ({!Events.record}). *)

val to_vector : result -> float array

val measure : Mica_trace.Program.t -> icount:int -> result
(** Generate the program's trace and return its counter vector. *)
