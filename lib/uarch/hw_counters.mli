(** The hardware-performance-counter characterization of section III-B.

    Seven metrics, exactly the paper's set: IPC on the in-order EV56-like
    machine; its branch misprediction, L1 D-cache, L1 I-cache, L2 and
    D-TLB miss rates; and IPC on the out-of-order EV67-like machine.  Both
    machine models consume the same trace in one pass. *)

val count : int
(** 7. *)

val names : string array
val short_names : string array

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
    models' event counts to the [uarch.ev56.*] and [uarch.ev67.*]
    counters ({!Events.record}). *)

val to_vector : result -> float array

val measure : Mica_trace.Program.t -> icount:int -> result
(** Generate the program's trace and return its counter vector. *)
