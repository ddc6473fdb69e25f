(** Out-of-order four-wide timing model in the style of the Alpha 21264A
    (EV67): the second machine the paper measures (IPC only).

    Dataflow-limited scheduling with a finite instruction window, a fetch
    front end of [width] instructions per cycle redirected on branch
    mispredictions (tournament predictor, as in the 21264), and load
    latencies taken from a 64KB 2-way L1 / 2MB L2 hierarchy.  The model
    tracks per-register ready cycles exactly like the idealized ILP
    analyzer but with realistic constraints layered on. *)

type config = {
  width : int;  (** fetch/issue width *)
  window : int;  (** in-flight instruction window *)
  mispredict_penalty : int;  (** fetch redirect cycles *)
  l1_latency : int;  (** load-to-use on an L1 hit *)
  l2_latency : int;  (** load-to-use on an L2 hit *)
  mem_latency : int;  (** load-to-use on an L2 miss *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t
val sink : t -> Mica_trace.Sink.t

val record_events : t -> model:string -> unit
(** {!Events.record} of this model's counts so far, under [model]; the
    model has no DTLB, so it records no DTLB counters. *)

type result = { instructions : int; cycles : int; ipc : float; branch_mispredict_rate : float }

val result : t -> result
