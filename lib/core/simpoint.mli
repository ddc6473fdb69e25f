(** SimPoint-style sampled simulation, validated end to end.

    The phase-classification related work (Sherwood et al.) exists to make
    simulation cheap: simulate only one representative interval per phase
    and weight the results.  This module closes that loop on our own
    substrate: a workload's trace is phase-classified from basic-block
    vectors, the EV56-like machine model measures per-interval CPI (with
    warm microarchitectural state), and the phase-weighted estimate from
    the representatives is compared against whole-trace CPI.  Small errors
    validate the "intervals executing similar code behave similarly" claim
    the paper cites. *)

type interval_ipc = { instructions : int; cycles : int }

type t = {
  phases : Phases.t;
  interval_results : interval_ipc array;  (** per interval, time order *)
  true_ipc : float;  (** whole-trace IPC *)
  estimated_ipc : float;  (** phase-weighted IPC of the representatives *)
  error : float;  (** |estimated - true| / true *)
}

val validate :
  ?interval:int -> Mica_workloads.Workload.t -> icount:int -> t
(** Runs phase analysis and the machine model over the same trace.
    Raises [Invalid_argument], before tracing, when [interval] is longer
    than [icount], and when it is not positive. *)

val validate_many :
  ?interval:int -> Mica_workloads.Workload.t list -> icount:int -> (string * t) list

val render : (string * t) list -> string
