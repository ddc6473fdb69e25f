(** SimPoint-style phase classification of a workload.

    Collects basic-block vectors per interval, projects them down, and
    clusters intervals with k-means + BIC: intervals executing similar
    code form a phase.  A representative interval (the one nearest its
    phase centroid) and the phase weight (its share of execution) are
    reported — exactly what SimPoint uses to pick simulation points, and
    the code-signature phase notion the paper contrasts with cross-program
    similarity in its related work. *)

type t = {
  interval : int;  (** instructions per interval *)
  k : int;  (** number of phases *)
  assignments : int array;  (** phase id per interval, in time order *)
  representatives : int array;  (** representative interval index per phase *)
  weights : float array;  (** fraction of intervals per phase *)
}

val analyze :
  ?interval:int -> ?dims:int -> Mica_trace.Program.t -> icount:int -> t
(** [analyze program ~icount] traces the program and classifies its
    intervals.  Defaults: 10,000-instruction intervals, K swept to 10,
    15 projected dimensions. *)

val timeline : t -> string
(** One character per interval (A = phase 0, B = phase 1, ...), showing
    the phase structure over time. *)

val render : t -> string
(** Summary: K, per-phase weight and representative interval, plus the
    timeline. *)
