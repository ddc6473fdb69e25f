(** Windowed streaming characterization over a {!Sketch}.

    The trace is consumed in tumbling windows of a fixed instruction
    count.  At each boundary the window's extended characteristic vector
    is read out, folded into an exponentially-decayed running vector,
    optionally emitted as a snapshot, and the sketch is reset in place —
    so resident memory is O(1) in trace length.

    Windowing is invariant under chunking: straddling chunks are split
    by restaging, and the same trace at any chunk capacity yields
    bit-identical snapshots. *)

type snapshot = {
  index : int;  (** window number, 0-based *)
  start_instr : int;
  instructions : int;  (** window length; the final window may be short *)
  vector : float array;  (** this window's extended vector (56 values) *)
  decayed : float array;  (** EWMA over windows up to and including this one *)
}

type t

val default_window : int
(** 65536 instructions. *)

val alpha : float
(** 0.5 — the newest window's EWMA weight. *)

val create :
  ?window:int ->
  ?snapshot_every:int ->
  ?ppm_order:int ->
  ?plan:Sketch.plan ->
  unit ->
  t
(** [window] instructions per window; a snapshot is emitted every
    [snapshot_every] windows (default 1) plus always for a trailing
    partial window. *)

val sink : t -> Mica_trace.Sink.t

val finish : t -> snapshot array
(** Close any partial window and return all emitted snapshots in window
    order.  Idempotent: later calls return the same array. *)

val windows : t -> int
val instructions : t -> int

val decayed : t -> float array option
(** The current EWMA vector; [None] before the first window closes. *)

val state_bytes : t -> int

val run :
  ?window:int ->
  ?snapshot_every:int ->
  ?ppm_order:int ->
  ?plan:Sketch.plan ->
  Mica_trace.Program.t ->
  icount:int ->
  t * snapshot array
(** Generate, stream and finish in one call. *)

val assign : centroids:float array array -> float array -> int
(** Index of the nearest centroid (squared-Euclidean; ties break to the
    lowest index).  Raises [Invalid_argument] on an empty centroid set. *)

val purity : labels:int array -> oracle:int array -> float
(** Cluster purity of an online labeling against an oracle labeling:
    each cluster votes for its majority oracle label and purity is the
    fraction of windows covered.  Compared over the common prefix; 0.0
    when either side is empty. *)
