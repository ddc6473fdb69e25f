(** Calibrated micro-benchmark baseline suite.

    Four single-loop kernels with hand-derivable behavior — a STREAM-like
    bandwidth sweep, a cache-resident dgemm-like FP loop, a
    pointer-chase latency probe, and a coin-flip branch-torture loop —
    each paired with analytically derived envelopes for the six hardware
    counters of {!Machine}.  A machine description whose counters fall
    outside an envelope is either mis-specified or has a modelling
    regression; [mica calibrate] fails loudly in CI on any such machine.

    The envelopes are derived from the generator's documented semantics
    (slot rounding, one back-edge per iteration, per-slot chase windows)
    plus first-principles cache arithmetic (one miss per line per
    stream, predictor-independent 50% on a fair coin, ...), then widened
    by a safety band so that every shipped [machines/*.json] description
    passes with margin.  They are deliberately coarse: the suite is a
    sanity gate, not a golden test. *)

module Kernel = Mica_trace.Kernel
module Program = Mica_trace.Program

val kernels : (string * Kernel.spec) list
(** The four kernels, keyed by short name: ["stream"], ["dgemm"],
    ["chase"], ["torture"]. *)

val kernel_names : string list

val program : string -> Program.t
(** Single-phase program for a kernel name (seeded deterministically from
    the name).  Raises [Invalid_argument] on an unknown name. *)

type envelope = {
  metric : string;  (** one of {!Machine.metric_names} *)
  lo : float;
  hi : float;
  why : string;  (** one-line derivation note *)
}

val envelopes : Machine.config -> kernel:string -> envelope list
(** Expected counter envelopes for running [kernel] on a machine.  Only
    metrics with a defensible analytic bound are included — e.g. the L2
    envelope of [chase] is emitted only when the live working set
    clearly exceeds the L2. *)

type outcome = {
  machine : string;
  kernel : string;
  metric : string;
  lo : float;
  hi : float;
  value : float;
  ok : bool;
  why : string;
}

val default_icount : int

val run_all : ?icount:int -> Machine.config list -> outcome list
(** For each of the four kernels, generate its trace once and fan it out
    to every machine (via {!Machine.measure_all}), then check each
    machine's counters against its envelopes. *)

val passed : outcome list -> bool
val failures : outcome list -> outcome list

val render : outcome list -> string
(** Human-readable report table; failing rows carry the derivation note. *)
