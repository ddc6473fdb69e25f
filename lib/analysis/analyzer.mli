(** The combined microarchitecture-independent analyzer.

    Bundles all six characteristic families into one fan-out sink so a
    single trace pass yields the complete 47-element MICA vector of
    Table II (see {!Characteristics} for the ordering). *)

type t

val create : ?ppm_order:int -> unit -> t
val sink : t -> Mica_trace.Sink.t

val vector : t -> float array
(** The 47 characteristics in Table II order.  May be called mid-trace for
    running values; analyzers finalize on read. *)

(** Access to the per-family analyzers, for case studies and tests. *)

val mix : t -> Mix.result
val working_set : t -> Working_set.result
val instructions : t -> int

val analyze : ?ppm_order:int -> Mica_trace.Program.t -> icount:int -> float array
(** Convenience: generate the program's trace and return its MICA vector. *)

val analyze_full : ?ppm_order:int -> Mica_trace.Program.t -> icount:int -> t
(** As {!analyze} but returns the analyzer for detailed inspection. *)
