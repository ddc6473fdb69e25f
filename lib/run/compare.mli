(** [mica compare RUN_A RUN_B]: per-characteristic and per-bench deltas
    between two run directories, under configurable relative tolerances.

    Deltas use the symmetric relative measure
    [(b - a) / max (|a|, |b|)], which is antisymmetric under argument
    swap (a metamorphic law the tests pin) and well-defined at zero.
    Characteristic and counter drift gates in both directions — the
    datasets are deterministic, so any drift beyond tolerance is a
    semantic change.  Bench deltas gate only on regression (B slower than
    A beyond tolerance); a speedup is reported but never fails the run.

    Tolerances are meant to be grounded in [mica variance] output over
    repeated same-config runs, not guessed. *)

type tolerance = { char_rel : float; bench_rel : float }

val default_tolerance : tolerance
(** [char_rel = 1e-6] (datasets are deterministic; the slack absorbs
    libm differences across build hosts), [bench_rel = 0.5]. *)

type cell_delta = {
  column : string;  (** characteristic / counter short name *)
  worst_row : string;  (** workload where the largest delta occurs *)
  a : float;
  b : float;
  rel : float;  (** symmetric relative delta at that worst cell *)
  exceeded : bool;
}

type bench_delta = {
  bench : string;
  a_ns : float;
  b_ns : float;
  rel_ns : float;
  regression : bool;  (** beyond tolerance, slower *)
  improvement : bool;  (** beyond tolerance, faster *)
}

type t = {
  run_a : string;
  run_b : string;
  tol : tolerance;
  char_deltas : cell_delta list;  (** one per common characteristic *)
  counter_deltas : cell_delta list;  (** one per common counter metric *)
  bench_deltas : bench_delta list;  (** one per common bench *)
  notes : string list;  (** asymmetric content: rows/columns/benches in one run only *)
}

val run : ?tol:tolerance -> Run_dir.t -> Run_dir.t -> t

val ok : t -> bool
(** No characteristic/counter drift beyond tolerance and no bench
    regression.  [mica compare] exits nonzero on [not (ok t)]. *)

val render : t -> string

val to_json : t -> Mica_obs.Json.t
(** Stable key order, golden-testable. *)
