(** Genetic algorithm for key-characteristic selection (section V-B).

    Genomes are bitmasks over the N characteristics.  The fitness is the
    paper's [f = rho * (1 - n/N)]: reward subsets whose distances correlate
    with the full space, penalize subset size.  Tournament selection,
    uniform crossover, per-bit mutation, elitism, and a convergence stop
    when the best fitness has not improved for [stall_generations].

    Each generation's cache-miss genomes are evaluated as one batch over
    the optional pool.  The batch grouping is sequential and keyed on
    genome content, so the result is bit-identical at any pool size; the
    random stream is consumed only while breeding, never during
    evaluation.  A mutated copy of an evaluated parent is scored by
    carrying the parent's running per-pair sums and flipping only the
    differing columns (O(diff * pairs) instead of O(subset * pairs)); its
    score agrees with the full in-order evaluation up to the delta
    tolerance of DESIGN.md §9. *)

type config = {
  population : int;
  max_generations : int;
  tournament_size : int;
  crossover_rate : float;
  mutation_rate : float;  (** per-bit flip probability *)
  elite : int;  (** genomes copied unchanged each generation *)
  stall_generations : int;  (** stop after this many generations without improvement *)
  init_select_prob : float;  (** per-bit probability of 1 in the initial population *)
}

val default_config : config

type result = {
  selected : int array;  (** chosen characteristic indices, ascending *)
  fitness : float;
  rho : float;  (** distance correlation of the chosen subset *)
  generations_run : int;
  best_history : float array;  (** best fitness per generation *)
  evaluations : int;  (** distinct genomes evaluated *)
}

val run :
  ?config:config -> ?pool:Mica_util.Pool.t -> rng:Mica_util.Rng.t -> Fitness.t -> result
