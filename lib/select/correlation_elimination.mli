(** Correlation elimination (section V-A).

    Iteratively removes the characteristic with the highest average
    correlation with the remaining characteristics: the one carrying the
    least additional information.  Each step records which characteristic
    was dropped and how well the surviving subset still reproduces
    full-space distances.

    The removal order is decided on the full-set correlation matrix
    (computed once), so every step's surviving subset is known up front;
    their rhos are then evaluated as one batch (see
    {!Mica_select.Fitness.eval}), each exactly as {!Mica_select.Fitness.rho}
    computes it. *)

type step = {
  removed : int;  (** index of the characteristic dropped at this step *)
  avg_abs_corr : float;  (** its average |r| with the others, motivating removal *)
  remaining : int array;  (** surviving characteristic indices, ascending *)
  rho : float;  (** distance correlation of the surviving subset vs. full space *)
}

val run :
  ?pool:Mica_util.Pool.t ->
  ?down_to:int ->
  data:Mica_stats.Matrix.t ->
  Fitness.t ->
  step list
(** [run ~data fitness] eliminates one characteristic at a time until
    [down_to] remain (default 1).  [data] is the raw (unnormalized)
    observations matrix — correlations between characteristics are scale
    invariant; [fitness] must come from the normalized version of the same
    matrix.  Steps are returned in elimination order.  Each step's [rho]
    is bit-identical to [Fitness.rho fitness remaining], and the whole
    result is bit-identical at any pool size. *)

val subset_of_size : step list -> int -> int array
(** [subset_of_size steps k] is the surviving subset after elimination has
    reduced the space to [k] characteristics.  Raises [Not_found] if the
    run did not reach [k]. *)

val leave_one_out :
  ?pool:Mica_util.Pool.t -> Fitness.t -> int array -> (int * float) array
(** [leave_one_out fitness subset] scores every candidate removal: for
    each member column [c], the rho of [subset] without [c], evaluated in
    O(pairs) as a delta job off the subset's shared per-pair sums (so it
    carries the delta tolerance of DESIGN.md §9).  Candidates fan out
    over the pool (results in [subset] order, identical at any pool
    size). *)
