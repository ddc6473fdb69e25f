module Stats = Mica_stats

type t = {
  dataset : Dataset.t;
  k : int;
  assignments : int array;
  result : Stats.Kmeans.result;
  bic_sweep : (int * float) array;
}

let cluster ?(k_min = 1) ?(k_max = 70) ?(prefer = Stats.Bic.Peak)
    ?(restarts = 3) ?(seed = 0x5EEDL) ?(pool = Mica_util.Pool.sequential) dataset =
  let normalized = Stats.Normalize.zscore dataset.Dataset.data in
  let rng = Mica_util.Rng.create ~seed in
  let sweep =
    Stats.Bic.sweep ~k_min ~k_max ~restarts ~pool ~features:dataset.Dataset.features ~rng
      normalized
  in
  let k, result, _score = Stats.Bic.choose ~frac:0.9 ~prefer sweep in
  {
    dataset;
    k;
    assignments = result.Stats.Kmeans.assignments;
    result;
    bic_sweep = Array.map (fun (k, _, s) -> (k, s)) sweep;
  }

let members t c =
  let out = ref [] in
  Array.iteri
    (fun i a -> if a = c then out := t.dataset.Dataset.names.(i) :: !out)
    t.assignments;
  Array.of_list (List.rev !out)

let sorted_clusters t =
  let clusters = List.init t.k (fun c -> (c, members t c)) in
  let clusters = List.filter (fun (_, m) -> Array.length m > 0) clusters in
  List.sort
    (fun (c1, m1) (c2, m2) ->
      match compare (Array.length m2) (Array.length m1) with
      | 0 -> compare c1 c2
      | d -> d)
    clusters
