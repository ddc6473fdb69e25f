(** Differential oracles for the scale layer.

    Every approximate or restructured path introduced for the 10k-row
    corpus regime is checked here against the naive implementation it
    replaces, on a freshly synthesized corpus:

    - columnar z-scoring must equal {!Mica_stats.Normalize.zscore};
    - ANN k-nearest-neighbor recall against the exact linear scan must
      meet {!min_recall}, and must be monotone in the candidate budget
      (the metamorphic law: shrinking the budget never improves recall);
    - ANN range queries must equal the exact scan — they are pruned, not
      approximated;
    - scalable k-center, seeded with the naive medoid, must select the
      same subset as the O(n^2) path. *)

type outcome = { law : string; ok : bool; detail : string }

val min_recall : float
(** 0.99 — the acceptance bound for approximate kNN. *)

val all : ?size:int -> unit -> outcome list
(** Run every law on a [size]-member synthesized corpus (default 96). *)
