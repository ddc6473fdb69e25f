module S = Mica_stats

let feq = Tutil.feq
let feql = Tutil.feq_loose

(* ---------------- descriptive ---------------- *)

let test_mean_var () =
  Alcotest.check feq "mean" 2.5 (S.Descriptive.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.check feq "variance" 1.25 (S.Descriptive.variance [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.check feq "stddev" (sqrt 1.25) (S.Descriptive.stddev [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.check feq "empty mean" 0.0 (S.Descriptive.mean [||]);
  Alcotest.check feq "singleton variance" 0.0 (S.Descriptive.variance [| 5.0 |])

let test_min_max_percentile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  let lo, hi = S.Descriptive.min_max xs in
  Alcotest.check feq "min" 1.0 lo;
  Alcotest.check feq "max" 5.0 hi;
  Alcotest.check feq "median" 3.0 (S.Descriptive.percentile xs 0.5);
  Alcotest.check feq "p0" 1.0 (S.Descriptive.percentile xs 0.0);
  Alcotest.check feq "p100" 5.0 (S.Descriptive.percentile xs 1.0);
  Alcotest.check feq "interpolated" 1.5 (S.Descriptive.percentile xs 0.125)

let test_running_stats () =
  let r = S.Descriptive.running_create () in
  List.iter (S.Descriptive.running_add r) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (S.Descriptive.running_count r);
  Alcotest.check feq "running mean" 2.5 (S.Descriptive.running_mean r);
  Alcotest.check feql "running stddev" (sqrt 1.25) (S.Descriptive.running_stddev r)

(* ---------------- matrix ---------------- *)

let test_matrix_ops () =
  let m = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (pair int int)) "dims" (2, 2) (S.Matrix.dims m);
  Alcotest.(check (array (array feq))) "transpose"
    [| [| 1.0; 3.0 |]; [| 2.0; 4.0 |] |]
    (S.Matrix.transpose m);
  let id = [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  Alcotest.(check (array (array feq))) "identity mul" m (S.Matrix.mul m id);
  Alcotest.(check (array (array feq))) "square"
    [| [| 7.0; 10.0 |]; [| 15.0; 22.0 |] |]
    (S.Matrix.mul m m);
  Alcotest.(check (array feq)) "column" [| 2.0; 4.0 |] (S.Matrix.column m 1);
  Alcotest.(check (array (array feq))) "select columns"
    [| [| 2.0 |]; [| 4.0 |] |]
    (S.Matrix.select_columns m [| 1 |])

let test_matrix_mul_mismatch () =
  try
    ignore (S.Matrix.mul [| [| 1.0 |] |] [| [| 1.0 |]; [| 2.0 |] |]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_covariance () =
  (* two perfectly correlated columns *)
  let m = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |]; [| 3.0; 6.0 |] |] in
  let cov = S.Matrix.covariance m in
  Alcotest.check feq "var x" (2.0 /. 3.0) cov.(0).(0);
  Alcotest.check feq "cov xy" (4.0 /. 3.0) cov.(0).(1);
  Alcotest.check feq "symmetric" cov.(0).(1) cov.(1).(0)

let test_correlation_matrix () =
  let m = [| [| 1.0; 2.0; 5.0 |]; [| 2.0; 4.0; 3.0 |]; [| 3.0; 6.0; 1.0 |] |] in
  let corr = S.Matrix.correlation_matrix m in
  Alcotest.check feq "diag" 1.0 corr.(0).(0);
  Alcotest.check feq "perfect correlation" 1.0 corr.(0).(1);
  Alcotest.check feq "perfect anticorrelation" (-1.0) corr.(0).(2)

let test_correlation_constant_column () =
  let m = [| [| 1.0; 7.0 |]; [| 2.0; 7.0 |] |] in
  let corr = S.Matrix.correlation_matrix m in
  Alcotest.check feq "constant column correlates 0" 0.0 corr.(0).(1);
  Alcotest.check feq "unit diagonal regardless" 1.0 corr.(1).(1)

(* ---------------- normalize ---------------- *)

let test_zscore () =
  let m = [| [| 1.0 |]; [| 2.0 |]; [| 3.0 |] |] in
  let z = S.Normalize.zscore m in
  Alcotest.check feq "mean 0" 0.0 (S.Descriptive.mean (S.Matrix.column z 0));
  Alcotest.check feql "stddev 1" 1.0 (S.Descriptive.stddev (S.Matrix.column z 0))

let test_zscore_constant_column () =
  let z = S.Normalize.zscore [| [| 5.0 |]; [| 5.0 |] |] in
  Alcotest.check feq "constant maps to 0" 0.0 z.(0).(0)

let test_apply_zscore_roundtrip () =
  let m = [| [| 1.0; 10.0 |]; [| 2.0; 20.0 |]; [| 3.0; 60.0 |] |] in
  let params = S.Normalize.zscore_params m in
  let z = S.Normalize.zscore m in
  Alcotest.(check (array feq)) "apply matches batch" z.(1)
    (S.Normalize.apply_zscore params m.(1))

let test_max_scale_and_unit_range () =
  let m = [| [| 2.0; -4.0 |]; [| 1.0; 2.0 |] |] in
  let s = S.Normalize.max_scale m in
  Alcotest.check feq "max scaled to 1" 1.0 s.(0).(0);
  Alcotest.check feq "negative kept" (-1.0) s.(0).(1);
  let u = S.Normalize.unit_range m in
  Alcotest.check feq "min -> 0" 0.0 u.(1).(0);
  Alcotest.check feq "max -> 1" 1.0 u.(0).(0);
  let c = S.Normalize.unit_range [| [| 3.0 |]; [| 3.0 |] |] in
  Alcotest.check feq "constant -> 0.5" 0.5 c.(0).(0)

(* ---------------- distance ---------------- *)

let test_distances () =
  Alcotest.check feq "euclidean" 5.0 (S.Distance.euclidean [| 0.0; 0.0 |] [| 3.0; 4.0 |]);
  Alcotest.check feq "squared" 25.0 (S.Distance.squared_euclidean [| 0.0; 0.0 |] [| 3.0; 4.0 |]);
  Alcotest.check feq "manhattan" 7.0 (S.Distance.manhattan [| 0.0; 0.0 |] [| 3.0; 4.0 |])

let test_pair_indexing () =
  let n = 7 in
  Alcotest.(check int) "pair count" 21 (S.Distance.pair_count n);
  let pairs = S.Distance.pairs ~n in
  Array.iteri
    (fun k (i, j) ->
      Alcotest.(check int) "index roundtrip" k (S.Distance.pair_index ~n i j);
      Alcotest.(check int) "symmetric" k (S.Distance.pair_index ~n j i))
    pairs

let test_condensed_matches_pairwise () =
  let m = [| [| 0.0; 0.0 |]; [| 3.0; 4.0 |]; [| 6.0; 8.0 |] |] in
  let d = S.Distance.condensed m in
  Alcotest.check feq "d(0,1)" 5.0 d.(0);
  Alcotest.check feq "d(0,2)" 10.0 d.(1);
  Alcotest.check feq "d(1,2)" 5.0 d.(2)

let test_subset_distances () =
  let m = [| [| 1.0; 100.0 |]; [| 4.0; 200.0 |] |] in
  let comp = S.Distance.condensed_squared_components m in
  Alcotest.check feq "first column only" 3.0 (S.Distance.subset_distances comp [| 0 |]).(0);
  Alcotest.check feq "second column only" 100.0 (S.Distance.subset_distances comp [| 1 |]).(0);
  Alcotest.check feq "both = condensed" (S.Distance.condensed m).(0)
    (S.Distance.subset_distances comp [| 0; 1 |]).(0)

(* ---------------- correlation ---------------- *)

let test_pearson () =
  Alcotest.check feq "perfect" 1.0
    (S.Correlation.pearson [| 1.0; 2.0; 3.0 |] [| 10.0; 20.0; 30.0 |]);
  Alcotest.check feq "perfect negative" (-1.0)
    (S.Correlation.pearson [| 1.0; 2.0; 3.0 |] [| 3.0; 2.0; 1.0 |]);
  Alcotest.check feq "constant -> 0" 0.0 (S.Correlation.pearson [| 1.0; 1.0 |] [| 1.0; 2.0 |])

let test_spearman_and_ranks () =
  Alcotest.(check (array feq)) "ranks with ties" [| 1.5; 1.5; 3.0 |]
    (S.Correlation.ranks [| 4.0; 4.0; 9.0 |]);
  (* monotone but nonlinear: spearman 1, pearson < 1 *)
  let x = [| 1.0; 2.0; 3.0; 4.0 |] and y = [| 1.0; 8.0; 27.0; 64.0 |] in
  Alcotest.check feq "spearman monotone" 1.0 (S.Correlation.spearman x y);
  Alcotest.(check bool) "pearson below 1" true (S.Correlation.pearson x y < 0.999)

(* ---------------- PCA ---------------- *)

let test_jacobi_known () =
  (* eigenvalues of [[2,1],[1,2]] are 3 and 1 *)
  let values, vectors = S.Pca.jacobi_eigen [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  Alcotest.check feql "largest" 3.0 values.(0);
  Alcotest.check feql "smallest" 1.0 values.(1);
  (* eigenvector for 3 is (1,1)/sqrt 2 up to sign *)
  let v = vectors.(0) in
  Alcotest.check feql "eigenvector components equal" (Float.abs v.(0)) (Float.abs v.(1))

let test_pca_variance () =
  let rng = Mica_util.Rng.create ~seed:77L in
  let m =
    Array.init 100 (fun _ ->
        let x = Mica_util.Rng.gaussian rng ~mu:0.0 ~sigma:1.0 in
        let y = Mica_util.Rng.gaussian rng ~mu:0.0 ~sigma:0.1 in
        (* strongly correlated pair plus noise dimension *)
        [| x; (2.0 *. x) +. y; Mica_util.Rng.gaussian rng ~mu:0.0 ~sigma:1.0 |])
  in
  let pca = S.Pca.fit m in
  let ratios = S.Pca.explained_variance_ratio pca in
  Alcotest.check feql "ratios sum to 1" 1.0 (S.Descriptive.sum ratios);
  Alcotest.(check bool) "first component dominates" true (ratios.(0) > 0.5);
  Alcotest.(check int) "2 dims reach 95%" 2 (S.Pca.dims_for_variance pca 0.95)

let test_pca_transform_decorrelates () =
  let rng = Mica_util.Rng.create ~seed:78L in
  let m =
    Array.init 200 (fun _ ->
        let x = Mica_util.Rng.gaussian rng ~mu:5.0 ~sigma:2.0 in
        [| x; x +. Mica_util.Rng.gaussian rng ~mu:0.0 ~sigma:0.5 |])
  in
  let pca = S.Pca.fit m in
  let t = S.Pca.transform pca m in
  let c0 = S.Matrix.column t 0 and c1 = S.Matrix.column t 1 in
  Alcotest.(check bool) "components decorrelated" true
    (Float.abs (S.Correlation.pearson c0 c1) < 0.05)

(* ---------------- kmeans ---------------- *)

let blobs rng =
  Array.init 60 (fun i ->
      let cx = if i < 20 then 0.0 else if i < 40 then 10.0 else 20.0 in
      [|
        cx +. Mica_util.Rng.gaussian rng ~mu:0.0 ~sigma:0.3;
        cx +. Mica_util.Rng.gaussian rng ~mu:0.0 ~sigma:0.3;
      |])

let test_kmeans_recovers_blobs () =
  let rng = Mica_util.Rng.create ~seed:101L in
  let m = blobs rng in
  let res = S.Kmeans.fit ~rng ~k:3 m in
  (* all members of a ground-truth blob share a cluster *)
  let cluster_of i = res.S.Kmeans.assignments.(i) in
  for b = 0 to 2 do
    let base = b * 20 in
    for i = base + 1 to base + 19 do
      Alcotest.(check int) "blob intact" (cluster_of base) (cluster_of i)
    done
  done;
  Alcotest.(check bool) "blobs separated" true
    (cluster_of 0 <> cluster_of 20 && cluster_of 20 <> cluster_of 40)

let test_kmeans_k1 () =
  let rng = Mica_util.Rng.create ~seed:103L in
  let m = blobs rng in
  let res = S.Kmeans.fit ~rng ~k:1 m in
  Alcotest.(check bool) "single cluster holds everything" true
    (Array.for_all (fun a -> a = 0) res.S.Kmeans.assignments)

let test_kmeans_inertia_decreases_with_k () =
  let rng = Mica_util.Rng.create ~seed:105L in
  let m = blobs rng in
  let i1 = (S.Kmeans.fit ~restarts:3 ~rng ~k:1 m).S.Kmeans.inertia in
  let i3 = (S.Kmeans.fit ~restarts:3 ~rng ~k:3 m).S.Kmeans.inertia in
  let i10 = (S.Kmeans.fit ~restarts:3 ~rng ~k:10 m).S.Kmeans.inertia in
  Alcotest.(check bool) "more clusters, less inertia" true (i3 < i1 && i10 < i3)

let test_kmeans_invalid_k () =
  let rng = Mica_util.Rng.create ~seed:107L in
  List.iter
    (fun (k, m) ->
      match S.Kmeans.fit ~rng ~k m with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")
    [
      (0, [| [| 1.0 |] |]);
      (* ragged rows: the distance loop reads them unchecked *)
      (2, [| [| 1.0; 2.0 |]; [| 3.0 |]; [| 0.0; 1.0 |] |]);
    ]

let test_kmeans_members () =
  let rng = Mica_util.Rng.create ~seed:109L in
  let m = blobs rng in
  let res = S.Kmeans.fit ~rng ~k:3 m in
  let members = S.Kmeans.cluster_members res in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 members in
  Alcotest.(check int) "members partition the data" 60 total

(* ---------------- BIC ---------------- *)

let test_bic_prefers_true_k () =
  let rng = Mica_util.Rng.create ~seed:111L in
  let m = blobs rng in
  let sweep = S.Bic.sweep ~k_min:1 ~k_max:8 ~restarts:3 ~rng m in
  let _, best, _ = S.Bic.choose ~prefer:S.Bic.Peak sweep in
  Alcotest.(check bool) "peak BIC at/near true k" true
    (best.S.Kmeans.k >= 3 && best.S.Kmeans.k <= 4)

let test_bic_preferences () =
  let fake k score =
    ( k,
      { S.Kmeans.k; assignments = [| 0 |]; centroids = [| [| 0.0 |] |]; inertia = 0.0; iterations = 1 },
      score )
  in
  let sweep = [| fake 1 0.0; fake 2 9.5; fake 3 10.0; fake 4 9.4; fake 5 9.6 |] in
  let k_of (k, _, _) = k in
  Alcotest.(check int) "smallest within 90%" 2 (k_of (S.Bic.choose ~frac:0.9 sweep));
  Alcotest.(check int) "largest within 90%" 5
    (k_of (S.Bic.choose ~frac:0.9 ~prefer:S.Bic.Largest_within sweep));
  Alcotest.(check int) "peak" 3 (k_of (S.Bic.choose ~prefer:S.Bic.Peak sweep))

(* ---------------- ROC ---------------- *)

let test_roc_perfect () =
  let labels = [| true; true; false; false |] in
  let scores = [| 0.9; 0.8; 0.2; 0.1 |] in
  let c = S.Roc.curve ~labels ~scores in
  Alcotest.check feq "perfect AUC" 1.0 c.S.Roc.auc

let test_roc_inverted () =
  let labels = [| true; true; false; false |] in
  let scores = [| 0.1; 0.2; 0.8; 0.9 |] in
  let c = S.Roc.curve ~labels ~scores in
  Alcotest.check feq "inverted AUC" 0.0 c.S.Roc.auc

let test_roc_random_midpoint () =
  let rng = Mica_util.Rng.create ~seed:113L in
  let n = 4_000 in
  let labels = Array.init n (fun _ -> Mica_util.Rng.bool rng) in
  let scores = Array.init n (fun _ -> Mica_util.Rng.float rng 1.0) in
  let c = S.Roc.curve ~labels ~scores in
  Alcotest.(check bool) "random AUC near 0.5" true (Float.abs (c.S.Roc.auc -. 0.5) < 0.05)

let test_roc_monotone_points () =
  let rng = Mica_util.Rng.create ~seed:115L in
  let labels = Array.init 500 (fun _ -> Mica_util.Rng.bool rng) in
  let scores = Array.init 500 (fun i -> if labels.(i) then Mica_util.Rng.float rng 1.2 else Mica_util.Rng.float rng 1.0) in
  let c = S.Roc.curve ~labels ~scores in
  let pts = c.S.Roc.points in
  for i = 0 to Array.length pts - 2 do
    if pts.(i).S.Roc.fpr > pts.(i + 1).S.Roc.fpr +. 1e-12 then Alcotest.fail "fpr not monotone";
    if pts.(i).S.Roc.tpr > pts.(i + 1).S.Roc.tpr +. 1e-12 then Alcotest.fail "tpr not monotone"
  done;
  let last = pts.(Array.length pts - 1) in
  Alcotest.check feq "ends at (1,1) fpr" 1.0 last.S.Roc.fpr;
  Alcotest.check feq "ends at (1,1) tpr" 1.0 last.S.Roc.tpr

let test_roc_positives_labelling () =
  let d = [| 0.0; 1.0; 5.0; 10.0 |] in
  let labels = S.Roc.positives ~ref_distances:d ~frac:0.2 in
  Alcotest.(check (array bool)) "20% of max = 2" [| false; false; true; true |] labels

let test_roc_single_class_rejected () =
  try
    ignore (S.Roc.curve ~labels:[| true; true |] ~scores:[| 0.1; 0.2 |]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* A NaN equals no score, not even itself: the grouping loop used to spin
   on it forever.  It is rejected, naming its index. *)
let test_roc_nan_score_rejected () =
  match S.Roc.curve ~labels:[| true; false; true; false |] ~scores:[| 1.0; nan; 0.5; 0.2 |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "message" "Roc.curve: score 1 is NaN" msg

(* The comparison-sorted curve the radix sort replaced: a polymorphic
   [Array.sort] on descending score, points gathered in a list. *)
let roc_by_comparison_sort ~labels ~scores =
  let n = Array.length labels in
  let total_pos = Array.fold_left (fun acc l -> if l then acc + 1 else acc) 0 labels in
  let fpos = float_of_int total_pos and fneg = float_of_int (n - total_pos) in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> compare scores.(b) scores.(a)) order;
  let points = ref [ { S.Roc.threshold = infinity; tpr = 0.0; fpr = 0.0 } ] in
  let tp = ref 0 and fp = ref 0 and i = ref 0 in
  while !i < n do
    let s = scores.(order.(!i)) in
    while !i < n && scores.(order.(!i)) = s do
      if labels.(order.(!i)) then incr tp else incr fp;
      incr i
    done;
    points :=
      { S.Roc.threshold = s; tpr = float_of_int !tp /. fpos; fpr = float_of_int !fp /. fneg }
      :: !points
  done;
  let points = Array.of_list (List.rev !points) in
  let auc = ref 0.0 in
  for j = 1 to Array.length points - 1 do
    let a = points.(j - 1) and b = points.(j) in
    auc := !auc +. ((b.S.Roc.fpr -. a.S.Roc.fpr) *. (a.S.Roc.tpr +. b.S.Roc.tpr) /. 2.0)
  done;
  (points, !auc)

let same_curve label (want_points, want_auc) (got : S.Roc.curve) =
  let bits = Int64.bits_of_float in
  let flat ps =
    Array.concat
      (Array.to_list
         (Array.map (fun p -> [| bits p.S.Roc.threshold; bits p.S.Roc.tpr; bits p.S.Roc.fpr |]) ps))
  in
  Alcotest.(check (array int64))
    (label ^ ": point bits") (flat want_points) (flat got.S.Roc.points);
  Alcotest.(check int64) (label ^ ": AUC bits") (bits want_auc) (bits got.S.Roc.auc)

(* The radix-sorted curve against the comparison sort, by bits: scores
   drawn from a few values (long runs of ties), with negatives, +0.0,
   infinities, subnormals and values on both sides of 2.0 (where the
   exponent's top bit flips); and [curves], whose curves share one set of
   sort buffers, against the same reference. *)
let test_roc_radix_matches_comparison_sort () =
  let rng = Mica_util.Rng.create ~seed:0x50C7L in
  let pool =
    [| 0.0; 1.0; 0.5; 2.0; 1.9999999999999998; 3.75; 1e-310; 4e-320; 1e300; infinity;
       neg_infinity; -0.5; -2.0; -1e-310; -7.25; 1e-3 |]
  in
  let case ~n ~values ~negatives =
    let scores =
      Array.init n (fun _ ->
          if values > 0 then begin
            let x = pool.(Mica_util.Rng.int rng values) in
            if negatives || x >= 0.0 then x else -.x
          end
          else Mica_util.Rng.float rng 20.0)
    in
    let labels = Array.init n (fun i -> i mod 3 = 0 || Mica_util.Rng.bool rng) in
    labels.(0) <- true;
    labels.(1) <- false;
    (labels, scores)
  in
  let cases =
    [
      case ~n:2 ~values:2 ~negatives:false;
      case ~n:9 ~values:1 ~negatives:false;
      case ~n:300 ~values:4 ~negatives:false;
      case ~n:1000 ~values:10 ~negatives:false;
      case ~n:777 ~values:16 ~negatives:true;
      case ~n:2049 ~values:0 ~negatives:false;
      case ~n:5000 ~values:13 ~negatives:true;
    ]
  in
  List.iteri
    (fun i (labels, scores) ->
      same_curve (Printf.sprintf "case %d" i) (roc_by_comparison_sort ~labels ~scores)
        (S.Roc.curve ~labels ~scores))
    cases;
  let labels, _ = List.nth cases 4 in
  let scores =
    List.map
      (fun (_, s) -> Array.sub s 0 (Array.length labels))
      (List.filteri (fun i _ -> i >= 4) cases)
  in
  List.iteri
    (fun i (got, scores) ->
      same_curve (Printf.sprintf "curves %d" i) (roc_by_comparison_sort ~labels ~scores) got)
    (List.combine (S.Roc.curves ~labels scores) scores)

(* ---------------- summarize (variance aggregator) ---------------- *)

(* Two-pass reference implementation over the finite samples. *)
let naive_summary xs =
  let fin = Array.of_seq (Seq.filter Float.is_finite (Array.to_seq xs)) in
  let n = Array.length fin in
  let mean = if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 fin /. float_of_int n in
  let var =
    if n < 2 then 0.0
    else Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 fin /. float_of_int n
  in
  (n, mean, sqrt var)

let test_summarize_edges () =
  let s = S.Descriptive.summarize [||] in
  Alcotest.(check int) "empty count" 0 s.S.Descriptive.count;
  Alcotest.check feq "empty mean" 0.0 s.S.Descriptive.mean_v;
  Alcotest.check feq "empty cv" 0.0 s.S.Descriptive.cv;
  let s = S.Descriptive.summarize [| 7.5 |] in
  Alcotest.(check int) "n=1 count" 1 s.S.Descriptive.count;
  Alcotest.check feq "n=1 mean" 7.5 s.S.Descriptive.mean_v;
  Alcotest.check feq "n=1 stddev" 0.0 s.S.Descriptive.stddev_v;
  Alcotest.check feq "n=1 cv" 0.0 s.S.Descriptive.cv;
  let s = S.Descriptive.summarize [| 4.0; 4.0; 4.0; 4.0 |] in
  Alcotest.check feq "constant stddev" 0.0 s.S.Descriptive.stddev_v;
  Alcotest.check feq "constant cv" 0.0 s.S.Descriptive.cv;
  (* zero-mean spread: CV is undefined, reported as infinite noise *)
  let s = S.Descriptive.summarize [| -1.0; 1.0 |] in
  Alcotest.(check bool) "zero-mean cv infinite" true (s.S.Descriptive.cv = Float.infinity);
  (* non-finite samples are dropped, not propagated *)
  let s = S.Descriptive.summarize [| 1.0; Float.nan; 3.0; Float.infinity; Float.neg_infinity |] in
  Alcotest.(check int) "finite count" 2 s.S.Descriptive.count;
  Alcotest.check feq "finite mean" 2.0 s.S.Descriptive.mean_v;
  Alcotest.(check bool) "stddev finite" true (Float.is_finite s.S.Descriptive.stddev_v);
  let s = S.Descriptive.summarize [| Float.nan; Float.nan |] in
  Alcotest.(check int) "all-nan count" 0 s.S.Descriptive.count;
  Alcotest.check feq "all-nan mean" 0.0 s.S.Descriptive.mean_v

let sample_gen =
  (* finite values across magnitudes, salted with non-finite junk *)
  QCheck2.Gen.(
    list_size (int_range 0 40)
      (frequency
         [
           (8, float_range (-1e6) 1e6);
           (2, float_range (-1e-3) 1e-3);
           (1, return Float.nan);
           (1, return Float.infinity);
           (1, return Float.neg_infinity);
         ]))

let close a b =
  (* relative closeness: Welford vs two-pass differ only in rounding *)
  Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let prop_summarize_matches_naive xs =
  let xs = Array.of_list xs in
  let s = S.Descriptive.summarize xs in
  let n, mean, sd = naive_summary xs in
  s.S.Descriptive.count = n
  && close s.S.Descriptive.mean_v mean
  && close s.S.Descriptive.stddev_v sd
  && (Float.is_finite s.S.Descriptive.cv || s.S.Descriptive.cv = Float.infinity)

let prop_summarize_shift_invariant_count xs =
  (* shifting finite samples never changes the count or the spread *)
  let xs = Array.of_list xs in
  let shifted = Array.map (fun x -> x +. 1000.0) xs in
  let a = S.Descriptive.summarize xs and b = S.Descriptive.summarize shifted in
  a.S.Descriptive.count = b.S.Descriptive.count
  && Float.abs (a.S.Descriptive.stddev_v -. b.S.Descriptive.stddev_v)
     <= 1e-6 *. Float.max 1.0 a.S.Descriptive.stddev_v

let suite =
  ( "stats",
    [
      Alcotest.test_case "mean/var" `Quick test_mean_var;
      Alcotest.test_case "min/max/percentile" `Quick test_min_max_percentile;
      Alcotest.test_case "running stats" `Quick test_running_stats;
      Alcotest.test_case "matrix ops" `Quick test_matrix_ops;
      Alcotest.test_case "matrix mismatch" `Quick test_matrix_mul_mismatch;
      Alcotest.test_case "covariance" `Quick test_covariance;
      Alcotest.test_case "correlation matrix" `Quick test_correlation_matrix;
      Alcotest.test_case "constant column corr" `Quick test_correlation_constant_column;
      Alcotest.test_case "zscore" `Quick test_zscore;
      Alcotest.test_case "zscore constant" `Quick test_zscore_constant_column;
      Alcotest.test_case "apply_zscore" `Quick test_apply_zscore_roundtrip;
      Alcotest.test_case "max_scale / unit_range" `Quick test_max_scale_and_unit_range;
      Alcotest.test_case "distances" `Quick test_distances;
      Alcotest.test_case "pair indexing" `Quick test_pair_indexing;
      Alcotest.test_case "condensed distances" `Quick test_condensed_matches_pairwise;
      Alcotest.test_case "subset distances" `Quick test_subset_distances;
      Alcotest.test_case "pearson" `Quick test_pearson;
      Alcotest.test_case "spearman/ranks" `Quick test_spearman_and_ranks;
      Alcotest.test_case "jacobi known matrix" `Quick test_jacobi_known;
      Alcotest.test_case "pca variance" `Quick test_pca_variance;
      Alcotest.test_case "pca decorrelates" `Quick test_pca_transform_decorrelates;
      Alcotest.test_case "kmeans blobs" `Quick test_kmeans_recovers_blobs;
      Alcotest.test_case "kmeans k=1" `Quick test_kmeans_k1;
      Alcotest.test_case "kmeans inertia" `Quick test_kmeans_inertia_decreases_with_k;
      Alcotest.test_case "kmeans invalid k" `Quick test_kmeans_invalid_k;
      Alcotest.test_case "kmeans members" `Quick test_kmeans_members;
      Alcotest.test_case "bic true k" `Quick test_bic_prefers_true_k;
      Alcotest.test_case "bic preferences" `Quick test_bic_preferences;
      Alcotest.test_case "roc perfect" `Quick test_roc_perfect;
      Alcotest.test_case "roc inverted" `Quick test_roc_inverted;
      Alcotest.test_case "roc random" `Quick test_roc_random_midpoint;
      Alcotest.test_case "roc monotone" `Quick test_roc_monotone_points;
      Alcotest.test_case "roc positives" `Quick test_roc_positives_labelling;
      Alcotest.test_case "roc one class" `Quick test_roc_single_class_rejected;
      Alcotest.test_case "roc NaN score rejected" `Quick test_roc_nan_score_rejected;
      Alcotest.test_case "roc radix vs comparison sort" `Quick
        test_roc_radix_matches_comparison_sort;
      Alcotest.test_case "summarize edges" `Quick test_summarize_edges;
      Tutil.qcheck_case "summarize = two-pass reference" sample_gen prop_summarize_matches_naive;
      Tutil.qcheck_case "summarize shift-invariant spread" sample_gen
        prop_summarize_shift_invariant_count;
    ] )
