module Colmat = Mica_stats.Colmat
module Normalize = Mica_stats.Normalize
module Ann = Mica_stats.Ann
module Corpus_gen = Mica_core.Corpus_gen
module Subsetting = Mica_core.Subsetting
module Space = Mica_core.Space
module Dataset = Mica_core.Dataset

type outcome = { law : string; ok : bool; detail : string }

let min_recall = 0.99

let float_arrays_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (x : float) y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

let zscore_law raw =
  let row_major = Normalize.zscore raw in
  let columnar = Colmat.zscore (Colmat.of_matrix raw) in
  let ok =
    Array.for_all2 (fun a b -> float_arrays_equal a b) row_major (Colmat.to_matrix columnar)
  in
  {
    law = "columnar zscore = Normalize.zscore (bit-exact)";
    ok;
    detail = (if ok then "all cells identical" else "cells diverge");
  }

let knn_recall_law z_col =
  let n = Colmat.rows z_col in
  let index = Ann.build z_col in
  let k = 10 in
  let budget = max 32 (n / 4) in
  let queries = List.init (min 16 n) Fun.id in
  let recalls =
    List.map
      (fun i ->
        let q = Colmat.row z_col i in
        Ann.recall
          ~exact:(Ann.exact_knn z_col ~k q)
          ~approx:(Ann.knn ~budget index ~k q))
      queries
  in
  let mean = List.fold_left ( +. ) 0.0 recalls /. float_of_int (List.length recalls) in
  {
    law = Printf.sprintf "ann knn recall >= %.2f" min_recall;
    ok = mean >= min_recall;
    detail =
      Printf.sprintf "mean recall %.4f over %d queries (k=%d budget=%d cells=%d)" mean
        (List.length recalls) k budget (Ann.cell_count index);
  }

let budget_monotone_law z_col =
  let n = Colmat.rows z_col in
  let index = Ann.build z_col in
  let k = 10 in
  let budgets = [ k; 2 * k; 4 * k; n ] in
  let queries = List.init (min 12 n) Fun.id in
  let violations =
    List.concat_map
      (fun i ->
        let q = Colmat.row z_col i in
        let exact = Ann.exact_knn z_col ~k q in
        let recalls =
          List.map (fun b -> (b, Ann.recall ~exact ~approx:(Ann.knn ~budget:b index ~k q))) budgets
        in
        let rec pairs = function
          | (b1, r1) :: ((b2, r2) :: _ as rest) ->
              if r1 > r2 then
                Printf.sprintf "query %d: recall %.3f@%d > %.3f@%d" i r1 b1 r2 b2 :: pairs rest
              else pairs rest
          | _ -> []
        in
        pairs recalls)
      queries
  in
  {
    law = "ann recall monotone in candidate budget";
    ok = violations = [];
    detail =
      (if violations = [] then
         Printf.sprintf "non-decreasing across budgets %s on %d queries"
           (String.concat "," (List.map string_of_int budgets))
           (List.length queries)
       else String.concat "; " violations);
  }

let range_exact_law z_col =
  let index = Ann.build z_col in
  let n = Colmat.rows z_col in
  let queries = List.init (min 8 n) Fun.id in
  let bad =
    List.filter_map
      (fun i ->
        let q = Colmat.row z_col i in
        (* a radius that catches a moderate neighborhood: distance to the
           8th exact neighbor *)
        let exact8 = Ann.exact_knn z_col ~k:8 q in
        let radius = (Array.get exact8 (Array.length exact8 - 1)).Ann.distance in
        let exact = Ann.exact_range z_col ~radius q in
        let approx = Ann.range index ~radius q in
        let same =
          Array.length exact = Array.length approx
          && Array.for_all2
               (fun (a : Ann.neighbor) (b : Ann.neighbor) ->
                 a.Ann.index = b.Ann.index
                 && Int64.bits_of_float a.Ann.distance = Int64.bits_of_float b.Ann.distance)
               exact approx
        in
        if same then None
        else Some (Printf.sprintf "query %d: %d exact vs %d indexed" i (Array.length exact)
                     (Array.length approx)))
      queries
  in
  {
    law = "ann range query = exact scan";
    ok = bad = [];
    detail =
      (if bad = [] then Printf.sprintf "identical results on %d queries" (List.length queries)
       else String.concat "; " bad);
  }

let k_center_law corpus z_col =
  let space = Space.of_dataset corpus in
  let k = min 8 (Dataset.rows corpus) in
  let naive = Subsetting.k_center space ~k in
  let seed = naive.Subsetting.chosen.(0) in
  let scalable = Subsetting.k_center_scalable ~seed z_col ~k in
  let ok = naive.Subsetting.chosen = scalable.Subsetting.chosen in
  {
    law = "scalable k-center = naive (medoid seed)";
    ok;
    detail =
      (if ok then
         Printf.sprintf "identical %d-benchmark selection (radius %.6f)" k
           scalable.Subsetting.max_distance
       else
         Printf.sprintf "selections diverge: [%s] vs [%s]"
           (String.concat ";" (Array.to_list (Array.map string_of_int naive.Subsetting.chosen)))
           (String.concat ";"
              (Array.to_list (Array.map string_of_int scalable.Subsetting.chosen))));
  }

let all ?(size = 96) () =
  let corpus = Corpus_gen.generate ~anchors:2 ~icount:10_000 ~size () in
  let raw = corpus.Dataset.data in
  let z_col = Colmat.zscore (Colmat.of_matrix raw) in
  [
    zscore_law raw;
    knn_recall_law z_col;
    budget_monotone_law z_col;
    range_exact_law z_col;
    k_center_law corpus z_col;
  ]
