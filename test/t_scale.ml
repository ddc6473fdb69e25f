(* Scale layer: columnar store, ANN index, corpus sweep.
   The load-bearing contracts here are bit-identity (store round-trips,
   corpus determinism) and the ANN recall/monotonicity laws — see
   DESIGN.md §13. *)
module S = Mica_stats
module Core = Mica_core
module W = Mica_workloads

let feq = Tutil.feq

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)

let mk_dataset ?(rows = 7) ?(cols = 4) ?(seed = 11L) () =
  let rng = Mica_util.Rng.create ~seed in
  let data =
    Array.init rows (fun _ ->
        Array.init cols (fun _ -> Mica_util.Rng.float rng 100.0 -. 50.0))
  in
  let names = Array.init rows (Printf.sprintf "w%02d") in
  let features = Array.init cols (Printf.sprintf "f%d") in
  Core.Dataset.create ~names ~features data

let with_tmp_file f =
  let path = Filename.temp_file "mica_scale" ".micd" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let bits = Int64.bits_of_float

let check_matrix_bits msg (a : S.Matrix.t) (b : S.Matrix.t) =
  Alcotest.(check int) (msg ^ ": rows") (Array.length a) (Array.length b);
  Array.iteri
    (fun i ra ->
      Array.iteri
        (fun j v ->
          Alcotest.(check int64)
            (Printf.sprintf "%s (%d,%d)" msg i j)
            (bits v) (bits b.(i).(j)))
        ra)
    a

(* ------------------------------------------------------------------ *)
(* Dataset store                                                       *)

let test_store_round_trip () =
  let ds = mk_dataset () in
  with_tmp_file (fun path ->
      Core.Dataset_store.write path ds;
      (match Core.Dataset_store.verify path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "verify: %s" (Mica_util.Artifact.describe_error e));
      match Core.Dataset_store.load path with
      | Error e -> Alcotest.failf "load: %s" (Mica_util.Artifact.describe_error e)
      | Ok st ->
        Alcotest.(check (array string)) "names" ds.Core.Dataset.names st.Core.Dataset_store.names;
        Alcotest.(check (array string))
          "features" ds.Core.Dataset.features st.Core.Dataset_store.features;
        check_matrix_bits "cell" ds.Core.Dataset.data
          (Mica_stats.Colmat.to_matrix st.Core.Dataset_store.data))

let test_store_header_golden () =
  let ds = mk_dataset ~rows:3 ~cols:2 () in
  with_tmp_file (fun path ->
      Core.Dataset_store.write path ds;
      let ic = open_in_bin path in
      let header = really_input_string ic 24 in
      close_in ic;
      Alcotest.(check string) "magic" "MICD" (String.sub header 0 4);
      Alcotest.(check int) "version" 1 (Char.code header.[4]);
      let endian = Char.code header.[5] in
      Alcotest.(check int) "endian tag" (if Sys.big_endian then 2 else 1) endian;
      Alcotest.(check int) "reserved" 0 (Char.code header.[6] + Char.code header.[7]);
      let u32 off = Int32.to_int (String.get_int32_le header off) in
      Alcotest.(check int) "rows" 3 (u32 12);
      Alcotest.(check int) "cols" 2 (u32 16);
      let data_offset = u32 20 in
      Alcotest.(check int) "data offset 8-aligned" 0 (data_offset mod 8);
      let size = (Unix.stat path).Unix.st_size in
      Alcotest.(check int) "size arithmetic" (data_offset + (3 * 2 * 8)) size)

let expect_corrupt what = function
  | Error (Mica_util.Artifact.Corrupt _) -> ()
  | Error e ->
    Alcotest.failf "%s: expected Corrupt, got %s" what (Mica_util.Artifact.describe_error e)
  | Ok _ -> Alcotest.failf "%s: expected Corrupt, got Ok" what

let test_store_tamper () =
  let ds = mk_dataset () in
  with_tmp_file (fun path ->
      Core.Dataset_store.write path ds;
      let bytes =
        let ic = open_in_bin path in
        let b = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Bytes.of_string b
      in
      let rewrite b =
        let oc = open_out_bin path in
        output_bytes oc b;
        close_out oc
      in
      (* flip a metadata byte: load itself must fail *)
      let meta = Bytes.copy bytes in
      Bytes.set meta 58 (Char.chr (Char.code (Bytes.get meta 58) lxor 0xFF));
      rewrite meta;
      expect_corrupt "metadata tamper"
        (Result.map (fun (_ : Core.Dataset_store.t) -> ()) (Core.Dataset_store.load path));
      (* flip a data byte: load stays O(1)-happy, verify catches it *)
      let data = Bytes.copy bytes in
      let last = Bytes.length data - 1 in
      Bytes.set data last (Char.chr (Char.code (Bytes.get data last) lxor 0xFF));
      rewrite data;
      (match Core.Dataset_store.load path with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "data tamper should load: %s" (Mica_util.Artifact.describe_error e));
      expect_corrupt "data tamper" (Core.Dataset_store.verify path);
      (* truncation: size arithmetic fails in load *)
      rewrite (Bytes.sub bytes 0 (Bytes.length bytes - 5));
      expect_corrupt "truncation"
        (Result.map (fun (_ : Core.Dataset_store.t) -> ()) (Core.Dataset_store.load path));
      (* wrong magic is foreign, not corrupt *)
      let magic = Bytes.copy bytes in
      Bytes.set magic 0 'X';
      rewrite magic;
      (match Core.Dataset_store.load path with
      | Error (Mica_util.Artifact.Corrupt _) -> ()
      | Error (Mica_util.Artifact.Foreign_version _) -> ()
      | Error e ->
        Alcotest.failf "bad magic: unexpected %s" (Mica_util.Artifact.describe_error e)
      | Ok _ -> Alcotest.fail "bad magic: expected an error");
      (* missing file *)
      Sys.remove path;
      match Core.Dataset_store.load path with
      | Error Mica_util.Artifact.Missing -> ()
      | Error e -> Alcotest.failf "missing: unexpected %s" (Mica_util.Artifact.describe_error e)
      | Ok _ -> Alcotest.fail "missing: expected Missing")

let test_store_degenerate () =
  (* empty (0 rows) and single-row datasets round-trip *)
  List.iter
    (fun rows ->
      let ds = mk_dataset ~rows ~cols:3 ~seed:5L () in
      with_tmp_file (fun path ->
          Core.Dataset_store.write path ds;
          match Core.Dataset_store.load path with
          | Error e ->
            Alcotest.failf "load %d rows: %s" rows (Mica_util.Artifact.describe_error e)
          | Ok st ->
            Alcotest.(check int) "rows" rows (Array.length st.Core.Dataset_store.names);
            check_matrix_bits "cell" ds.Core.Dataset.data
              (Mica_stats.Colmat.to_matrix st.Core.Dataset_store.data)))
    [ 0; 1 ]

let test_colmat_round_trip () =
  let ds = mk_dataset ~rows:9 ~cols:4 ~seed:31L () in
  let m = ds.Core.Dataset.data in
  let cm = S.Colmat.of_matrix m in
  check_matrix_bits "to_matrix" m (S.Colmat.to_matrix cm);
  Alcotest.(check (pair int int)) "dims" (9, 4) (S.Colmat.dims cm);
  (* accessors agree with the row-major image *)
  Alcotest.(check int64) "get" (bits m.(4).(2)) (bits (S.Colmat.get cm 4 2));
  let r = S.Colmat.row cm 7 in
  Array.iteri (fun j v -> Alcotest.(check int64) "row" (bits m.(7).(j)) (bits v)) r;
  let buf = Array.make 4 Float.nan in
  S.Colmat.row_into cm 7 buf;
  Array.iteri (fun j v -> Alcotest.(check int64) "row_into" (bits m.(7).(j)) (bits v)) buf;
  (* column stats match the Descriptive path bit-for-bit *)
  for j = 0 to 3 do
    let col = S.Matrix.column m j in
    let mean, std = S.Colmat.column_mean_std cm j in
    Alcotest.(check int64) "mean" (bits (S.Descriptive.mean col)) (bits mean);
    Alcotest.(check int64) "std" (bits (S.Descriptive.stddev col)) (bits std)
  done;
  (* zscore matches Normalize bit-for-bit *)
  check_matrix_bits "zscore" (S.Normalize.zscore m) (S.Colmat.to_matrix (S.Colmat.zscore cm));
  (* distances match Distance.euclidean *)
  Alcotest.(check int64) "distance"
    (bits (S.Distance.euclidean m.(1) m.(6)))
    (bits (S.Colmat.distance cm 1 6));
  let d = S.Colmat.distances_from_row cm m.(3) in
  Alcotest.check feq "self distance" 0.0 d.(3)

let test_matrix_column_stats () =
  let m = [| [| 1.0; -2.0 |]; [| 3.0; 0.5 |]; [| 5.0; 7.25 |] |] in
  for j = 0 to 1 do
    let col = S.Matrix.column m j in
    let mean, std = S.Matrix.column_mean_std m j in
    Alcotest.(check int64) "mean" (bits (S.Descriptive.mean col)) (bits mean);
    Alcotest.(check int64) "std" (bits (S.Descriptive.stddev col)) (bits std);
    let lo, hi = S.Matrix.column_min_max m j in
    Alcotest.check feq "min" (Array.fold_left Float.min col.(0) col) lo;
    Alcotest.check feq "max" (Array.fold_left Float.max col.(0) col) hi
  done;
  let mean, std = S.Matrix.column_mean_std ([||] : S.Matrix.t) 0 in
  Alcotest.check feq "empty mean" 0.0 mean;
  Alcotest.check feq "empty std" 0.0 std

(* ------------------------------------------------------------------ *)
(* Corpus registry and synthesis                                       *)

let test_corpus_ids () =
  (* pinned golden id: the sweep version is part of the hash, so this
     string changing means every committed corpus artifact is renamed *)
  Alcotest.(check string) "golden id" "gen/analytics/00000-500882f1"
    (W.Corpus.member_id W.Corpus.Analytics 0);
  (* ids are stable across calls and distinct across indices/families *)
  List.iter
    (fun fam ->
      Alcotest.(check string) "stable"
        (W.Corpus.member_id fam 42) (W.Corpus.member_id fam 42);
      Alcotest.(check bool) "distinct indices" true
        (W.Corpus.member_id fam 1 <> W.Corpus.member_id fam 2))
    W.Corpus.families;
  let ids =
    List.map (fun f -> W.Corpus.member_id f 7) W.Corpus.families
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "distinct families" 3 (List.length ids);
  (* member round-robin enumeration *)
  let ms = W.Corpus.members ~size:7 in
  Alcotest.(check int) "members size" 7 (List.length ms);
  let id r = W.Workload.id (List.nth ms r) in
  Alcotest.(check string) "row 0" (W.Corpus.member_id W.Corpus.Analytics 0) (id 0);
  Alcotest.(check string) "row 1" (W.Corpus.member_id W.Corpus.Key_value 0) (id 1);
  Alcotest.(check string) "row 2" (W.Corpus.member_id W.Corpus.Media_stream 0) (id 2);
  Alcotest.(check string) "row 3" (W.Corpus.member_id W.Corpus.Analytics 1) (id 3);
  (* member models are deterministic in (family, index) *)
  let a = W.Corpus.member W.Corpus.Key_value 5 and b = W.Corpus.member W.Corpus.Key_value 5 in
  Alcotest.(check string) "same id" (W.Workload.id a) (W.Workload.id b);
  (* generated suite is outside the Table I registry *)
  Alcotest.(check int) "registry unchanged" 122 (List.length W.Registry.all);
  Alcotest.(check bool) "suite name" true (W.Suite.name W.Suite.Generated = "gen");
  Alcotest.(check bool) "of_name gen" true (W.Suite.of_name "gen" = Some W.Suite.Generated);
  Alcotest.(check bool) "not in Suite.all" true
    (not (List.mem W.Suite.Generated W.Suite.all))

let test_corpus_gen_deterministic () =
  let a = Core.Corpus_gen.generate ~anchors:2 ~icount:5_000 ~size:12 () in
  let b = Core.Corpus_gen.generate ~anchors:2 ~icount:5_000 ~size:12 () in
  Alcotest.(check int) "rows" 12 (Core.Dataset.rows a);
  Alcotest.(check int) "cols" 47 (Core.Dataset.cols a);
  Alcotest.(check (array string)) "names" a.Core.Dataset.names b.Core.Dataset.names;
  Alcotest.(check (array string)) "features" a.Core.Dataset.features b.Core.Dataset.features;
  check_matrix_bits "cell" a.Core.Dataset.data b.Core.Dataset.data;
  (* rows are labeled with corpus member ids in enumeration order *)
  Alcotest.(check string) "row 0 id"
    (W.Corpus.member_id W.Corpus.Analytics 0)
    a.Core.Dataset.names.(0)

(* ------------------------------------------------------------------ *)
(* ANN index                                                           *)

let corpus_colmat size =
  let ds = Core.Corpus_gen.generate ~anchors:2 ~icount:5_000 ~size () in
  S.Colmat.zscore (S.Colmat.of_matrix ds.Core.Dataset.data)

let test_ann_recall () =
  List.iter
    (fun n ->
      let cm = corpus_colmat n in
      let t = S.Ann.build cm in
      Alcotest.(check int) "size" n (S.Ann.size t);
      let k = 10 in
      let budget = max 32 (n / 4) in
      let recalls = ref [] in
      for q = 0 to 15 do
        let query = S.Colmat.row cm (q * n / 16) in
        let exact = S.Ann.exact_knn cm ~k query in
        let approx = S.Ann.knn ~budget t ~k query in
        recalls := S.Ann.recall ~exact ~approx :: !recalls;
        (* full-budget kNN degenerates to the exact scan *)
        let full = S.Ann.knn ~budget:n t ~k query in
        Array.iteri
          (fun i (e : S.Ann.neighbor) ->
            Alcotest.(check int) "full-budget index" e.S.Ann.index full.(i).S.Ann.index;
            Alcotest.(check int64) "full-budget distance" (bits e.S.Ann.distance)
              (bits full.(i).S.Ann.distance))
          exact
      done;
      let mean =
        List.fold_left ( +. ) 0.0 !recalls /. float_of_int (List.length !recalls)
      in
      if mean < Mica_verify.Approx.min_recall then
        Alcotest.failf "n=%d mean recall %.4f < %.2f" n mean Mica_verify.Approx.min_recall)
    [ 40; 150 ]

let test_ann_rebuild_deterministic () =
  let cm = corpus_colmat 90 in
  let t1 = S.Ann.build cm and t2 = S.Ann.build cm in
  Alcotest.(check int) "cells" (S.Ann.cell_count t1) (S.Ann.cell_count t2);
  for q = 0 to 8 do
    let query = S.Colmat.row cm (q * 10) in
    let a = S.Ann.knn t1 ~k:7 query and b = S.Ann.knn t2 ~k:7 query in
    Alcotest.(check int) "result size" (Array.length a) (Array.length b);
    Array.iteri
      (fun i (x : S.Ann.neighbor) ->
        Alcotest.(check int) "index" x.S.Ann.index b.(i).S.Ann.index;
        Alcotest.(check int64) "distance" (bits x.S.Ann.distance) (bits b.(i).S.Ann.distance))
      a
  done

let test_ann_budget_monotone () =
  let cm = corpus_colmat 120 in
  let t = S.Ann.build cm in
  let k = 8 in
  for q = 0 to 11 do
    let query = S.Colmat.row cm (q * 10) in
    let exact = S.Ann.exact_knn cm ~k query in
    let prev = ref (-1.0) in
    List.iter
      (fun budget ->
        let approx = S.Ann.knn ~budget t ~k query in
        let r = S.Ann.recall ~exact ~approx in
        if r < !prev then
          Alcotest.failf "query %d: recall dropped %.3f -> %.3f at budget %d" q !prev r budget;
        prev := r)
      [ k; 2 * k; 4 * k; 120 ]
  done

let test_ann_range_exact () =
  let cm = corpus_colmat 80 in
  let t = S.Ann.build cm in
  for q = 0 to 7 do
    let query = S.Colmat.row cm (q * 10) in
    let exact10 = S.Ann.exact_knn cm ~k:10 query in
    let radius = exact10.(Array.length exact10 - 1).S.Ann.distance in
    let exact = S.Ann.exact_range cm ~radius query in
    let got = S.Ann.range t ~radius query in
    Alcotest.(check int) "range count" (Array.length exact) (Array.length got);
    Array.iteri
      (fun i (e : S.Ann.neighbor) ->
        Alcotest.(check int) "range index" e.S.Ann.index got.(i).S.Ann.index;
        Alcotest.(check int64) "range distance" (bits e.S.Ann.distance)
          (bits got.(i).S.Ann.distance))
      exact
  done

(* ------------------------------------------------------------------ *)
(* Scalable subsetting                                                 *)

let test_k_center_scalable () =
  let ds = Core.Corpus_gen.generate ~anchors:2 ~icount:5_000 ~size:60 () in
  let space = Core.Space.of_dataset ds in
  let naive = Core.Subsetting.k_center space ~k:8 in
  let cm = S.Colmat.of_matrix space.Core.Space.normalized in
  (* seeded with the naive medoid the greedy selections coincide exactly *)
  let scalable = Core.Subsetting.k_center_scalable ~seed:naive.Core.Subsetting.chosen.(0) cm ~k:8 in
  Alcotest.(check (array int)) "chosen" naive.Core.Subsetting.chosen
    scalable.Core.Subsetting.chosen;
  Alcotest.(check (array int)) "representative_of" naive.Core.Subsetting.representative_of
    scalable.Core.Subsetting.representative_of;
  Alcotest.(check int64) "radius" (bits naive.Core.Subsetting.max_distance)
    (bits scalable.Core.Subsetting.max_distance);
  (* default centroid seed still yields a valid, covering selection *)
  let dflt = Core.Subsetting.k_center_scalable cm ~k:8 in
  Alcotest.(check int) "k chosen" 8 (Array.length dflt.Core.Subsetting.chosen);
  Alcotest.(check int) "distinct" 8
    (List.length (List.sort_uniq compare (Array.to_list dflt.Core.Subsetting.chosen)));
  Alcotest.(check bool) "radius finite" true (Float.is_finite dflt.Core.Subsetting.max_distance)

let suite =
  ( "scale",
    [
      Alcotest.test_case "store round trip" `Quick test_store_round_trip;
      Alcotest.test_case "store golden header" `Quick test_store_header_golden;
      Alcotest.test_case "store tamper and truncation" `Quick test_store_tamper;
      Alcotest.test_case "store degenerate shapes" `Quick test_store_degenerate;
      Alcotest.test_case "colmat round trip and accessors" `Quick test_colmat_round_trip;
      Alcotest.test_case "matrix column stats" `Quick test_matrix_column_stats;
      Alcotest.test_case "corpus ids and enumeration" `Quick test_corpus_ids;
      Alcotest.test_case "corpus generation deterministic" `Quick test_corpus_gen_deterministic;
      Alcotest.test_case "ann recall" `Quick test_ann_recall;
      Alcotest.test_case "ann rebuild deterministic" `Quick test_ann_rebuild_deterministic;
      Alcotest.test_case "ann budget monotone" `Quick test_ann_budget_monotone;
      Alcotest.test_case "ann range exact" `Quick test_ann_range_exact;
      Alcotest.test_case "k-center scalable" `Quick test_k_center_scalable;
    ] )
