module C = Mica_core
module S = Mica_stats
module W = Mica_workloads

let feq = Tutil.feq

(* ---------------- dataset ---------------- *)

let sample_dataset () =
  C.Dataset.create ~names:[| "a"; "b"; "c" |] ~features:[| "x"; "y" |]
    [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |]

let test_dataset_basics () =
  let ds = sample_dataset () in
  Alcotest.(check int) "rows" 3 (C.Dataset.rows ds);
  Alcotest.(check int) "cols" 2 (C.Dataset.cols ds);
  Alcotest.(check (option int)) "row index" (Some 1) (C.Dataset.row_index ds "b");
  Alcotest.(check (array feq)) "row_exn" [| 3.0; 4.0 |] (C.Dataset.row_exn ds "b")

let test_dataset_create_mismatch () =
  try
    ignore (C.Dataset.create ~names:[| "a" |] ~features:[| "x" |] [| [| 1.0 |]; [| 2.0 |] |]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_dataset_select () =
  let ds = sample_dataset () in
  let sub = C.Dataset.select_features ds [| 1 |] in
  Alcotest.(check (array string)) "feature kept" [| "y" |] sub.C.Dataset.features;
  Alcotest.check feq "value kept" 4.0 sub.C.Dataset.data.(1).(0)

let test_dataset_csv_roundtrip () =
  let ds = sample_dataset () in
  let path = Filename.temp_file "mica_ds" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      C.Dataset.to_csv ds path;
      let back = C.Dataset.of_csv path in
      Alcotest.(check (array string)) "names" ds.C.Dataset.names back.C.Dataset.names;
      Alcotest.(check (array string)) "features" ds.C.Dataset.features back.C.Dataset.features;
      Array.iteri
        (fun i row ->
          Array.iteri (fun j v -> Alcotest.check feq "value" v back.C.Dataset.data.(i).(j)) row)
        ds.C.Dataset.data)

(* A dataset CSV the CLI cannot write ([mica export], [mica corpus --csv])
   is one error line and exit 2, never an uncaught exception. *)
let test_dataset_csv_write_failure () =
  Tutil.with_temp_dir (fun dir ->
      let blocker = Filename.concat dir "file" in
      Mica_util.Artifact.write blocker "a regular file\n";
      List.iter
        (fun (what, args, path) ->
          let code, err = T_trace.run_mica (args @ [ "--no-run" ]) in
          Alcotest.(check int) (what ^ ": exit code; stderr: " ^ err) 2 code;
          match List.filter (String.starts_with ~prefix:"error:") (String.split_on_char '\n' err) with
          | [ line ] ->
            let prefix = Printf.sprintf "error: cannot write %s: " path in
            if not (String.starts_with ~prefix line) then Alcotest.failf "%s: %S" what line
          | lines -> Alcotest.failf "%s: %d error lines in %S" what (List.length lines) err)
        [
          ( "export",
            [ "export"; "--icount"; "2000"; "--no-cache"; "-o"; Filename.concat blocker "out" ],
            Filename.concat (Filename.concat blocker "out") "mica_dataset.csv" );
          ( "corpus --csv",
            [ "corpus"; "--size"; "16"; "--csv"; Filename.concat blocker "c.csv" ],
            Filename.concat blocker "c.csv" );
        ];
      Alcotest.(check (array string)) "nothing else written" [| "file" |] (Sys.readdir dir))

(* ---------------- space ---------------- *)

let test_space_distances () =
  let ds = sample_dataset () in
  let sp = C.Space.of_dataset ds in
  Alcotest.(check int) "n" 3 (C.Space.n sp);
  Alcotest.check feq "self distance" 0.0 (C.Space.distance sp 1 1);
  Alcotest.check feq "symmetric" (C.Space.distance sp 0 2) (C.Space.distance sp 2 0);
  Alcotest.check feq "by name matches by index" (C.Space.distance sp 0 1)
    (C.Space.distance_by_name sp "a" "b");
  (* rows are collinear and evenly spaced: d(a,c) = 2 d(a,b) *)
  Alcotest.check feq "collinear" (2.0 *. C.Space.distance sp 0 1) (C.Space.distance sp 0 2);
  Alcotest.check feq "max distance" (C.Space.distance sp 0 2) (C.Space.max_distance sp)

let test_space_nearest () =
  let ds = sample_dataset () in
  let sp = C.Space.of_dataset ds in
  match C.Space.nearest sp 0 ~k:2 with
  | [ (j1, d1); (j2, d2) ] ->
    Alcotest.(check int) "nearest is b" 1 j1;
    Alcotest.(check int) "then c" 2 j2;
    Alcotest.(check bool) "sorted" true (d1 <= d2)
  | _ -> Alcotest.fail "expected two neighbours"

let test_space_place () =
  let ds = sample_dataset () in
  let sp = C.Space.of_dataset ds in
  (* placing an existing observation reproduces its normalized row *)
  let z = C.Space.place sp [| 3.0; 4.0 |] in
  Alcotest.(check (array feq)) "place matches" sp.C.Space.normalized.(1) z;
  let d = C.Space.distances_from sp [| 3.0; 4.0 |] in
  Alcotest.check feq "distance to itself" 0.0 d.(1)

(* ---------------- classify ---------------- *)

let test_classify_quadrants () =
  (* hpc max 10 -> threshold 2; mica max 100 -> threshold 20 *)
  let hpc = [| 1.0; 3.0; 1.0; 10.0 |] in
  let mica = [| 10.0; 30.0; 50.0; 100.0 |] in
  let c = C.Classify.classify ~hpc_distances:hpc ~mica_distances:mica () in
  Alcotest.(check int) "tn" 1 c.C.Classify.true_neg;
  Alcotest.(check int) "tp" 2 c.C.Classify.true_pos;
  Alcotest.(check int) "fp" 1 c.C.Classify.false_pos;
  Alcotest.(check int) "fn" 0 c.C.Classify.false_neg;
  let f = C.Classify.fractions c in
  Alcotest.check feq "fractions sum to 1" 1.0
    (f.C.Classify.f_true_pos +. f.C.Classify.f_true_neg +. f.C.Classify.f_false_pos
    +. f.C.Classify.f_false_neg)

let test_classify_threshold_sensitivity () =
  let hpc = [| 1.0; 10.0 |] and mica = [| 1.0; 10.0 |] in
  let strict = C.Classify.classify ~hpc_distances:hpc ~mica_distances:mica ~frac:0.9 () in
  Alcotest.(check int) "high threshold: one large pair" 1 strict.C.Classify.true_pos;
  Alcotest.(check int) "and one small pair" 1 strict.C.Classify.true_neg

let test_classify_errors () =
  (try
     ignore (C.Classify.classify ~hpc_distances:[| 1.0 |] ~mica_distances:[||] ());
     Alcotest.fail "length mismatch accepted"
   with Invalid_argument _ -> ());
  try
    ignore (C.Classify.classify ~hpc_distances:[||] ~mica_distances:[||] ());
    Alcotest.fail "empty accepted"
  with Invalid_argument _ -> ()

(* ---------------- case study ---------------- *)

let test_case_study_normalization () =
  let ds = sample_dataset () in
  let cmp = C.Case_study.compare_in ds ~a:"a" ~b:"c" in
  (* max of column x is 5: a=0.2, c=1.0 *)
  Alcotest.check feq "a normalized" 0.2 cmp.C.Case_study.a.(0);
  Alcotest.check feq "c normalized" 1.0 cmp.C.Case_study.b.(0)

let test_case_study_render () =
  let ds = sample_dataset () in
  let cmp = C.Case_study.compare_in ds ~a:"a" ~b:"b" in
  let s = C.Case_study.render cmp in
  Alcotest.(check bool) "mentions features" true (String.length s > 10)

let test_case_study_unknown () =
  let ds = sample_dataset () in
  try
    ignore (C.Case_study.compare_in ds ~a:"nope" ~b:"a");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ---------------- clustering ---------------- *)

let blob_dataset () =
  let rng = Mica_util.Rng.create ~seed:55L in
  let data =
    Array.init 30 (fun i ->
        let c = if i < 15 then 0.0 else 8.0 in
        [|
          c +. Mica_util.Rng.gaussian rng ~mu:0.0 ~sigma:0.2;
          c +. Mica_util.Rng.gaussian rng ~mu:0.0 ~sigma:0.2;
        |])
  in
  C.Dataset.create
    ~names:(Array.init 30 (Printf.sprintf "w%d"))
    ~features:[| "f1"; "f2" |] data

let test_clustering_two_blobs () =
  let ds = blob_dataset () in
  let c = C.Clustering.cluster ~k_max:6 ds in
  Alcotest.(check int) "two clusters found" 2 c.C.Clustering.k;
  let a = c.C.Clustering.assignments in
  for i = 1 to 14 do
    Alcotest.(check int) "first blob intact" a.(0) a.(i)
  done;
  let sorted = C.Clustering.sorted_clusters c in
  Alcotest.(check int) "partition" 30
    (List.fold_left (fun acc (_, m) -> acc + Array.length m) 0 sorted)

let test_clustering_members () =
  let ds = blob_dataset () in
  let c = C.Clustering.cluster ~k_max:4 ds in
  let all = List.concat_map (fun (cid, _) -> Array.to_list (C.Clustering.members c cid))
      (C.Clustering.sorted_clusters c) in
  Alcotest.(check int) "members cover dataset" 30 (List.length (List.sort_uniq compare all))

(* ---------------- kiviat ---------------- *)

let test_kiviat_text () =
  let s = C.Kiviat.text ~axes:[| "a"; "b" |] ~values:[| 0.0; 1.0 |] in
  Alcotest.(check bool) "two lines" true
    (List.length (String.split_on_char '\n' (String.trim s)) = 2)

let test_kiviat_compact () =
  let s = C.Kiviat.text_compact ~values:[| 0.0; 0.5; 1.0 |] in
  Alcotest.(check bool) "non-empty" true (String.length s > 0)

let test_kiviat_svg () =
  let plots =
    [
      { C.Kiviat.p_label = "w1"; p_values = [| 0.5; 0.5; 0.5 |]; p_cluster = 0 };
      { C.Kiviat.p_label = "w2"; p_values = [| 1.0; 0.0; 1.0 |]; p_cluster = 1 };
    ]
  in
  let svg = C.Kiviat.svg_grid ~title:"t" ~axes:[| "a"; "b"; "c" |] plots in
  let contains needle =
    let n = String.length needle and h = String.length svg in
    let rec go i = i + n <= h && (String.sub svg i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "svg root" true (contains "<svg");
  Alcotest.(check bool) "polygons drawn" true (contains "<polygon");
  Alcotest.(check bool) "cluster headers" true (contains "Cluster 2");
  Alcotest.(check bool) "closed" true (contains "</svg>")

let test_kiviat_svg_escapes () =
  let plots = [ { C.Kiviat.p_label = "a<b&c"; p_values = [| 0.5 |]; p_cluster = 0 } ] in
  let svg = C.Kiviat.svg_grid ~title:"x\"y" ~axes:[| "a" |] plots in
  let contains needle =
    let n = String.length needle and h = String.length svg in
    let rec go i = i + n <= h && (String.sub svg i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "label escaped" true (contains "a&lt;b&amp;c");
  Alcotest.(check bool) "title escaped" true (contains "x&quot;y")

let test_kiviat_text_golden () =
  (* exact output pins the bar geometry and the value formatting; note the
     bar clamps to [0,1] while the printed number stays raw *)
  Alcotest.(check string) "golden"
    "  ilp        |#####...............| 0.250\n\
    \  mem        |####################| 1.500\n"
    (C.Kiviat.text ~axes:[| "ilp"; "mem" |] ~values:[| 0.25; 1.5 |])

let test_kiviat_compact_golden () =
  (* one glyph per axis; out-of-range values clamp to the end blocks *)
  Alcotest.(check string) "golden" " \xe2\x96\x84\xe2\x96\x88 \xe2\x96\x88"
    (C.Kiviat.text_compact ~values:[| 0.0; 0.5; 1.0; -3.0; 2.0 |]);
  Alcotest.(check string) "empty axes" "" (C.Kiviat.text_compact ~values:[||])

let test_kiviat_svg_empty_and_single () =
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (* empty plot list: a valid, closed document with the title and nothing else *)
  let empty = C.Kiviat.svg_grid ~title:"none" ~axes:[| "a" |] [] in
  Alcotest.(check bool) "empty has root" true (contains empty "<svg");
  Alcotest.(check bool) "empty closed" true (contains empty "</svg>");
  Alcotest.(check bool) "empty has no polygons" false (contains empty "<polygon");
  (* a single plot gets its cluster header and exactly one polygon *)
  let one =
    C.Kiviat.svg_grid ~title:"one" ~axes:[| "a"; "b"; "c" |]
      [ { C.Kiviat.p_label = "only"; p_values = [| 0.2; 0.9; 0.4 |]; p_cluster = 0 } ]
  in
  Alcotest.(check bool) "header for cluster 1" true (contains one "Cluster 1");
  let count needle hay =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length hay then acc
      else go (i + 1) (if String.sub hay i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "one polygon" 1 (count "<polygon" one);
  Alcotest.(check bool) "label drawn" true (contains one ">only</text>")

let test_kiviat_write_svg_roundtrip () =
  let path = Filename.temp_file "t_core_kiviat" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let plots = [ { C.Kiviat.p_label = "w"; p_values = [| 0.5; 0.5 |]; p_cluster = 0 } ] in
      C.Kiviat.write_svg ~path ~title:"t" ~axes:[| "a"; "b" |] plots;
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "file is exactly the rendered grid"
        (C.Kiviat.svg_grid ~title:"t" ~axes:[| "a"; "b" |] plots)
        contents)

(* ---------------- svg_plot ---------------- *)

let svg_contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let svg_count needle hay =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else go (i + 1) (if String.sub hay i n = needle then acc + 1 else acc)
  in
  go 0 0

let two_series () =
  [
    { C.Svg_plot.label = "mica"; points = [| (0.0, 0.0); (1.0, 2.0); (2.0, 1.0) |];
      color = C.Svg_plot.default_colors.(0) };
    { C.Svg_plot.label = "hpc & co"; points = [| (0.5, 1.5) |];
      color = C.Svg_plot.default_colors.(1) };
  ]

let test_svg_plot_scatter () =
  let svg =
    C.Svg_plot.scatter ~title:"Fig 1 <demo>" ~x_label:"rank" ~y_label:"distance" (two_series ())
  in
  Alcotest.(check bool) "root element" true (svg_contains svg "<svg");
  Alcotest.(check bool) "closed" true (svg_contains svg "</svg>");
  Alcotest.(check int) "one dot per point" 4 (svg_count "<circle" svg);
  Alcotest.(check bool) "title escaped" true (svg_contains svg "Fig 1 &lt;demo&gt;");
  Alcotest.(check bool) "legend escaped" true (svg_contains svg "hpc &amp; co");
  Alcotest.(check bool) "x label" true (svg_contains svg ">rank</text>");
  Alcotest.(check bool) "y label" true (svg_contains svg ">distance</text>");
  Alcotest.(check int) "legend swatch per series" 2 (svg_count "<rect" svg);
  Alcotest.(check bool) "no NaN coordinates" false (svg_contains svg "nan")

let test_svg_plot_lines () =
  let svg = C.Svg_plot.lines ~title:"sweep" ~x_label:"k" ~y_label:"rho" (two_series ()) in
  Alcotest.(check int) "one polyline per non-empty series" 2 (svg_count "<polyline" svg);
  (* an empty series contributes a legend entry but no geometry *)
  let with_empty =
    C.Svg_plot.lines ~title:"sweep" ~x_label:"k" ~y_label:"rho"
      (two_series () @ [ { C.Svg_plot.label = "void"; points = [||]; color = "#000" } ])
  in
  Alcotest.(check int) "empty series draws nothing" 2 (svg_count "<polyline" with_empty);
  Alcotest.(check int) "but is in the legend" 3 (svg_count "<rect" with_empty)

let test_svg_plot_degenerate_extents () =
  (* all points identical: both ranges are zero-width and must be widened,
     not divided through — the output carries no nan/inf anywhere *)
  let svg =
    C.Svg_plot.scatter ~title:"dup" ~x_label:"x" ~y_label:"y"
      [ { C.Svg_plot.label = "s"; points = [| (3.0, 7.0); (3.0, 7.0); (3.0, 7.0) |];
          color = "#123456" } ]
  in
  Alcotest.(check int) "duplicate points all drawn" 3 (svg_count "<circle" svg);
  Alcotest.(check bool) "no nan" false (svg_contains svg "nan");
  Alcotest.(check bool) "no inf" false (svg_contains svg "inf");
  (* empty dataset: no series at all still renders a valid document on the
     default [0,1] extents *)
  let empty = C.Svg_plot.lines ~title:"empty" ~x_label:"x" ~y_label:"y" [] in
  Alcotest.(check bool) "empty renders" true (svg_contains empty "</svg>");
  Alcotest.(check int) "no geometry" 0 (svg_count "<polyline" empty);
  Alcotest.(check bool) "empty has no nan" false (svg_contains empty "nan")

let test_svg_plot_write_roundtrip () =
  let path = Filename.temp_file "t_core_svg" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let svg = C.Svg_plot.scatter ~title:"w" ~x_label:"x" ~y_label:"y" (two_series ()) in
      C.Svg_plot.write ~path svg;
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "file holds the document byte-for-byte" svg contents)

(* ---------------- pipeline ---------------- *)

let small_config dir =
  { C.Pipeline.default_config with C.Pipeline.icount = 3_000; cache_dir = dir }

let test_pipeline_characterize () =
  let w = W.Registry.find_exn "MiBench/sha/large" in
  let mica, hpc = C.Pipeline.characterize (small_config None) w in
  Alcotest.(check int) "47 chars" 47 (Array.length mica);
  Alcotest.(check int) "7 counters" 7 (Array.length hpc)

let test_pipeline_datasets_shape () =
  let ws = [ W.Registry.find_exn "MiBench/sha/large"; W.Registry.find_exn "SPEC2000/mcf/ref" ] in
  let mica, hpc = C.Pipeline.datasets ~config:(small_config None) ws in
  Alcotest.(check int) "2 rows" 2 (C.Dataset.rows mica);
  Alcotest.(check int) "47 cols" 47 (C.Dataset.cols mica);
  Alcotest.(check int) "7 cols" 7 (C.Dataset.cols hpc);
  Alcotest.(check string) "row order preserved" "MiBench/sha/large" mica.C.Dataset.names.(0)

let test_pipeline_cache_roundtrip () =
  Tutil.with_temp_dir @@ fun tmp ->
  let dir = Filename.concat tmp "cache" in
  let config = small_config (Some dir) in
  let ws = [ W.Registry.find_exn "MiBench/sha/large" ] in
  let mica1, _ = C.Pipeline.datasets ~config ws in
  (* second load must come from cache and be identical *)
  let mica2, _ = C.Pipeline.datasets ~config ws in
  Alcotest.(check bool) "cached results identical" true
    (mica1.C.Dataset.data = mica2.C.Dataset.data);
  Alcotest.(check bool) "cache file exists" true
    (Sys.file_exists (Filename.concat dir (Printf.sprintf "mica-%s-3000.csv" C.Pipeline.model_version)))

let test_pipeline_parallel_matches_serial () =
  let ws =
    [
      W.Registry.find_exn "MiBench/sha/large"; W.Registry.find_exn "SPEC2000/mcf/ref";
      W.Registry.find_exn "CommBench/tcp/tcp"; W.Registry.find_exn "SPEC2000/swim/ref";
    ]
  in
  let serial = { (small_config None) with C.Pipeline.jobs = 1 } in
  let parallel = { (small_config None) with C.Pipeline.jobs = 3 } in
  let m1, h1 = C.Pipeline.datasets ~config:serial ws in
  let m2, h2 = C.Pipeline.datasets ~config:parallel ws in
  Alcotest.(check bool) "MICA identical across domain counts" true
    (m1.C.Dataset.data = m2.C.Dataset.data);
  Alcotest.(check bool) "HPC identical across domain counts" true
    (h1.C.Dataset.data = h2.C.Dataset.data);
  Alcotest.(check (array string)) "row order preserved" m1.C.Dataset.names m2.C.Dataset.names

let test_pipeline_deterministic () =
  let w = W.Registry.find_exn "CommBench/tcp/tcp" in
  let a, ha = C.Pipeline.characterize (small_config None) w in
  let b, hb = C.Pipeline.characterize (small_config None) w in
  Alcotest.(check bool) "MICA deterministic" true (a = b);
  Alcotest.(check bool) "HPC deterministic" true (ha = hb)

(* ---------------- experiments on a reduced context ---------------- *)

let mini_context () =
  let names =
    [
      "MiBench/sha/large"; "MiBench/adpcm/rawcaudio"; "SPEC2000/mcf/ref";
      "SPEC2000/swim/ref"; "SPEC2000/gcc/166"; "BioInfoMark/blast/protein";
      "CommBench/rtr/rtr"; "MediaBench/g721/decode"; "SPEC2000/bzip2/graphic";
      "MiBench/qsort/large";
    ]
  in
  C.Experiments.Context.load
    ~config:{ C.Pipeline.default_config with C.Pipeline.icount = 3_000; cache_dir = None }
    ~workloads:(List.map W.Registry.find_exn names) ()

let test_experiments_fig1_table3 () =
  let ctx = mini_context () in
  let f1 = C.Experiments.fig1 ctx in
  Alcotest.(check int) "45 pairs" 45 (Array.length f1.C.Experiments.points);
  Alcotest.(check bool) "correlation in [-1,1]" true
    (f1.C.Experiments.correlation >= -1.0 && f1.C.Experiments.correlation <= 1.0);
  let counts = C.Experiments.table3 ctx in
  Alcotest.(check int) "quadrants partition pairs" 45
    (counts.C.Classify.true_pos + counts.C.Classify.true_neg + counts.C.Classify.false_pos
    + counts.C.Classify.false_neg)

let test_experiments_selection_and_roc () =
  let ctx = mini_context () in
  let ga_config =
    { Mica_select.Genetic.default_config with
      Mica_select.Genetic.population = 16; max_generations = 30; stall_generations = 10 }
  in
  let ga = C.Experiments.run_ga ~config:ga_config ctx in
  Alcotest.(check bool) "ga selected something" true
    (Array.length ga.Mica_select.Genetic.selected > 0);
  let ce = C.Experiments.run_ce ctx in
  Alcotest.(check int) "ce runs to 1" 46 (List.length ce);
  let entries = C.Experiments.fig4 ctx ~ga ~ce in
  List.iter
    (fun (e : C.Experiments.roc_entry) ->
      let auc = e.C.Experiments.curve.S.Roc.auc in
      if auc < 0.0 || auc > 1.0 then Alcotest.failf "AUC %f out of range" auc)
    entries;
  let f5 = C.Experiments.fig5 ctx ~ga in
  Array.iter
    (fun (_, rho) ->
      if rho < -1.0 || rho > 1.0 then Alcotest.fail "rho out of range")
    f5.C.Experiments.ce_points

let test_experiments_fig6 () =
  let ctx = mini_context () in
  let f6 = C.Experiments.fig6 ~k_max:6 ctx ~selected:[| 0; 6; 19; 43 |] in
  Alcotest.(check int) "plot per workload" 10 (List.length f6.C.Experiments.plots);
  Alcotest.(check int) "axes match selection" 4 (Array.length f6.C.Experiments.axes);
  List.iter
    (fun (p : C.Kiviat.plot) ->
      Array.iter
        (fun v -> if v < 0.0 || v > 1.0 then Alcotest.fail "kiviat value out of unit range")
        p.C.Kiviat.p_values)
    f6.C.Experiments.plots

let test_experiments_renderers () =
  Alcotest.(check bool) "table1 text" true (String.length (C.Experiments.render_table1 ()) > 1000);
  Alcotest.(check bool) "table2 text" true (String.length (C.Experiments.render_table2 ()) > 500)

let suite =
  ( "core",
    [
      Alcotest.test_case "dataset basics" `Quick test_dataset_basics;
      Alcotest.test_case "dataset mismatch" `Quick test_dataset_create_mismatch;
      Alcotest.test_case "dataset select" `Quick test_dataset_select;
      Alcotest.test_case "dataset csv roundtrip" `Quick test_dataset_csv_roundtrip;
      Alcotest.test_case "dataset csv write failure" `Quick test_dataset_csv_write_failure;
      Alcotest.test_case "space distances" `Quick test_space_distances;
      Alcotest.test_case "space nearest" `Quick test_space_nearest;
      Alcotest.test_case "space place" `Quick test_space_place;
      Alcotest.test_case "classify quadrants" `Quick test_classify_quadrants;
      Alcotest.test_case "classify threshold" `Quick test_classify_threshold_sensitivity;
      Alcotest.test_case "classify errors" `Quick test_classify_errors;
      Alcotest.test_case "case study normalization" `Quick test_case_study_normalization;
      Alcotest.test_case "case study render" `Quick test_case_study_render;
      Alcotest.test_case "case study unknown" `Quick test_case_study_unknown;
      Alcotest.test_case "clustering two blobs" `Quick test_clustering_two_blobs;
      Alcotest.test_case "clustering members" `Quick test_clustering_members;
      Alcotest.test_case "kiviat text" `Quick test_kiviat_text;
      Alcotest.test_case "kiviat compact" `Quick test_kiviat_compact;
      Alcotest.test_case "kiviat svg" `Quick test_kiviat_svg;
      Alcotest.test_case "kiviat svg escapes" `Quick test_kiviat_svg_escapes;
      Alcotest.test_case "kiviat text golden" `Quick test_kiviat_text_golden;
      Alcotest.test_case "kiviat compact golden" `Quick test_kiviat_compact_golden;
      Alcotest.test_case "kiviat svg empty/single" `Quick test_kiviat_svg_empty_and_single;
      Alcotest.test_case "kiviat write_svg roundtrip" `Quick test_kiviat_write_svg_roundtrip;
      Alcotest.test_case "svg_plot scatter" `Quick test_svg_plot_scatter;
      Alcotest.test_case "svg_plot lines" `Quick test_svg_plot_lines;
      Alcotest.test_case "svg_plot degenerate extents" `Quick test_svg_plot_degenerate_extents;
      Alcotest.test_case "svg_plot write roundtrip" `Quick test_svg_plot_write_roundtrip;
      Alcotest.test_case "pipeline characterize" `Quick test_pipeline_characterize;
      Alcotest.test_case "pipeline datasets" `Quick test_pipeline_datasets_shape;
      Alcotest.test_case "pipeline cache" `Quick test_pipeline_cache_roundtrip;
      Alcotest.test_case "pipeline deterministic" `Quick test_pipeline_deterministic;
      Alcotest.test_case "pipeline parallel = serial" `Quick
        test_pipeline_parallel_matches_serial;
      Alcotest.test_case "experiments fig1/table3" `Slow test_experiments_fig1_table3;
      Alcotest.test_case "experiments selection/roc" `Slow test_experiments_selection_and_roc;
      Alcotest.test_case "experiments fig6" `Slow test_experiments_fig6;
      Alcotest.test_case "experiments renderers" `Quick test_experiments_renderers;
    ] )
