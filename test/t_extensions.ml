(* Tests for the extension modules: hierarchical clustering, dendrograms,
   BBV phase analysis, workload spec files, and the PCA comparison. *)

module S = Mica_stats
module C = Mica_core
module W = Mica_workloads
module A = Mica_analysis
module Rng = Mica_util.Rng

let feq = Tutil.feq

(* ---------------- linkage ---------------- *)

let two_blob_matrix () =
  let rng = Rng.create ~seed:21L in
  Array.init 12 (fun i ->
      let c = if i < 6 then 0.0 else 10.0 in
      [| c +. Rng.gaussian rng ~mu:0.0 ~sigma:0.1 |])

let test_linkage_structure () =
  let m = two_blob_matrix () in
  let tree = S.Linkage.cluster m in
  Alcotest.(check int) "all leaves" 12 (S.Linkage.size tree);
  (* the root merge joins the two blobs: its height is about 10 *)
  Alcotest.(check bool) "root height separates blobs" true (S.Linkage.height tree > 5.0)

let test_linkage_cut () =
  let m = two_blob_matrix () in
  let tree = S.Linkage.cluster m in
  let assignments = S.Linkage.cut tree ~k:2 in
  for i = 1 to 5 do
    Alcotest.(check int) "first blob together" assignments.(0) assignments.(i)
  done;
  for i = 7 to 11 do
    Alcotest.(check int) "second blob together" assignments.(6) assignments.(i)
  done;
  Alcotest.(check bool) "blobs apart" true (assignments.(0) <> assignments.(6));
  let all = S.Linkage.cut tree ~k:12 in
  Alcotest.(check int) "k=n gives singletons" 12
    (List.length (List.sort_uniq compare (Array.to_list all)))

let test_linkage_singleton () =
  let tree = S.Linkage.cluster [| [| 1.0 |] |] in
  Alcotest.(check int) "single row" 1 (S.Linkage.size tree);
  Alcotest.check feq "leaf height" 0.0 (S.Linkage.height tree)

let test_linkage_methods_differ () =
  let rng = Rng.create ~seed:23L in
  let m = Array.init 20 (fun _ -> [| Rng.float rng 10.0; Rng.float rng 10.0 |]) in
  let single = S.Linkage.cluster ~linkage:S.Linkage.Single m in
  let complete = S.Linkage.cluster ~linkage:S.Linkage.Complete m in
  (* complete linkage roots at least as high as single linkage *)
  Alcotest.(check bool) "complete >= single at the root" true
    (S.Linkage.height complete >= S.Linkage.height single)

(* ---------------- dendrogram ---------------- *)

let small_dataset () =
  C.Dataset.create
    ~names:[| "near1"; "near2"; "far" |]
    ~features:[| "x" |]
    [| [| 0.0 |]; [| 0.1 |]; [| 10.0 |] |]

let test_dendrogram_render () =
  let d = C.Dendrogram.build (small_dataset ()) in
  let s = C.Dendrogram.render d in
  List.iter
    (fun name ->
      let contains =
        let n = String.length name and h = String.length s in
        let rec go i = i + n <= h && (String.sub s i n = name || go (i + 1)) in
        go 0
      in
      if not contains then Alcotest.failf "dendrogram missing %s" name)
    [ "near1"; "near2"; "far" ]

let test_dendrogram_clusters_at () =
  let d = C.Dendrogram.build (small_dataset ()) in
  let clusters = C.Dendrogram.clusters_at d ~k:2 in
  Alcotest.(check int) "two clusters" 2 (List.length clusters);
  let sizes = List.sort compare (List.map (fun (_, m) -> Array.length m) clusters) in
  Alcotest.(check (list int)) "2+1 split" [ 1; 2 ] sizes;
  (* the pair cluster holds the two near points *)
  let pair = List.find (fun (_, m) -> Array.length m = 2) clusters in
  let members = List.sort compare (Array.to_list (snd pair)) in
  Alcotest.(check (list string)) "near points together" [ "near1"; "near2" ] members

let test_dendrogram_max_depth () =
  let d = C.Dendrogram.build (small_dataset ()) in
  let s = C.Dendrogram.render ~max_depth:0 d in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "summarized" true (contains "benchmarks")

let test_dendrogram_single_benchmark () =
  let ds =
    C.Dataset.create ~names:[| "lone" |] ~features:[| "x"; "y" |] [| [| 1.0; 2.0 |] |]
  in
  let d = C.Dendrogram.build ds in
  (match d.C.Dendrogram.tree with
  | S.Linkage.Leaf _ -> ()
  | S.Linkage.Node _ -> Alcotest.fail "a merge for one benchmark");
  let s = C.Dendrogram.render d in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "leaf named" true (contains "lone");
  match C.Dendrogram.clusters_at d ~k:1 with
  | [ (_, members) ] ->
    Alcotest.(check (array string)) "single singleton cluster" [| "lone" |] members
  | other -> Alcotest.failf "expected one cluster, got %d" (List.length other)

let test_dendrogram_duplicate_points () =
  (* two identical benchmarks: their distance is exactly zero, so the first
     merge happens at height 0 and they stay inseparable at any cut *)
  let ds =
    C.Dataset.create
      ~names:[| "twin1"; "twin2"; "far" |]
      ~features:[| "x" |]
      [| [| 1.0 |]; [| 1.0 |]; [| 9.0 |] |]
  in
  let d = C.Dendrogram.build ds in
  (match d.C.Dendrogram.tree with
  | S.Linkage.Node { left; right; size; _ } ->
    Alcotest.(check int) "three leaves, two merges" 3 size;
    Alcotest.check Tutil.feq "duplicates merge at height 0" 0.0
      (Float.max (S.Linkage.height left) (S.Linkage.height right))
  | S.Linkage.Leaf _ -> Alcotest.fail "three benchmarks in one leaf");
  let pair =
    List.find (fun (_, m) -> Array.length m = 2) (C.Dendrogram.clusters_at d ~k:2)
  in
  Alcotest.(check (list string)) "twins inseparable" [ "twin1"; "twin2" ]
    (List.sort compare (Array.to_list (snd pair)))

let test_dendrogram_empty_dataset () =
  match
    C.Dendrogram.build (C.Dataset.create ~names:[||] ~features:[| "x" |] [||])
  with
  | (_ : C.Dendrogram.t) -> Alcotest.fail "empty dataset accepted"
  | exception Invalid_argument _ -> ()

(* ---------------- bbv ---------------- *)

let test_bbv_intervals () =
  let bbv = A.Bbv.create ~interval:1_000 () in
  let p = Tutil.tiny_program "bbv-intervals" in
  let (_ : int) = Mica_trace.Generator.run p ~icount:10_000 ~sink:(A.Bbv.sink bbv) in
  Alcotest.(check int) "10 intervals" 10 (Array.length (A.Bbv.matrix bbv))

let test_bbv_rows_normalized () =
  let bbv = A.Bbv.create ~interval:1_000 () in
  let p = Tutil.tiny_program "bbv-norm" in
  let (_ : int) = Mica_trace.Generator.run p ~icount:5_000 ~sink:(A.Bbv.sink bbv) in
  let m = A.Bbv.matrix bbv in
  Array.iter
    (fun row ->
      let sum = Array.fold_left ( +. ) 0.0 row in
      Alcotest.check Tutil.feq_loose "row sums to 1" 1.0 sum)
    m

let test_bbv_projection_dims () =
  let bbv = A.Bbv.create ~interval:1_000 () in
  let p = Tutil.tiny_program "bbv-proj" in
  let (_ : int) = Mica_trace.Generator.run p ~icount:5_000 ~sink:(A.Bbv.sink bbv) in
  let proj = A.Bbv.projected ~dims:7 bbv in
  Alcotest.(check int) "rows preserved" (Array.length (A.Bbv.matrix bbv)) (Array.length proj);
  Array.iter (fun row -> Alcotest.(check int) "7 dims" 7 (Array.length row)) proj

let test_bbv_projection_preserves_similarity () =
  (* identical rows project identically; different rows stay apart *)
  let bbv = A.Bbv.create ~interval:1_000 () in
  let p = Tutil.tiny_program "bbv-sim" in
  let (_ : int) = Mica_trace.Generator.run p ~icount:8_000 ~sink:(A.Bbv.sink bbv) in
  let m = A.Bbv.matrix bbv and proj = A.Bbv.projected bbv in
  let n = Array.length m in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let dm = S.Distance.euclidean m.(i) m.(j) in
      let dp = S.Distance.euclidean proj.(i) proj.(j) in
      if dm < 1e-12 && dp > 1e-9 then Alcotest.fail "identical rows projected apart"
    done
  done

let test_bbv_invalid_interval () =
  try
    ignore (A.Bbv.create ~interval:0 ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ---------------- phases ---------------- *)

let test_phases_steady_state_single_phase () =
  let p = Tutil.tiny_program "phases-steady" in
  let t = C.Phases.analyze p ~icount:100_000 in
  Alcotest.(check int) "steady-state program has one phase" 1 t.C.Phases.k

let test_phases_two_phase_program () =
  (* two very different kernels in alternating phases *)
  let k1 =
    { Mica_trace.Kernel.default with Mica_trace.Kernel.name = "ph-int" }
  in
  let k2 =
    {
      Mica_trace.Kernel.default with
      Mica_trace.Kernel.name = "ph-fp";
      mix = { Mica_trace.Kernel.default.Mica_trace.Kernel.mix with Mica_trace.Kernel.fp = 0.4; load = 0.2 };
      body_slots = 48;
    }
  in
  let p =
    Mica_trace.Program.make ~name:"phases-two"
      [
        { Mica_trace.Program.ph_name = "a"; ph_kernels = [ (1.0, k1) ]; ph_length = 20_000 };
        { Mica_trace.Program.ph_name = "b"; ph_kernels = [ (1.0, k2) ]; ph_length = 20_000 };
      ]
  in
  let t = C.Phases.analyze ~interval:5_000 p ~icount:200_000 in
  Alcotest.(check bool) "at least two phases found" true (t.C.Phases.k >= 2);
  (* weights sum to one; representatives valid *)
  Alcotest.check Tutil.feq_loose "weights sum to 1" 1.0
    (Array.fold_left ( +. ) 0.0 t.C.Phases.weights);
  Array.iter
    (fun r ->
      if r < 0 || r >= Array.length t.C.Phases.assignments then
        Alcotest.fail "representative out of range")
    t.C.Phases.representatives

let test_phases_timeline () =
  let p = Tutil.tiny_program "phases-timeline" in
  let t = C.Phases.analyze ~interval:5_000 p ~icount:50_000 in
  Alcotest.(check int) "timeline length = intervals" (Array.length t.C.Phases.assignments)
    (String.length (C.Phases.timeline t))

(* ---------------- spec files ---------------- *)

let test_spec_example_parses () =
  match W.Spec_file.parse W.Spec_file.example with
  | Ok program ->
    Alcotest.(check string) "name" "hash-join" program.Mica_trace.Program.name;
    Alcotest.(check int64) "seed" 7L program.Mica_trace.Program.seed;
    Alcotest.(check int) "one phase" 1 (List.length program.Mica_trace.Program.phases);
    Alcotest.(check int) "two kernels" 2
      (List.length (Mica_trace.Program.kernels program))
  | Error msg -> Alcotest.failf "example spec rejected: %s" msg

let test_spec_example_generates () =
  match W.Spec_file.parse W.Spec_file.example with
  | Ok program ->
    let sink, read = Mica_trace.Sink.counter () in
    let (_ : int) = Mica_trace.Generator.run program ~icount:2_000 ~sink in
    Alcotest.(check int) "trace produced" 2_000 (read ())
  | Error msg -> Alcotest.failf "example spec rejected: %s" msg

let test_spec_kernel_fields () =
  let spec = {|
name fields
[kernel k 1.0]
body 40
mix 0.2 0.1 0.05 0.02 0.1
data_kb 512
trip 99
dep_p 0.3
carried 0.2
imm 0.5
fp_mul 0.6
fp_div 0.1
loads chase:1.0
branches history:4:1.0
|} in
  match W.Spec_file.parse spec with
  | Ok program -> (
    match Mica_trace.Program.kernels program with
    | [ k ] ->
      Alcotest.(check int) "body" 40 k.Mica_trace.Kernel.body_slots;
      Alcotest.(check int) "data" (512 * 1024) k.Mica_trace.Kernel.data_bytes;
      Alcotest.(check int) "trip" 99 k.Mica_trace.Kernel.trip_count;
      Alcotest.check feq "load mix" 0.2 k.Mica_trace.Kernel.mix.Mica_trace.Kernel.load;
      Alcotest.check feq "carried" 0.2 k.Mica_trace.Kernel.loop_carried_frac;
      Alcotest.(check int) "one load pattern" 1
        (List.length k.Mica_trace.Kernel.load_patterns);
      (match k.Mica_trace.Kernel.load_patterns with
      | [ (_, Mica_trace.Kernel.Chase) ] -> ()
      | _ -> Alcotest.fail "expected chase pattern");
      (match k.Mica_trace.Kernel.branch_kinds with
      | [ (_, Mica_trace.Kernel.History { depth = 4 }) ] -> ()
      | _ -> Alcotest.fail "expected history branch kind")
    | ks -> Alcotest.failf "expected one kernel, got %d" (List.length ks))
  | Error msg -> Alcotest.failf "spec rejected: %s" msg

let expect_error spec fragment =
  match W.Spec_file.parse spec with
  | Ok _ -> Alcotest.failf "spec unexpectedly accepted (wanted error about %s)" fragment
  | Error msg ->
    let contains =
      let n = String.length fragment and h = String.length msg in
      let rec go i = i + n <= h && (String.sub msg i n = fragment || go (i + 1)) in
      go 0
    in
    if not contains then Alcotest.failf "error %S does not mention %S" msg fragment

let test_spec_errors () =
  expect_error "bogus directive" "unknown directive";
  expect_error "[kernel k 1.0]\nbody abc" "integer";
  expect_error "[kernel k 1.0]\nloads nope:1" "memory pattern";
  expect_error "[kernel k 1.0]\nbranches what:1" "branch kind";
  expect_error "body 10" "outside a [kernel";
  expect_error "" "no kernels";
  expect_error "[kernel k 0]\n" "positive";
  (* validation errors surface too: body too small *)
  expect_error "[kernel k 1.0]\nbody 2" "body_slots"

let test_spec_comments_and_blanks () =
  let spec = "# leading comment\n\nname c  # trailing comment\n[kernel k 1.0]\nbody 10\n" in
  match W.Spec_file.parse spec with
  | Ok p -> Alcotest.(check string) "name parsed" "c" p.Mica_trace.Program.name
  | Error msg -> Alcotest.failf "rejected: %s" msg

let test_spec_multi_phase () =
  let spec = {|
name mp
[phase one 1000]
[kernel a 1.0]
body 10
[phase two 2000]
[kernel b 2.0]
body 12
[kernel c 1.0]
body 14
|} in
  match W.Spec_file.parse spec with
  | Ok p ->
    (match p.Mica_trace.Program.phases with
    | [ one; two ] ->
      Alcotest.(check int) "phase one length" 1000 one.Mica_trace.Program.ph_length;
      Alcotest.(check int) "phase one kernels" 1
        (List.length one.Mica_trace.Program.ph_kernels);
      Alcotest.(check int) "phase two kernels" 2
        (List.length two.Mica_trace.Program.ph_kernels)
    | phs -> Alcotest.failf "expected 2 phases, got %d" (List.length phs))
  | Error msg -> Alcotest.failf "rejected: %s" msg

let test_spec_load_missing_file () =
  match W.Spec_file.load "/nonexistent/path.spec" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

(* ---------------- pca comparison ---------------- *)

let test_pca_comparison () =
  let names =
    [ "MiBench/sha/large"; "MiBench/adpcm/rawcaudio"; "SPEC2000/mcf/ref"; "SPEC2000/swim/ref";
      "SPEC2000/gcc/166"; "BioInfoMark/blast/protein"; "CommBench/rtr/rtr"; "MiBench/qsort/large" ]
  in
  let ctx =
    C.Experiments.Context.load
      ~config:{ C.Pipeline.default_config with C.Pipeline.icount = 3_000; cache_dir = None }
      ~workloads:(List.map W.Registry.find_exn names) ()
  in
  let ga_config =
    { Mica_select.Genetic.default_config with
      Mica_select.Genetic.population = 12; max_generations = 15; stall_generations = 5 }
  in
  let ga = C.Experiments.run_ga ~config:ga_config ctx in
  let r = C.Pca_comparison.run ctx ~ga in
  (* rho must increase with dims and reach ~1 at full dimensionality *)
  let last = r.C.Pca_comparison.pca_points.(Array.length r.C.Pca_comparison.pca_points - 1) in
  Alcotest.(check bool) "full PCA preserves distances" true (last.C.Pca_comparison.rho > 0.999);
  Array.iter
    (fun (p : C.Pca_comparison.point) ->
      (* AUC is nan when the tiny subset degenerates to one class *)
      if (not (Float.is_nan p.C.Pca_comparison.auc))
         && (p.C.Pca_comparison.auc < 0.0 || p.C.Pca_comparison.auc > 1.0)
      then Alcotest.fail "AUC out of range";
      Alcotest.(check int) "PCA measures all 47" 47 p.C.Pca_comparison.measured_characteristics)
    r.C.Pca_comparison.pca_points;
  Alcotest.(check bool) "variance fraction sane" true
    (r.C.Pca_comparison.variance_explained_8 > 0.0
    && r.C.Pca_comparison.variance_explained_8 <= 1.0 +. 1e-9);
  Alcotest.(check bool) "render mentions PCA" true
    (String.length (C.Pca_comparison.render r) > 100)

(* ---------------- coverage / input sensitivity ---------------- *)

let coverage_context () =
  let names =
    [
      "SPEC2000/bzip2/graphic"; "SPEC2000/swim/ref"; "SPEC2000/mcf/ref"; "SPEC2000/gcc/166";
      "MiBench/sha/large"; "MiBench/adpcm/rawcaudio"; "BioInfoMark/blast/protein";
      "BioInfoMark/hmmer/build"; "BioInfoMark/hmmer/calibrate"; "CommBench/tcp/tcp";
    ]
  in
  C.Experiments.Context.load
    ~config:{ C.Pipeline.default_config with C.Pipeline.icount = 3_000; cache_dir = None }
    ~workloads:(List.map W.Registry.find_exn names) ()

let test_coverage_rows () =
  let ctx = coverage_context () in
  let selected = [| 0; 9; 20; 26; 43 |] in
  let rows = C.Coverage.suite_coverage ctx ~selected in
  (* every non-SPEC suite appears exactly once, SPEC never *)
  Alcotest.(check int) "five non-SPEC suites" 5 (List.length rows);
  List.iter
    (fun (r : C.Coverage.coverage_row) ->
      if r.C.Coverage.suite = W.Suite.SpecCpu2000 then Alcotest.fail "SPEC row present";
      Alcotest.(check int) "covered + dissimilar = total" r.C.Coverage.total
        (r.C.Coverage.covered + Array.length r.C.Coverage.dissimilar))
    rows;
  (* suites absent from this subset have zero members *)
  let mediabench =
    List.find (fun r -> r.C.Coverage.suite = W.Suite.MediaBench) rows
  in
  Alcotest.(check int) "absent suite is empty" 0 mediabench.C.Coverage.total

let test_coverage_threshold_monotone () =
  let ctx = coverage_context () in
  let selected = [| 0; 9; 20; 26; 43 |] in
  let dissimilar frac =
    List.fold_left
      (fun acc (r : C.Coverage.coverage_row) -> acc + Array.length r.C.Coverage.dissimilar)
      0
      (C.Coverage.suite_coverage ~frac ctx ~selected)
  in
  (* a looser threshold can only cover more benchmarks *)
  Alcotest.(check bool) "monotone in threshold" true (dissimilar 0.4 <= dissimilar 0.1)

let test_input_sensitivity_rows () =
  let ctx = coverage_context () in
  let rows = C.Coverage.input_sensitivity ctx ~selected:[| 0; 9; 20; 26; 43 |] in
  (* only hmmer has two inputs in this subset *)
  Alcotest.(check int) "one multi-input program" 1 (List.length rows);
  let r = List.hd rows in
  Alcotest.(check string) "it is hmmer" "BioInfoMark/hmmer" r.C.Coverage.program;
  Alcotest.(check int) "two inputs" 2 r.C.Coverage.inputs;
  Alcotest.(check bool) "distances non-negative" true
    (r.C.Coverage.max_intra >= 0.0 && r.C.Coverage.relative >= 0.0)

let test_coverage_renderers () =
  let ctx = coverage_context () in
  let selected = [| 0; 9; 20 |] in
  let c = C.Coverage.render_coverage (C.Coverage.suite_coverage ctx ~selected) in
  let s = C.Coverage.render_sensitivity (C.Coverage.input_sensitivity ctx ~selected) in
  Alcotest.(check bool) "coverage text" true (String.length c > 100);
  Alcotest.(check bool) "sensitivity text" true (String.length s > 100)

(* ---------------- reuse distances ---------------- *)

let mem_trace addrs =
  List.mapi (fun i a -> Tutil.load ~pc:(0x1000 + (4 * i)) ~dst:1 ~addr:a ()) addrs

let test_reuse_exact_distances () =
  let r = A.Reuse.create ~block_bytes:32 () in
  (* blocks: A B C A  -> A's reuse distance is 2 (B and C in between) *)
  Tutil.run_sink (A.Reuse.sink r) (mem_trace [ 0x100; 0x200; 0x300; 0x100 ]);
  Alcotest.(check int) "4 accesses" 4 (A.Reuse.accesses r);
  Alcotest.(check int) "3 cold" 3 (A.Reuse.cold_misses r);
  let cdf = A.Reuse.cdf r [| 1; 2 |] in
  Alcotest.check Tutil.feq "none within 1" 0.0 cdf.(0);
  Alcotest.check Tutil.feq "the revisit within 2" 0.25 cdf.(1)

let test_reuse_immediate_revisit () =
  let r = A.Reuse.create () in
  Tutil.run_sink (A.Reuse.sink r) (mem_trace [ 0x100; 0x104; 0x100 ]);
  (* same 32B block every time: distances 0, 0; cold only once *)
  Alcotest.(check int) "1 cold" 1 (A.Reuse.cold_misses r);
  Alcotest.check Tutil.feq "all revisits at distance 0" 1.0
    ((A.Reuse.cdf r [| 0 |]).(0) *. 3.0 /. 2.0)

let test_reuse_streaming_never_reuses () =
  let r = A.Reuse.create () in
  Tutil.run_sink (A.Reuse.sink r) (mem_trace (List.init 100 (fun i -> i * 64)));
  Alcotest.(check int) "all cold" 100 (A.Reuse.cold_misses r);
  Alcotest.check Tutil.feq "mean over finite distances is 0" 0.0 (A.Reuse.mean_log2 r)

let test_reuse_miss_rate_capacity () =
  let r = A.Reuse.create () in
  (* cyclic sweep over 4 blocks, repeated: with capacity >= 4 everything
     but cold misses hits; with capacity 2 everything misses (LRU) *)
  let addrs = List.concat (List.init 10 (fun _ -> [ 0x000; 0x040; 0x080; 0x0C0 ])) in
  Tutil.run_sink (A.Reuse.sink r) (mem_trace addrs);
  Alcotest.check Tutil.feq "capacity 4 leaves only cold misses" (4.0 /. 40.0)
    (A.Reuse.miss_rate_for_capacity r ~blocks:4);
  Alcotest.check Tutil.feq "capacity 2 thrashes" 1.0
    (A.Reuse.miss_rate_for_capacity r ~blocks:2)

let test_reuse_fenwick_growth () =
  (* enough accesses to force several Fenwick growth steps *)
  let r = A.Reuse.create () in
  let rng = Rng.create ~seed:77L in
  let addrs = List.init 5_000 (fun _ -> Rng.int rng 64 * 32) in
  Tutil.run_sink (A.Reuse.sink r) (mem_trace addrs);
  Alcotest.(check int) "accesses tracked" 5_000 (A.Reuse.accesses r);
  (* 64 blocks: every reuse distance must be < 64 *)
  Alcotest.check Tutil.feq "distances bounded by footprint" 1.0
    ((A.Reuse.cdf r [| 63 |]).(0)
    +. (float_of_int (A.Reuse.cold_misses r) /. float_of_int (A.Reuse.accesses r)))

let test_reuse_non_mem_ignored () =
  let r = A.Reuse.create () in
  Tutil.run_sink (A.Reuse.sink r) [ Tutil.alu (); Tutil.branch ~taken:true () ];
  Alcotest.(check int) "no accesses" 0 (A.Reuse.accesses r)

let test_reuse_invalid_block () =
  try
    ignore (A.Reuse.create ~block_bytes:33 ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ---------------- machines experiment ---------------- *)

let test_machines_experiment () =
  let ctx = coverage_context () in
  let configs = [ Mica_uarch.Hw_counters.ev56 (); Tutil.preset "embedded" ] in
  let fleet =
    C.Fleet.characterize ~configs ~icount:ctx.C.Experiments.Context.config.C.Pipeline.icount
      ctx.C.Experiments.Context.workloads
  in
  let r = C.Fleet.report ~mica:ctx.C.Experiments.Context.mica_space fleet in
  Alcotest.(check int) "two spaces" 2 (List.length r.C.Fleet.spaces);
  Alcotest.(check int) "one machine pair" 1 (List.length r.C.Fleet.cross);
  List.iter
    (fun (_, _, c) ->
      if c < -1.0 || c > 1.0 then Alcotest.fail "correlation out of range")
    r.C.Fleet.cross;
  Alcotest.(check int) "6 metrics" 6 (Array.length fleet.C.Fleet.metric_names);
  List.iter
    (fun (_, sp) -> Alcotest.(check int) "all workloads" 10 (C.Space.n sp))
    r.C.Fleet.spaces;
  List.iter
    (fun (_, counts) ->
      if counts.C.Classify.total <> 45 then Alcotest.fail "wrong pair count")
    (List.map (fun (a, _, c) -> (a, c)) (C.Fleet.transfer r));
  Alcotest.(check bool) "render" true (String.length (C.Fleet.render_transfer r) > 200)

(* ---------------- locality experiment ---------------- *)

let test_locality_experiment () =
  let ctx = coverage_context () in
  let r = C.Locality.run ctx in
  Alcotest.(check int) "row per workload" 10 (List.length r.C.Locality.rows);
  List.iter
    (fun (row : C.Locality.row) ->
      if row.C.Locality.mean_log2_distance < 0.0 then Alcotest.fail "negative distance";
      if row.C.Locality.cold_fraction < 0.0 || row.C.Locality.cold_fraction > 1.0 then
        Alcotest.fail "cold fraction out of range")
    r.C.Locality.rows;
  (* rows sorted descending *)
  let rec sorted = function
    | (a : C.Locality.row) :: (b :: _ as rest) ->
      a.C.Locality.mean_log2_distance >= b.C.Locality.mean_log2_distance && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted r.C.Locality.rows);
  (* blast (streaming over huge data) has poorer locality than adpcm *)
  let find id =
    List.find (fun (row : C.Locality.row) -> row.C.Locality.id = id) r.C.Locality.rows
  in
  Alcotest.(check bool) "blast poorer than adpcm" true
    ((find "BioInfoMark/blast/protein").C.Locality.mean_log2_distance
    > (find "MiBench/adpcm/rawcaudio").C.Locality.mean_log2_distance);
  Alcotest.(check bool) "render" true (String.length (C.Locality.render r) > 200)

let test_locality_miss_curve_monotone () =
  let w = W.Registry.find_exn "SPEC2000/gcc/166" in
  let curve = C.Locality.miss_curve w ~icount:10_000 in
  for i = 0 to Array.length curve - 2 do
    let _, m1 = curve.(i) and _, m2 = curve.(i + 1) in
    if m2 > m1 +. 1e-9 then Alcotest.fail "LRU miss rate must not grow with capacity"
  done

(* Cross-validation of two independent implementations: the miss rate of a
   fully-associative LRU cache (uarch Cache with one set) must equal the
   fraction of accesses whose reuse distance reaches the capacity (Mattson's
   stack property, computed by the Fenwick-tree analyzer). *)
let test_reuse_matches_fa_cache () =
  let rng = Rng.create ~seed:91L in
  let blocks = 48 and capacity = 16 in
  (* skewed towards low blocks: the smaller of two uniform draws *)
  let addrs = List.init 4_000 (fun _ -> min (Rng.int rng blocks) (Rng.int rng blocks) * 32) in
  let reuse = A.Reuse.create ~block_bytes:32 () in
  Tutil.run_sink (A.Reuse.sink reuse) (mem_trace addrs);
  let cache = Mica_uarch.Cache.create ~size_bytes:(capacity * 32) ~line_bytes:32 ~assoc:capacity in
  List.iter (fun a -> ignore (Mica_uarch.Cache.access cache a)) addrs;
  Alcotest.check Tutil.feq "stack property: FA-LRU miss rate = reuse tail"
    (Mica_uarch.Cache.miss_rate cache)
    (A.Reuse.miss_rate_for_capacity reuse ~blocks:capacity)

(* ---------------- bootstrap ---------------- *)

let test_bootstrap_constant_statistic () =
  let rng = Rng.create ~seed:61L in
  let iv = S.Bootstrap.interval ~replicates:50 ~rng ~n:20 (fun _ -> 42.0) in
  Alcotest.check Tutil.feq "estimate" 42.0 iv.S.Bootstrap.estimate;
  Alcotest.check Tutil.feq "lo" 42.0 iv.S.Bootstrap.lo;
  Alcotest.check Tutil.feq "hi" 42.0 iv.S.Bootstrap.hi

let test_bootstrap_mean_interval () =
  let rng = Rng.create ~seed:63L in
  let data = Array.init 200 (fun _ -> Rng.gaussian rng ~mu:10.0 ~sigma:2.0) in
  let iv =
    S.Bootstrap.interval ~replicates:400 ~rng ~n:(Array.length data) (fun sample ->
        S.Descriptive.mean (Array.map (fun i -> data.(i)) sample))
  in
  Alcotest.(check bool) "interval brackets the estimate" true
    (iv.S.Bootstrap.lo <= iv.S.Bootstrap.estimate && iv.S.Bootstrap.estimate <= iv.S.Bootstrap.hi);
  Alcotest.(check bool) "interval near the true mean" true
    (iv.S.Bootstrap.lo < 10.0 && 10.0 < iv.S.Bootstrap.hi);
  (* width should be roughly 4 * sigma/sqrt(n) ~ 0.57 *)
  Alcotest.(check bool) "width sane" true
    (iv.S.Bootstrap.hi -. iv.S.Bootstrap.lo < 1.5)

let test_bootstrap_pair_statistic () =
  let rng = Rng.create ~seed:65L in
  let a = Array.init 20 (fun _ -> [| Rng.float rng 1.0 |]) in
  (* b is a scaled copy of a: distance correlation must be exactly 1 *)
  let b = Array.map (fun row -> [| 3.0 *. row.(0) |]) a in
  let stat =
    S.Bootstrap.pair_distance_statistic ~normalized_a:a ~normalized_b:b S.Correlation.pearson
  in
  Alcotest.check Tutil.feq_loose "identity sample correlation" 1.0
    (stat (Array.init 20 Fun.id));
  (* resamples with duplicates still give a defined value *)
  let v = stat (Array.make 20 3 |> Array.mapi (fun i x -> if i < 10 then i else x)) in
  Alcotest.(check bool) "duplicate-heavy resample defined" true
    ((not (Float.is_nan v)) && Float.abs v <= 1.0 +. 1e-9)

(* ---------------- extended characteristics ---------------- *)

let test_extended_vector_shape () =
  let p = Tutil.tiny_program "ext-shape" in
  let v = A.Extended.analyze p ~icount:5_000 in
  Alcotest.(check int) "56 characteristics" A.Extended.count (Array.length v);
  Alcotest.(check int) "names match" A.Extended.count (Array.length A.Extended.names);
  Alcotest.(check int) "short names match" A.Extended.count
    (Array.length A.Extended.short_names);
  Array.iteri (fun i x -> if Float.is_nan x then Alcotest.failf "ext char %d NaN" i) v;
  (* the first 47 must equal the plain analyzer's output *)
  let base = A.Analyzer.analyze p ~icount:5_000 in
  Array.iteri
    (fun i x -> Alcotest.check Tutil.feq (Printf.sprintf "char %d matches base" i) x v.(i))
    base

let test_extended_is_extension () =
  Alcotest.(check bool) "46 is canonical" false (A.Extended.is_extension 46);
  Alcotest.(check bool) "47 is extension" true (A.Extended.is_extension 47);
  Alcotest.(check bool) "last is extension" true (A.Extended.is_extension (A.Extended.count - 1))

let test_extended_reuse_cdf_monotone () =
  let p = Tutil.tiny_program "ext-cdf" in
  let v = A.Extended.analyze p ~icount:5_000 in
  (* last 4 entries are the reuse CDF *)
  let base = A.Extended.count - 4 in
  for i = base to A.Extended.count - 2 do
    if v.(i) > v.(i + 1) +. 1e-9 then Alcotest.fail "reuse CDF not monotone"
  done

(* ---------------- simpoint validation ---------------- *)

let test_simpoint_validation () =
  let w = W.Registry.find_exn "MiBench/sha/large" in
  let t = C.Simpoint.validate ~interval:2_000 w ~icount:40_000 in
  Alcotest.(check bool) "true IPC positive" true (t.C.Simpoint.true_ipc > 0.0);
  Alcotest.(check bool) "estimate positive" true (t.C.Simpoint.estimated_ipc > 0.0);
  (* a steady-state kernel must be estimated accurately *)
  Alcotest.(check bool) "error under 10%" true (t.C.Simpoint.error < 0.10);
  (* per-interval results account for (almost) the whole trace *)
  let covered =
    Array.fold_left (fun acc r -> acc + r.C.Simpoint.instructions) 0 t.C.Simpoint.interval_results
  in
  Alcotest.(check bool) "intervals cover the trace" true (covered >= 38_000)

let test_simpoint_interval_consistency () =
  let w = W.Registry.find_exn "SPEC2000/swim/ref" in
  let t = C.Simpoint.validate ~interval:5_000 w ~icount:50_000 in
  Array.iter
    (fun (r : C.Simpoint.interval_ipc) ->
      if r.C.Simpoint.instructions <= 0 then Alcotest.fail "empty interval";
      if r.C.Simpoint.cycles <= 0 then Alcotest.fail "zero-cycle interval";
      if r.C.Simpoint.instructions > 5_000 then Alcotest.fail "interval too large")
    t.C.Simpoint.interval_results;
  Alcotest.(check bool) "render works" true
    (String.length (C.Simpoint.render [ ("x", t) ]) > 50)

(* A bad interval is a usage error: a message and exit 2, not an uncaught
   exception (cmdliner's exit 125). *)
let test_simpoint_exit_codes () =
  let expect what extra want =
    let code, err =
      T_trace.run_mica
        ([ "simpoint"; "SPEC2000/gcc/166"; "--icount"; "20000"; "--no-run" ] @ extra)
    in
    Alcotest.(check int) (what ^ ": exit code") want code;
    if want <> 0 && not (String.starts_with ~prefix:"error: " err) then
      Alcotest.failf "%s: stderr %S lacks an error line" what err
  in
  expect "default interval" [] 0;
  expect "zero interval" [ "--interval"; "0" ] 2;
  expect "negative interval" [ "--interval=-5" ] 2;
  expect "interval longer than the trace" [ "--interval"; "100000" ] 2;
  (* longer than the trace but within twice it: phase analysis keeps a
     trailing half interval the machine sampler never closes *)
  expect "interval between the trace and twice it" [ "--interval"; "30000" ] 2

(* ---------------- subsetting ---------------- *)

let line_space () =
  (* five points on a line: 0, 1, 2, 10, 11 *)
  C.Space.of_dataset
    (C.Dataset.create
       ~names:[| "p0"; "p1"; "p2"; "p10"; "p11" |]
       ~features:[| "x" |]
       [| [| 0.0 |]; [| 1.0 |]; [| 2.0 |]; [| 10.0 |]; [| 11.0 |] |])

let test_kcenter_basics () =
  let space = line_space () in
  let t = C.Subsetting.k_center space ~k:2 in
  Alcotest.(check int) "two chosen" 2 (Array.length t.C.Subsetting.chosen);
  (* with two centers, one must come from each end of the line *)
  let chosen = Array.to_list t.C.Subsetting.chosen in
  let left = List.exists (fun c -> c <= 2) chosen and right = List.exists (fun c -> c >= 3) chosen in
  Alcotest.(check bool) "covers both ends" true (left && right);
  (* every point's representative is a chosen point *)
  Array.iter
    (fun rep ->
      if not (List.mem rep chosen) then Alcotest.fail "representative not chosen")
    t.C.Subsetting.representative_of;
  Alcotest.(check bool) "radius sane" true
    (t.C.Subsetting.max_distance >= t.C.Subsetting.mean_distance)

let test_kcenter_full () =
  let space = line_space () in
  let t = C.Subsetting.k_center space ~k:5 in
  Alcotest.check Tutil.feq "k = n covers exactly" 0.0 t.C.Subsetting.max_distance

let test_kcenter_radius_decreases () =
  let space = line_space () in
  match C.Subsetting.sweep space ~ks:[ 1; 2; 3; 4; 5 ] with
  | radii ->
    let rec decreasing = function
      | (_, a) :: ((_, b) :: _ as rest) -> a >= b -. 1e-12 && decreasing rest
      | _ -> true
    in
    Alcotest.(check bool) "radius non-increasing in k" true (decreasing radii)

let test_kcenter_invalid () =
  let space = line_space () in
  try
    ignore (C.Subsetting.k_center space ~k:0);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_kcenter_render () =
  let space = line_space () in
  let t = C.Subsetting.k_center space ~k:2 in
  Alcotest.(check bool) "render" true (String.length (C.Subsetting.render space t) > 50)

(* ---------------- prediction ---------------- *)

let test_knn_exact_neighbour () =
  let space = line_space () in
  let targets = [| 1.0; 2.0; 3.0; 10.0; 11.0 |] in
  (* p1's 2 nearest are p0 and p2 at distance 1 each: average 2.0 *)
  Alcotest.check Tutil.feq "symmetric neighbours average" 2.0
    (C.Prediction.knn_predict ~space ~targets ~k:2 ~exclude:(-1) 1)

let test_knn_weighting () =
  let space = line_space () in
  let targets = [| 5.0; 0.0; 0.0; 100.0; 0.0 |] in
  (* p2 (index 2): neighbours p1 (d=1, t=0) and p0 (d=2, t=5):
     weights 1 and 0.5 -> (0*1 + 5*0.5) / 1.5 = 5/3 *)
  Alcotest.check Tutil.feq "inverse-distance weighting" (5.0 /. 3.0)
    (C.Prediction.knn_predict ~space ~targets ~k:2 ~exclude:(-1) 2)

let test_knn_smooth_function_predicts_well () =
  (* target = smooth function of the feature: LOO knn must beat the mean *)
  let rng = Rng.create ~seed:31L in
  let data = Array.init 60 (fun _ -> [| Rng.float rng 10.0 |]) in
  let ds =
    C.Dataset.create
      ~names:(Array.init 60 (Printf.sprintf "w%d"))
      ~features:[| "x" |] data
  in
  let space = C.Space.of_dataset ds in
  let targets = Array.map (fun row -> (2.0 *. row.(0)) +. 1.0) data in
  let e = C.Prediction.evaluate_loo ~space ~targets ~metric:"linear" ~k:3 in
  Alcotest.(check bool) "beats baseline" true
    (e.C.Prediction.mean_rel_error < e.C.Prediction.baseline_rel_error /. 3.0);
  Alcotest.(check bool) "high rank correlation" true (e.C.Prediction.rank_correlation > 0.95)

let test_prediction_counters_eval () =
  let ctx = coverage_context () in
  let evals = C.Prediction.evaluate_counters ~k:3 ctx in
  Alcotest.(check int) "one eval per counter metric" 7 (List.length evals);
  List.iter
    (fun (e : C.Prediction.eval) ->
      if e.C.Prediction.mean_abs_error < 0.0 then Alcotest.fail "negative error";
      if e.C.Prediction.rank_correlation < -1.0 || e.C.Prediction.rank_correlation > 1.0 then
        Alcotest.fail "rank correlation out of range")
    evals;
  Alcotest.(check bool) "render" true (String.length (C.Prediction.render evals) > 100)

let suite =
  ( "extensions",
    [
      Alcotest.test_case "linkage structure" `Quick test_linkage_structure;
      Alcotest.test_case "linkage cut" `Quick test_linkage_cut;
      Alcotest.test_case "linkage singleton" `Quick test_linkage_singleton;
      Alcotest.test_case "linkage methods" `Quick test_linkage_methods_differ;
      Alcotest.test_case "dendrogram render" `Quick test_dendrogram_render;
      Alcotest.test_case "dendrogram clusters_at" `Quick test_dendrogram_clusters_at;
      Alcotest.test_case "dendrogram max_depth" `Quick test_dendrogram_max_depth;
      Alcotest.test_case "dendrogram single benchmark" `Quick test_dendrogram_single_benchmark;
      Alcotest.test_case "dendrogram duplicate points" `Quick test_dendrogram_duplicate_points;
      Alcotest.test_case "dendrogram empty dataset" `Quick test_dendrogram_empty_dataset;
      Alcotest.test_case "bbv intervals" `Quick test_bbv_intervals;
      Alcotest.test_case "bbv normalized" `Quick test_bbv_rows_normalized;
      Alcotest.test_case "bbv projection dims" `Quick test_bbv_projection_dims;
      Alcotest.test_case "bbv projection similarity" `Quick
        test_bbv_projection_preserves_similarity;
      Alcotest.test_case "bbv invalid interval" `Quick test_bbv_invalid_interval;
      Alcotest.test_case "phases steady state" `Quick test_phases_steady_state_single_phase;
      Alcotest.test_case "phases two-phase program" `Slow test_phases_two_phase_program;
      Alcotest.test_case "phases timeline" `Quick test_phases_timeline;
      Alcotest.test_case "spec example parses" `Quick test_spec_example_parses;
      Alcotest.test_case "spec example generates" `Quick test_spec_example_generates;
      Alcotest.test_case "spec kernel fields" `Quick test_spec_kernel_fields;
      Alcotest.test_case "spec errors" `Quick test_spec_errors;
      Alcotest.test_case "spec comments" `Quick test_spec_comments_and_blanks;
      Alcotest.test_case "spec multi-phase" `Quick test_spec_multi_phase;
      Alcotest.test_case "spec missing file" `Quick test_spec_load_missing_file;
      Alcotest.test_case "pca comparison" `Slow test_pca_comparison;
      Alcotest.test_case "coverage rows" `Slow test_coverage_rows;
      Alcotest.test_case "coverage threshold" `Slow test_coverage_threshold_monotone;
      Alcotest.test_case "input sensitivity" `Slow test_input_sensitivity_rows;
      Alcotest.test_case "coverage renderers" `Slow test_coverage_renderers;
      Alcotest.test_case "reuse exact distances" `Quick test_reuse_exact_distances;
      Alcotest.test_case "reuse immediate revisit" `Quick test_reuse_immediate_revisit;
      Alcotest.test_case "reuse streaming" `Quick test_reuse_streaming_never_reuses;
      Alcotest.test_case "reuse miss rates" `Quick test_reuse_miss_rate_capacity;
      Alcotest.test_case "reuse fenwick growth" `Quick test_reuse_fenwick_growth;
      Alcotest.test_case "reuse ignores non-mem" `Quick test_reuse_non_mem_ignored;
      Alcotest.test_case "reuse invalid block" `Quick test_reuse_invalid_block;
      Alcotest.test_case "reuse = FA-LRU cache (stack property)" `Quick
        test_reuse_matches_fa_cache;
      Alcotest.test_case "machines experiment" `Slow test_machines_experiment;
      Alcotest.test_case "locality experiment" `Slow test_locality_experiment;
      Alcotest.test_case "locality miss curve" `Quick test_locality_miss_curve_monotone;
      Alcotest.test_case "simpoint validation" `Slow test_simpoint_validation;
      Alcotest.test_case "simpoint intervals" `Slow test_simpoint_interval_consistency;
      Alcotest.test_case "simpoint exit codes" `Quick test_simpoint_exit_codes;
      Alcotest.test_case "k-center basics" `Quick test_kcenter_basics;
      Alcotest.test_case "k-center full" `Quick test_kcenter_full;
      Alcotest.test_case "k-center radius" `Quick test_kcenter_radius_decreases;
      Alcotest.test_case "k-center invalid" `Quick test_kcenter_invalid;
      Alcotest.test_case "k-center render" `Quick test_kcenter_render;
      Alcotest.test_case "knn exact" `Quick test_knn_exact_neighbour;
      Alcotest.test_case "knn weighting" `Quick test_knn_weighting;
      Alcotest.test_case "knn smooth function" `Quick test_knn_smooth_function_predicts_well;
      Alcotest.test_case "prediction counters" `Slow test_prediction_counters_eval;
      Alcotest.test_case "bootstrap constant" `Quick test_bootstrap_constant_statistic;
      Alcotest.test_case "bootstrap mean" `Quick test_bootstrap_mean_interval;
      Alcotest.test_case "bootstrap pair statistic" `Quick test_bootstrap_pair_statistic;
      Alcotest.test_case "extended vector" `Quick test_extended_vector_shape;
      Alcotest.test_case "extended indexing" `Quick test_extended_is_extension;
      Alcotest.test_case "extended reuse CDF" `Quick test_extended_reuse_cdf_monotone;
    ] )
