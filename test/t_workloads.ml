module W = Mica_workloads

let test_registry_count () =
  Alcotest.(check int) "122 benchmarks" 122 W.Registry.count;
  Alcotest.(check int) "list matches count" 122 (List.length W.Registry.all)

let test_suite_counts () =
  let count s = List.length (W.Registry.by_suite s) in
  Alcotest.(check int) "BioInfoMark" 12 (count W.Suite.BioInfoMark);
  Alcotest.(check int) "BioMetricsWorkload" 8 (count W.Suite.BioMetricsWorkload);
  Alcotest.(check int) "CommBench" 12 (count W.Suite.CommBench);
  Alcotest.(check int) "MediaBench" 12 (count W.Suite.MediaBench);
  Alcotest.(check int) "MiBench" 30 (count W.Suite.MiBench);
  Alcotest.(check int) "SPEC2000" 48 (count W.Suite.SpecCpu2000)

let test_unique_ids () =
  let ids = List.map W.Workload.id W.Registry.all in
  Alcotest.(check int) "ids unique" 122 (List.length (List.sort_uniq compare ids))

let test_all_models_valid () =
  List.iter
    (fun (w : W.Workload.t) ->
      match Mica_trace.Program.validate w.W.Workload.model with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s invalid: %s" (W.Workload.id w) msg)
    W.Registry.all

(* The scale-out corpus families must pass the same validation as the
   registry (ten members of each). *)
let test_corpus_models_valid () =
  List.iter
    (fun (w : W.Workload.t) ->
      match Mica_trace.Program.validate w.W.Workload.model with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s invalid: %s" (W.Workload.id w) msg)
    (W.Corpus.members ~size:30)

(* A spec file whose branch kind would divide by zero or read unkept
   history is refused at load with a message naming the kernel, so
   [mica place] exits 2 instead of dying in the generator. *)
let test_spec_file_rejects_bad_branch_kinds () =
  let good = "branches biased:0.35:0.5 loop:12:0.5" in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  if not (contains ~sub:good W.Spec_file.example) then Alcotest.fail "example spec changed";
  List.iter
    (fun bad ->
      let text =
        String.concat "\n"
          (List.map
             (fun line -> if line = good then "branches " ^ bad else line)
             (String.split_on_char '\n' W.Spec_file.example))
      in
      match W.Spec_file.parse text with
      | Ok _ -> Alcotest.failf "branches %s accepted" bad
      | Error msg ->
        if not (contains ~sub:"probe" msg) then
          Alcotest.failf "branches %s: error %S does not name the kernel" bad msg)
    [ "loop:0:0.5"; "periodic:0:0:0.5"; "periodic:4:5:0.5"; "biased:1.5:0.5"; "biased:nan:0.5";
      "history:17:0.5"; "history:-1:0.5" ]

let test_all_models_generate () =
  (* every model must actually produce a trace *)
  List.iter
    (fun (w : W.Workload.t) ->
      let sink, read = Mica_trace.Sink.counter () in
      let n = Mica_trace.Generator.run w.W.Workload.model ~icount:500 ~sink in
      if n <> 500 || read () <> 500 then Alcotest.failf "%s truncated" (W.Workload.id w))
    W.Registry.all

let test_icounts_positive () =
  List.iter
    (fun (w : W.Workload.t) ->
      if w.W.Workload.icount_millions <= 0 then
        Alcotest.failf "%s has non-positive icount" (W.Workload.id w))
    W.Registry.all

let test_paper_icounts_spotcheck () =
  let check name expected =
    let w = W.Registry.find_exn name in
    Alcotest.(check int) name expected w.W.Workload.icount_millions
  in
  check "BioInfoMark/blast/protein" 81_092;
  check "SPEC2000/mcf/ref" 59_800;
  check "MiBench/adpcm/rawcaudio" 758;
  check "CommBench/tcp/tcp" 58;
  check "MediaBench/mesa/osdemo" 10;
  check "BioMetricsWorkload/speak/decode" 46_648

let test_find_variants () =
  Alcotest.(check bool) "by id" true (W.Registry.find "SPEC2000/bzip2/graphic" <> None);
  Alcotest.(check bool) "by program/input" true (W.Registry.find "bzip2/graphic" <> None);
  Alcotest.(check bool) "by label" true (W.Registry.find "bzip2.graphic" <> None);
  Alcotest.(check bool) "unique program name" true (W.Registry.find "blast" <> None);
  Alcotest.(check bool) "ambiguous program name" true (W.Registry.find "bzip2" = None);
  Alcotest.(check bool) "unknown" true (W.Registry.find "nonexistent" = None);
  Alcotest.(check bool) "case-insensitive" true (W.Registry.find "spec2000/MCF/ref" <> None)

let test_find_exn () =
  try
    ignore (W.Registry.find_exn "nonexistent");
    Alcotest.fail "expected Not_found"
  with Not_found -> ()

let test_matching () =
  let gcc = W.Registry.matching "gcc" in
  Alcotest.(check int) "five gcc inputs" 5 (List.length gcc);
  Alcotest.(check int) "everything" 122 (List.length (W.Registry.matching ""))

let test_suite_names () =
  List.iter
    (fun s ->
      match W.Suite.of_name (W.Suite.name s) with
      | Some s' when s' = s -> ()
      | Some _ | None -> Alcotest.failf "suite roundtrip failed for %s" (W.Suite.name s))
    W.Suite.all;
  Alcotest.(check bool) "unknown suite" true (W.Suite.of_name "nope" = None)

let test_workload_labels () =
  let w = W.Registry.find_exn "SPEC2000/bzip2/graphic" in
  Alcotest.(check string) "id" "SPEC2000/bzip2/graphic" (W.Workload.id w);
  Alcotest.(check string) "label" "bzip2.graphic" (W.Workload.label w)

let test_distinct_benchmarks_distinct_traces () =
  (* the two adpcm inputs share a family but must not produce identical
     traces (independent name-derived seeds) *)
  let a = W.Registry.find_exn "MiBench/adpcm/rawcaudio" in
  let b = W.Registry.find_exn "MiBench/adpcm/rawdaudio" in
  let ta = Mica_trace.Generator.preview a.W.Workload.model ~n:300 in
  let tb = Mica_trace.Generator.preview b.W.Workload.model ~n:300 in
  Alcotest.(check bool) "traces differ" true (ta <> tb)

let test_family_contrast () =
  (* sanity of the modeling: blast must touch far more data pages than
     adpcm at equal trace length *)
  let ws name =
    let w = W.Registry.find_exn name in
    let t = Mica_analysis.Working_set.create () in
    let (_ : int) =
      Mica_trace.Generator.run w.W.Workload.model ~icount:50_000
        ~sink:(Mica_analysis.Working_set.sink t)
    in
    (Mica_analysis.Working_set.result t).Mica_analysis.Working_set.data_pages
  in
  let blast = ws "BioInfoMark/blast/protein" and adpcm = ws "MiBench/adpcm/rawcaudio" in
  Alcotest.(check bool) "blast working set dwarfs adpcm" true (blast > 20 * adpcm)

let suite =
  ( "workloads",
    [
      Alcotest.test_case "registry count" `Quick test_registry_count;
      Alcotest.test_case "suite counts" `Quick test_suite_counts;
      Alcotest.test_case "unique ids" `Quick test_unique_ids;
      Alcotest.test_case "models valid" `Quick test_all_models_valid;
      Alcotest.test_case "corpus models valid" `Quick test_corpus_models_valid;
      Alcotest.test_case "spec file rejects bad branch kinds" `Quick
        test_spec_file_rejects_bad_branch_kinds;
      Alcotest.test_case "models generate" `Slow test_all_models_generate;
      Alcotest.test_case "icounts positive" `Quick test_icounts_positive;
      Alcotest.test_case "paper icounts" `Quick test_paper_icounts_spotcheck;
      Alcotest.test_case "find variants" `Quick test_find_variants;
      Alcotest.test_case "find_exn" `Quick test_find_exn;
      Alcotest.test_case "matching" `Quick test_matching;
      Alcotest.test_case "suite names" `Quick test_suite_names;
      Alcotest.test_case "labels" `Quick test_workload_labels;
      Alcotest.test_case "independent seeds" `Quick test_distinct_benchmarks_distinct_traces;
      Alcotest.test_case "family contrast" `Quick test_family_contrast;
    ] )
