(* Run-directory workbench tests: manifest golden format and round-trip,
   checksummed IO, corruption (truncated manifest / tampered artifact must
   surface as unreadable runs, never crashes), the compare metamorphic laws
   (self-compare empty, antisymmetry under swap, jobs-invariance of
   pipeline-produced runs) and the variance aggregator. *)

module R = Mica_run
module J = Mica_obs.Json
module C = Mica_core
module W = Mica_workloads

let feq = Tutil.feq

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* ---------------- fixtures ---------------- *)

(* [f root] on a run root that does not exist yet, inside a temp
   directory removed after the test. *)
let with_root f = Tutil.with_temp_dir (fun dir -> f (Filename.concat dir "runs"))

let manifest ?(tag = "t") ?(created = "20260101-000000") ?(fault_spec = None) ?(mica_jobs_env = None)
    () =
  {
    R.Manifest.schema = R.Manifest.schema_version;
    created;
    tag;
    subcommand = "test";
    argv = [ "mica"; "test"; "--icount"; "1000" ];
    git_rev = "unknown";
    icount = 1000;
    ppm_order = 8;
    jobs = 1;
    retries = 0;
    cache = false;
    mica_jobs_env;
    fault_spec;
    seeds = [ ("ga", "0x1") ];
    workloads = 2;
    report = "2 ok, 0 failed";
    files = [];
  }

let table cells = { R.Run_dir.row_names = [| "w1"; "w2" |]; columns = [| "c1"; "c2" |]; cells }

let bench_json rows =
  J.to_string
    (J.Obj
       [
         ( "results",
           J.List
             (List.map
                (fun (name, ns) -> J.Obj [ ("name", J.Str name); ("ns_per_run", J.Num ns) ])
                rows) );
       ])

(* Commit a synthetic run holding a 2x2 characteristic table and optional
   bench results; returns its directory. *)
let commit_run root ~tag ?(cells = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]) ?bench () =
  let t = table cells in
  let artifacts =
    { R.Run_dir.filename = R.Run_dir.mica_file; contents = R.Run_dir.csv_of_table t }
    ::
    (match bench with
    | None -> []
    | Some rows -> [ { R.Run_dir.filename = R.Run_dir.bench_file; contents = bench_json rows } ])
  in
  R.Run_dir.commit ~root ~manifest:(manifest ~tag ()) ~artifacts ()

let load_exn dir =
  match R.Run_dir.load dir with
  | Ok r -> r
  | Error e -> Alcotest.failf "run %s should load: %s" dir e

(* ---------------- manifest golden + round-trip ---------------- *)

let golden_manifest_text =
  String.concat "\n"
    [
      "{";
      "  \"schema\": \"mica-run/v1\",";
      "  \"created\": \"20260101-000000\",";
      "  \"tag\": \"t\",";
      "  \"subcommand\": \"test\",";
      "  \"argv\": [";
      "    \"mica\",";
      "    \"test\",";
      "    \"--icount\",";
      "    \"1000\"";
      "  ],";
      "  \"git_rev\": \"unknown\",";
      "  \"config\": {";
      "    \"icount\": 1000,";
      "    \"ppm_order\": 8,";
      "    \"jobs\": 1,";
      "    \"retries\": 0,";
      "    \"cache\": false";
      "  },";
      "  \"mica_jobs_env\": null,";
      "  \"fault_spec\": null,";
      "  \"seeds\": {";
      "    \"ga\": \"0x1\"";
      "  },";
      "  \"workloads\": 2,";
      "  \"report\": \"2 ok, 0 failed\",";
      "  \"files\": {}";
      "}";
    ]

let test_manifest_golden () =
  (* The on-disk form is byte-stable: fixed key order, pinned here so any
     schema drift is a deliberate, visible change. *)
  let m = manifest () in
  Alcotest.(check string)
    "pretty serialization is pinned" golden_manifest_text
    (J.to_string ~pretty:true (R.Manifest.to_json m));
  (* serialization is deterministic *)
  Alcotest.(check string)
    "second serialization identical"
    (J.to_string ~pretty:true (R.Manifest.to_json m))
    (J.to_string ~pretty:true (R.Manifest.to_json m))

let test_manifest_roundtrip () =
  let m =
    {
      (manifest ()) with
      R.Manifest.mica_jobs_env = Some "4";
      fault_spec = Some "cache_write:0.5@7";
      seeds = [ ("ga", "0x6a5eed"); ("fault", "0x7") ];
      files = [ ("a.csv", "d41d8cd98f00b204e9800998ecf8427e") ];
    }
  in
  (match R.Manifest.of_json (R.Manifest.to_json m) with
  | Ok m' -> Alcotest.(check bool) "of_json (to_json m) = m" true (m = m')
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* and through the actual serializer *)
  match J.parse (J.to_string ~pretty:true (R.Manifest.to_json m)) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j -> (
      match R.Manifest.of_json j with
      | Ok m' -> Alcotest.(check bool) "text round-trip" true (m = m')
      | Error e -> Alcotest.failf "of_json failed: %s" e)

let test_manifest_rejects () =
  let reject what j =
    match R.Manifest.of_json j with
    | Ok _ -> Alcotest.failf "%s should be rejected" what
    | Error e -> Alcotest.(check bool) (what ^ " has a reason") true (String.length e > 0)
  in
  let m = R.Manifest.to_json (manifest ()) in
  reject "non-object" (J.Num 3.0);
  (match m with
  | J.Obj fields ->
      reject "foreign schema"
        (J.Obj
           (List.map (fun (k, v) -> if k = "schema" then (k, J.Str "mica-run/v9") else (k, v)) fields));
      reject "missing field" (J.Obj (List.filter (fun (k, _) -> k <> "workloads") fields));
      reject "wrong type"
        (J.Obj (List.map (fun (k, v) -> if k = "workloads" then (k, J.Str "x") else (k, v)) fields))
  | _ -> Alcotest.fail "manifest json is an object")

(* ---------------- checksummed IO ---------------- *)

let test_checksummed_roundtrip () =
  let module A = Mica_util.Artifact in
  let path = Filename.temp_file "mica_run_io" ".json" in
  let frame = A.frame ~prefix:"#mica-run " in
  let read () = Result.bind (A.read path) (A.unframe ~prefix:"#mica-run " ~version:"v1") in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let body = "{\"k\": [1, 2, 3]}\n" in
      A.write path (frame ~version:"v1" body);
      (match read () with
      | Ok b -> Alcotest.(check string) "body round-trips" body b
      | Error e -> Alcotest.failf "read failed: %s" (A.describe_error e));
      (* tamper one body byte: digest mismatch *)
      let tampered = Bytes.of_string (Result.get_ok (A.read path)) in
      Bytes.set tampered (Bytes.length tampered - 2) 'X';
      A.write path (Bytes.to_string tampered);
      (match read () with
      | Error (A.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "tampered file should not verify"
      | Error e -> Alcotest.failf "expected Corrupt, got %s" (A.describe_error e));
      (* foreign format version *)
      A.write path (frame ~version:"v999" body);
      (match read () with
      | Error (A.Foreign_version "v999") -> ()
      | _ -> Alcotest.fail "foreign version should be flagged");
      Sys.remove path;
      match read () with
      | Error A.Missing -> ()
      | _ -> Alcotest.fail "missing file should be Missing")

let test_table_csv_roundtrip () =
  let t =
    {
      R.Run_dir.row_names = [| "A/b/c"; "D (e)" |];
      columns = [| "pct_load"; "dep<=2"; "ws_d_blk" |];
      cells = [| [| 0.1; -3.25e-7; 196.0 |]; [| 1.0 /. 3.0; 0.0; 1e17 |] |];
    }
  in
  with_root @@ fun root ->
  let dir =
    R.Run_dir.commit ~root ~manifest:(manifest ())
      ~artifacts:[ { R.Run_dir.filename = R.Run_dir.mica_file; contents = R.Run_dir.csv_of_table t } ]
      ()
  in
  match (load_exn dir).R.Run_dir.mica with
  | None -> Alcotest.fail "csv round-trip lost the table"
  | Some t' ->
      Alcotest.(check (array string)) "rows" t.R.Run_dir.row_names t'.R.Run_dir.row_names;
      Alcotest.(check (array string)) "cols" t.R.Run_dir.columns t'.R.Run_dir.columns;
      Alcotest.(check (array (array (Alcotest.float 0.0))))
        "cells bit-exact" t.R.Run_dir.cells t'.R.Run_dir.cells

(* ---------------- commit / load / corruption ---------------- *)

let test_commit_and_load () =
  with_root @@ fun root ->
  let dir = commit_run root ~tag:"alpha" ~bench:[ ("k1", 120.0) ] () in
  let r = load_exn dir in
  Alcotest.(check string) "tag survives" "alpha" r.R.Run_dir.manifest.R.Manifest.tag;
  (match r.R.Run_dir.mica with
  | Some t -> Alcotest.check feq "cell" 4.0 t.R.Run_dir.cells.(1).(1)
  | None -> Alcotest.fail "mica table loads");
  Alcotest.(check bool) "bench loads" true (r.R.Run_dir.bench <> None);
  Alcotest.(check int)
    "manifest lists both artifacts" 2
    (List.length r.R.Run_dir.manifest.R.Manifest.files);
  (* latest resolves to the lexicographically newest stamp *)
  let latest () =
    match R.Run_dir.resolve (Filename.concat root "latest") with `Run d -> Some d | _ -> None
  in
  Alcotest.(check (option string)) "listed" (Some dir) (latest ());
  let dir2 = commit_run root ~tag:"beta" () in
  Alcotest.(check (option string)) "latest" (Some dir2) (latest ());
  (* identical created+tag collides and is uniquified, not overwritten *)
  let dir3 = commit_run root ~tag:"beta" () in
  Alcotest.(check string) "collision uniquified" (dir2 ^ ".2") dir3;
  Alcotest.(check int) "three runs listed" 3 (Array.length (Sys.readdir root))

(* A commit that fails leaves nothing behind; one whose directory name is
   taken claims the next suffix. *)
let test_commit_rollback_and_claim () =
  with_root @@ fun root ->
  let plan = Result.get_ok (Mica_util.Fault.parse "seed=1,cache.write=1") in
  (match Mica_util.Fault.with_plan (Some plan) (fun () -> commit_run root ~tag:"faulted" ()) with
  | dir -> Alcotest.failf "commit under cache.write=1 returned %s" dir
  | exception Mica_util.Fault.Injected _ -> ());
  Alcotest.(check (array string)) "root holds no entry" [||] (Sys.readdir root);
  Unix.mkdir (Filename.concat root "taken") 0o755;
  Alcotest.(check string)
    "existing directory skipped" (Filename.concat root "taken.2")
    (R.Run_dir.commit ~root ~dirname:"taken" ~manifest:(manifest ()) ~artifacts:[] ())

let test_truncated_manifest_unreadable () =
  with_root @@ fun root ->
  let dir = commit_run root ~tag:"trunc" () in
  let path = Filename.concat dir "manifest.json" in
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub raw 0 (String.length raw / 2));
  close_out oc;
  match R.Run_dir.load dir with
  | Error e -> Alcotest.(check bool) "reason mentions manifest" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "truncated manifest must make the run unreadable"

let test_tampered_artifact_unreadable () =
  with_root @@ fun root ->
  let dir = commit_run root ~tag:"tamper" () in
  let path = Filename.concat dir R.Run_dir.mica_file in
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "w3,9,9\n";
  close_out oc;
  (match R.Run_dir.load dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "digest-mismatched artifact must make the run unreadable");
  (* a listed artifact going missing is equally fatal *)
  Sys.remove path;
  match R.Run_dir.load dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing artifact must make the run unreadable"

let test_missing_run_unreadable () =
  match R.Run_dir.load "/nonexistent/run/dir" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing dir must be an error"

(* [m], framed as [Run_dir] frames a manifest, over [dir]'s manifest. *)
let rewrite_manifest dir m =
  Mica_util.Artifact.write
    (Filename.concat dir "manifest.json")
    (Mica_util.Artifact.frame ~prefix:"#mica-run " ~version:"v1"
       (J.to_string ~pretty:true (R.Manifest.to_json m) ^ "\n"))

(* A manifest with a valid checksum that names a file outside its run
   directory, with that file's correct digest, must not load. *)
let test_manifest_names_inside_run () =
  with_root @@ fun root ->
  let dir = commit_run root ~tag:"escape" () in
  let text = "not part of the run\n" in
  Mica_util.Artifact.write (Filename.concat root "outside.txt") text;
  let m = (load_exn dir).R.Run_dir.manifest in
  List.iter
    (fun name ->
      let files = (name, Mica_util.Artifact.md5_hex text) :: m.R.Manifest.files in
      rewrite_manifest dir { m with R.Manifest.files };
      match R.Run_dir.load dir with
      | Ok _ -> Alcotest.failf "a manifest naming %S must not load" name
      | Error e ->
        Alcotest.(check bool) (Printf.sprintf "error names %S" name) true
          (contains ~sub:(Printf.sprintf "%S" name) e))
    [ "../outside.txt"; Filename.concat root "outside.txt"; "sub/mica_dataset.csv"; ""; "."; ".." ];
  rewrite_manifest dir m;
  Alcotest.(check string) "the untouched manifest loads" "escape"
    (load_exn dir).R.Run_dir.manifest.R.Manifest.tag

(* Integer fields are integers within +/-2^53, where a float holds every
   integer exactly; anything else is rejected, never rounded. *)
let test_manifest_integer_fields () =
  let set path v j =
    let rec go path j =
      match (path, j) with
      | [], _ -> v
      | k :: rest, J.Obj fields -> J.Obj (List.map (fun (k', x) -> if k' = k then (k', go rest x) else (k', x)) fields)
      | _ -> Alcotest.fail "manifest json is nested objects"
    in
    go path j
  in
  let base = R.Manifest.to_json (manifest ()) in
  List.iter
    (fun (path, get) ->
      List.iter
        (fun (v, expected) ->
          let what = Printf.sprintf "%s = %h" (String.concat "." path) v in
          match (R.Manifest.of_json (set path (J.Num v) base), expected) with
          | Ok m, Some n -> Alcotest.(check int) what n (get m)
          | Error _, None -> ()
          | Ok m, None -> Alcotest.failf "%s accepted as %d" what (get m)
          | Error e, Some _ -> Alcotest.failf "%s rejected: %s" what e)
        [
          (7.0, Some 7);
          (-3.0, Some (-3));
          (0x1p53, Some (1 lsl 53));
          (-0x1p53, Some (-(1 lsl 53)));
          (0x1p53 +. 2.0, None);
          (-0x1p60, None);
          (1e300, None);
          (2.5, None);
          (Float.infinity, None);
          (Float.nan, None);
        ])
    [
      ([ "workloads" ], fun m -> m.R.Manifest.workloads);
      ([ "config"; "icount" ], fun m -> m.R.Manifest.icount);
    ]

(* ---------------- compare: metamorphic laws ---------------- *)

(* A count from the comparison's JSON report. *)
let report_count cmp field = Option.bind (J.member field (R.Compare.to_json cmp)) J.to_num

let test_compare_self_empty () =
  with_root @@ fun root ->
  let dir = commit_run root ~tag:"self" ~bench:[ ("k1", 100.0) ] () in
  let r = load_exn dir in
  let cmp = R.Compare.run r r in
  Alcotest.(check bool) "self-compare ok" true (R.Compare.ok cmp);
  Alcotest.(check (option (float 0.0))) "no drift" (Some 0.0) (report_count cmp "drift");
  Alcotest.(check (option (float 0.0))) "no regressions" (Some 0.0) (report_count cmp "regressions");
  List.iter
    (fun (d : R.Compare.cell_delta) -> Alcotest.check feq "zero delta" 0.0 d.R.Compare.rel)
    cmp.R.Compare.char_deltas

let test_compare_antisymmetric () =
  with_root @@ fun root ->
  let da =
    commit_run root ~tag:"a"
      ~cells:[| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]
      ~bench:[ ("k1", 100.0); ("k2", 50.0) ]
      ()
  in
  let db =
    commit_run root ~tag:"b"
      ~cells:[| [| 1.5; 2.0 |]; [| 3.0; 8.0 |] |]
      ~bench:[ ("k1", 300.0); ("k2", 50.0) ]
      ()
  in
  let ra = load_exn da and rb = load_exn db in
  let ab = R.Compare.run ra rb and ba = R.Compare.run rb ra in
  let rel_of cmp col =
    match
      List.find_opt (fun (d : R.Compare.cell_delta) -> d.R.Compare.column = col)
        cmp.R.Compare.char_deltas
    with
    | Some d -> d.R.Compare.rel
    | None -> Alcotest.failf "column %s missing" col
  in
  List.iter
    (fun col ->
      Alcotest.check feq
        ("rel(" ^ col ^ ") antisymmetric under swap")
        (-.rel_of ab col) (rel_of ba col))
    [ "c1"; "c2" ];
  (* bench: a regression one way is an improvement the other way *)
  let bench_of cmp name =
    List.find (fun (d : R.Compare.bench_delta) -> d.R.Compare.bench = name)
      cmp.R.Compare.bench_deltas
  in
  let fwd = bench_of ab "k1" and bwd = bench_of ba "k1" in
  Alcotest.(check bool) "k1 regresses A->B" true fwd.R.Compare.regression;
  Alcotest.(check bool) "k1 improves B->A" true bwd.R.Compare.improvement;
  Alcotest.(check bool) "improvement never gates" false bwd.R.Compare.regression;
  Alcotest.check feq "bench rel antisymmetric" (-.fwd.R.Compare.rel_ns) bwd.R.Compare.rel_ns;
  (* and the verdicts *)
  Alcotest.(check bool) "A->B fails (drift + regression)" false (R.Compare.ok ab);
  Alcotest.(check bool) "B->A fails too (drift gates both ways)" false (R.Compare.ok ba)

let test_compare_tolerance_gate () =
  with_root @@ fun root ->
  let da = commit_run root ~tag:"a" ~bench:[ ("k1", 100.0) ] () in
  let db =
    commit_run root ~tag:"b"
      ~cells:[| [| 1.0; 2.0 |]; [| 3.0; 4.0 +. 1e-9 |] |]
      ~bench:[ ("k1", 120.0) ]
      ()
  in
  let ra = load_exn da and rb = load_exn db in
  (* generous tolerances absorb the tiny drift and the mild slowdown *)
  let lax = { R.Compare.char_rel = 1e-3; bench_rel = 0.5 } in
  Alcotest.(check bool) "within tolerance" true (R.Compare.ok (R.Compare.run ~tol:lax ra rb));
  (* tight tolerances flag both *)
  let strict = { R.Compare.char_rel = 1e-12; bench_rel = 0.05 } in
  let cmp = R.Compare.run ~tol:strict ra rb in
  Alcotest.(check bool) "beyond tolerance" false (R.Compare.ok cmp);
  Alcotest.(check (option (float 0.0))) "one drifting column" (Some 1.0) (report_count cmp "drift");
  Alcotest.(check (option (float 0.0))) "one regression" (Some 1.0) (report_count cmp "regressions")

let test_compare_report_json () =
  with_root @@ fun root ->
  let da = commit_run root ~tag:"a" ~bench:[ ("k1", 100.0) ] () in
  let db = commit_run root ~tag:"b" ~bench:[ ("k1", 300.0) ] () in
  let cmp = R.Compare.run (load_exn da) (load_exn db) in
  let json = R.Compare.to_json cmp in
  (* schema tag, stable serialization, and a parse round-trip *)
  Alcotest.(check (option string))
    "schema" (Some "mica-compare/v1")
    (Option.bind (J.member "schema" json) J.to_str);
  Alcotest.(check (option (float 1e-9)))
    "regression count" (Some 1.0)
    (Option.bind (J.member "regressions" json) J.to_num);
  let s = J.to_string ~pretty:true json in
  Alcotest.(check string) "serialization deterministic" s (J.to_string ~pretty:true json);
  (match J.parse s with
  | Ok j -> Alcotest.(check string) "round-trip" s (J.to_string ~pretty:true j)
  | Error e -> Alcotest.failf "report must parse: %s" e);
  (* the text report names the verdict *)
  let text = R.Compare.render cmp in
  Alcotest.(check bool) "text verdict" true (contains ~sub:"verdict: REGRESSION" text)

(* jobs=1 vs jobs=4 same-seed runs through the real pipeline compare clean *)
let test_compare_pipeline_jobs_invariant () =
  let ws = [ W.Registry.find_exn "MiBench/sha/large"; W.Registry.find_exn "SPEC2000/mcf/ref" ] in
  with_root @@ fun root ->
  let run_with ~tag ~jobs =
    let config =
      {
        C.Pipeline.default_config with
        C.Pipeline.icount = 3_000;
        cache_dir = None;
        jobs;
        run = Some { C.Pipeline.run_root = root; run_tag = tag; run_seeds = [] };
      }
    in
    let _ = C.Pipeline.datasets_report ~config ws in
    match C.Pipeline.committed_run_dir () with
    | Some dir -> dir
    | None -> Alcotest.fail "pipeline should commit a run directory"
  in
  let d1 = run_with ~tag:"serial" ~jobs:1 in
  let d4 = run_with ~tag:"parallel" ~jobs:4 in
  let cmp = R.Compare.run (load_exn d1) (load_exn d4) in
  Alcotest.(check bool) "jobs=1 vs jobs=4 compares clean" true (R.Compare.ok cmp);
  Alcotest.(check (option (float 0.0))) "no drift" (Some 0.0) (report_count cmp "drift");
  Alcotest.(check int) "all 47 characteristics compared" 47
    (List.length cmp.R.Compare.char_deltas);
  Alcotest.(check int) "all 7 counters compared" 7 (List.length cmp.R.Compare.counter_deltas)

(* ---------------- variance ---------------- *)

let test_variance_aggregate () =
  with_root @@ fun root ->
  let mk tag c00 ns =
    let dir =
      commit_run root ~tag ~cells:[| [| c00; 2.0 |]; [| 3.0; 4.0 |] |] ~bench:[ ("k1", ns) ] ()
    in
    load_exn dir
  in
  (* c1 column mean varies wildly run-to-run; c2 is constant; bench k1 is
     mildly noisy *)
  let runs = [ mk "r1" 1.0 100.0; mk "r2" 5.0 102.0; mk "r3" 9.0 98.0 ] in
  let v = R.Variance.analyze ~budget:0.2 runs in
  let row name =
    match List.find_opt (fun (r : R.Variance.row) -> r.R.Variance.metric = name) v.R.Variance.rows with
    | Some r -> r
    | None -> Alcotest.failf "metric %s missing" name
  in
  let c1 = row "char/c1" and c2 = row "char/c2" and k1 = row "bench/k1" in
  Alcotest.(check int) "c1 present in all runs" 3 c1.R.Variance.present;
  (* c1 column means per run are 2, 4, 6: grand mean 4 *)
  Alcotest.check Tutil.feq_loose "c1 mean of means" 4.0
    c1.R.Variance.stats.Mica_stats.Descriptive.mean_v;
  Alcotest.(check bool) "c1 noisy" true c1.R.Variance.noisy;
  Alcotest.check feq "c2 deterministic -> CV 0" 0.0 c2.R.Variance.stats.Mica_stats.Descriptive.cv;
  Alcotest.(check bool) "c2 quiet" false c2.R.Variance.noisy;
  Alcotest.(check bool) "bench CV small" true (k1.R.Variance.stats.Mica_stats.Descriptive.cv < 0.05);
  (* noisiest first *)
  (match v.R.Variance.rows with
  | first :: _ -> Alcotest.(check string) "sorted by CV" "char/c1" first.R.Variance.metric
  | [] -> Alcotest.fail "rows nonempty");
  Alcotest.(check int) "one noisy metric" 1 (List.length (R.Variance.noisy v));
  (* report formats *)
  let json = R.Variance.to_json v in
  Alcotest.(check (option string))
    "schema" (Some "mica-variance/v1")
    (Option.bind (J.member "schema" json) J.to_str);
  let s = J.to_string ~pretty:true json in
  (match J.parse s with
  | Ok j -> Alcotest.(check string) "variance json round-trip" s (J.to_string ~pretty:true j)
  | Error e -> Alcotest.failf "variance json must parse: %s" e);
  Alcotest.(check bool) "text flags noise" true (contains ~sub:"NOISY" (R.Variance.render v))

(* a NaN characteristic in one run must be counted as dropped, not
   silently vanish from the sample set *)
let test_variance_dropped_nonfinite () =
  with_root @@ fun root ->
  let mk tag c00 =
    load_exn (commit_run root ~tag ~cells:[| [| c00; 2.0 |]; [| 3.0; 4.0 |] |] ())
  in
  let runs = [ mk "r1" 1.0; mk "r2" Float.nan; mk "r3" 1.0 ] in
  let v = R.Variance.analyze ~budget:0.2 runs in
  let row name =
    match
      List.find_opt (fun (r : R.Variance.row) -> r.R.Variance.metric = name) v.R.Variance.rows
    with
    | Some r -> r
    | None -> Alcotest.failf "metric %s missing" name
  in
  let c1 = row "char/c1" and c2 = row "char/c2" in
  Alcotest.(check int) "c1 keeps the finite samples" 2 c1.R.Variance.present;
  Alcotest.(check int) "c1 counts the NaN run" 1 c1.R.Variance.dropped;
  Alcotest.check feq "c1 summarizes finite samples only" 2.0
    c1.R.Variance.stats.Mica_stats.Descriptive.mean_v;
  Alcotest.(check int) "c2 untouched" 0 c2.R.Variance.dropped;
  Alcotest.(check bool) "table reports dropped=1" true
    (contains ~sub:"dropped=1" (R.Variance.render v));
  let row_json =
    match J.member "metrics" (R.Variance.to_json v) with
    | Some (J.List items) ->
      List.find_opt
        (fun item -> J.member "metric" item = Some (J.Str "char/c1"))
        items
    | _ -> None
  in
  match row_json with
  | Some item ->
    Alcotest.(check (option (float 1e-9))) "json dropped field" (Some 1.0)
      (Option.bind (J.member "dropped" item) J.to_num)
  | None -> Alcotest.fail "char/c1 missing from json metrics"

let test_variance_metrics_of_run () =
  with_root @@ fun root ->
  let dir = commit_run root ~tag:"m" ~bench:[ ("k1", 100.0) ] () in
  let r = load_exn dir in
  let rows = (R.Variance.analyze [ r; r ]).R.Variance.rows in
  let mean name =
    List.find_map
      (fun (row : R.Variance.row) ->
        if row.R.Variance.metric = name then Some row.R.Variance.stats.Mica_stats.Descriptive.mean_v
        else None)
      rows
  in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " extracted") true (mean n <> None))
    [ "char/c1"; "char/c2"; "bench/k1" ];
  Alcotest.(check (option (float 1e-9))) "bench value" (Some 100.0) (mean "bench/k1")

(* ---------------- resolve: latest / dangling / not-a-run ---------------- *)

let check_resolve_error name p ~sub =
  match R.Run_dir.resolve p with
  | `Error reason -> Alcotest.(check bool) (name ^ ": reason mentions " ^ sub) true
      (contains ~sub reason)
  | `Run d -> Alcotest.failf "%s: resolved to run %s" name d
  | `Not_run -> Alcotest.failf "%s: fell through to `Not_run" name

let test_resolve_run_dir () =
  with_root @@ fun root ->
  let dir = commit_run root ~tag:"r" () in
  (match R.Run_dir.resolve dir with
  | `Run d -> Alcotest.(check string) "resolves to itself" dir d
  | _ -> Alcotest.fail "committed run must resolve");
  match R.Run_dir.resolve (Filename.concat root "latest") with
  | `Run d -> Alcotest.(check string) "latest resolves to newest run" dir d
  | _ -> Alcotest.fail "latest must resolve when a run exists"

let test_resolve_latest_missing_root () =
  with_root @@ fun root ->
  check_resolve_error "missing root" (Filename.concat root "latest")
    ~sub:"no runs have been committed"

let test_resolve_latest_empty_root () =
  with_root @@ fun root ->
  Unix.mkdir root 0o755;
  check_resolve_error "empty root" (Filename.concat root "latest") ~sub:"no run directories"

let test_resolve_plain_dir () =
  with_root @@ fun root ->
  Unix.mkdir root 0o755;
  check_resolve_error "plain dir" root ~sub:"manifest.json"

let test_resolve_dangling_symlink () =
  with_root @@ fun root ->
  Unix.mkdir root 0o755;
  let link = Filename.concat root "latest" in
  Unix.symlink (Filename.concat root "gone-20260101-000000") link;
  check_resolve_error "dangling symlink" link ~sub:"dangling"

let test_resolve_not_a_path () =
  with_root @@ fun root ->
  match R.Run_dir.resolve (Filename.concat root "nope") with
  | `Not_run -> ()
  | `Run d -> Alcotest.failf "nonexistent path resolved to %s" d
  | `Error e -> Alcotest.failf "nonexistent non-latest path must be `Not_run, got: %s" e

let suite =
  ( "run",
    [
      Alcotest.test_case "manifest golden format" `Quick test_manifest_golden;
      Alcotest.test_case "manifest round-trip" `Quick test_manifest_roundtrip;
      Alcotest.test_case "manifest rejects bad json" `Quick test_manifest_rejects;
      Alcotest.test_case "checksummed io round-trip + tamper" `Quick test_checksummed_roundtrip;
      Alcotest.test_case "table csv round-trip" `Quick test_table_csv_roundtrip;
      Alcotest.test_case "commit and load" `Quick test_commit_and_load;
      Alcotest.test_case "commit rolls back and claims atomically" `Quick
        test_commit_rollback_and_claim;
      Alcotest.test_case "truncated manifest unreadable" `Quick test_truncated_manifest_unreadable;
      Alcotest.test_case "tampered artifact unreadable" `Quick test_tampered_artifact_unreadable;
      Alcotest.test_case "missing run unreadable" `Quick test_missing_run_unreadable;
      Alcotest.test_case "manifest names stay inside the run" `Quick test_manifest_names_inside_run;
      Alcotest.test_case "manifest integer fields within 2^53" `Quick test_manifest_integer_fields;
      Alcotest.test_case "compare: self is empty and ok" `Quick test_compare_self_empty;
      Alcotest.test_case "compare: antisymmetric under swap" `Quick test_compare_antisymmetric;
      Alcotest.test_case "compare: tolerance gates" `Quick test_compare_tolerance_gate;
      Alcotest.test_case "compare: json/text reports" `Quick test_compare_report_json;
      Alcotest.test_case "compare: jobs=1 vs jobs=4 clean" `Slow test_compare_pipeline_jobs_invariant;
      Alcotest.test_case "variance: aggregate over runs" `Quick test_variance_aggregate;
      Alcotest.test_case "variance: non-finite samples counted as dropped" `Quick
        test_variance_dropped_nonfinite;
      Alcotest.test_case "variance: metrics extraction" `Quick test_variance_metrics_of_run;
      Alcotest.test_case "resolve: run dir and latest" `Quick test_resolve_run_dir;
      Alcotest.test_case "resolve: latest without root" `Quick test_resolve_latest_missing_root;
      Alcotest.test_case "resolve: latest of empty root" `Quick test_resolve_latest_empty_root;
      Alcotest.test_case "resolve: plain directory" `Quick test_resolve_plain_dir;
      Alcotest.test_case "resolve: dangling symlink" `Quick test_resolve_dangling_symlink;
      Alcotest.test_case "resolve: other paths fall through" `Quick test_resolve_not_a_path;
    ] )
