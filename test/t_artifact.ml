(* Byte pins for every on-disk artifact writer: the characterization
   caches, the per-workload checkpoints, a run directory and a MICD store,
   each written from fixed inputs and pinned by the MD5 of the bytes it
   leaves on disk.  The pins were printed by the writers before they shared
   one I/O module, so any drift in header, framing or body layout fails
   here.  Also pinned: a headerless cache, the layout the first release
   wrote, is still served as-is. *)

module Core = Mica_core
module Pipeline = Mica_core.Pipeline
module R = Mica_run
module Fault = Mica_util.Fault
module W = Mica_workloads

let md5_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Digest.to_hex (Digest.string s)

(* Every file under [dir] (recursively, relative names) with its MD5,
   sorted by name. *)
let digests dir =
  let rec walk rel =
    let path = if rel = "" then dir else Filename.concat dir rel in
    if Sys.is_directory path then
      Array.to_list (Sys.readdir path)
      |> List.concat_map (fun f -> walk (if rel = "" then f else Filename.concat rel f))
    else [ (rel, md5_file path) ]
  in
  List.sort compare (walk "")

let check_digests what expected dir =
  Alcotest.(check (list (pair string string))) what expected (digests dir)

(* ---------------- fixed inputs ---------------- *)

let cache_config dir =
  { Pipeline.default_config with Pipeline.icount = 1_000; cache_dir = Some dir;
    progress = false; jobs = 1; run = None }

(* Three rows with awkward names (a comma, a quote) and values that need
   all 17 significant digits, an exponent or a sign. *)
let cache_entries =
  let row i n = Array.init n (fun j -> (float_of_int ((i * 131) + j) /. 7.0) -. 3.0 +. (1e-9 *. float_of_int j)) in
  [
    ("Suite/alpha/ref", (row 1 47, row 2 7));
    ("Suite/beta,comma/train", (row 3 47, row 4 7));
    ("Suite/gamma \"quoted\"/test", (Array.map (fun v -> -.v *. 1e12) (row 5 47), row 6 7));
  ]

let run_manifest =
  {
    R.Manifest.schema = R.Manifest.schema_version;
    created = "20260101-000000";
    tag = "pin";
    subcommand = "characterize";
    argv = [ "mica"; "characterize"; "MiBench/sha/large"; "--icount"; "1000" ];
    git_rev = "0123456789abcdef0123456789abcdef01234567";
    icount = 1000;
    ppm_order = 8;
    jobs = 2;
    retries = 1;
    cache = true;
    mica_jobs_env = Some "2";
    fault_spec = None;
    seeds = [ ("ga", "0x6a5eed") ];
    workloads = 2;
    report = "2 computed, 0 cached";
    files = [];
  }

let run_artifacts =
  let table columns cells =
    R.Run_dir.csv_of_table
      { R.Run_dir.row_names = [| "MiBench/sha/large"; "SPEC2000/mcf/ref" |]; columns; cells }
  in
  [
    {
      R.Run_dir.filename = R.Run_dir.mica_file;
      contents = table [| "pct_load"; "dep<=2" |] [| [| 0.1; 1.0 /. 3.0 |]; [| -2.5e-7; 47.0 |] |];
    };
    {
      R.Run_dir.filename = R.Run_dir.hpc_file;
      contents = table [| "ipc_ev56" |] [| [| 0.875 |]; [| 1.0 /. 7.0 |] |];
    };
    {
      R.Run_dir.filename = R.Run_dir.metrics_file;
      contents = "{\"metrics\": {\"cache.hits\": {\"kind\": \"counter\", \"value\": 2}}, \"spans\": {}}\n";
    };
  ]

let store_dataset () =
  let names = [| "w0"; "w1,comma"; "w2 \"q\"" |] in
  let features = [| "f0"; "f1"; "f2"; "f3" |] in
  let data =
    Array.init 3 (fun i -> Array.init 4 (fun j -> (float_of_int ((i * 4) + j) /. 3.0) -. 1.5))
  in
  Core.Dataset.create ~names ~features data

(* ---------------- pins ---------------- *)

let test_cache_pin () =
  Tutil.with_temp_dir (fun dir ->
      Pipeline.flush_cache (cache_config dir) cache_entries;
      check_digests "flush_cache writes these bytes"
        [
          ("hpc-v3-1000.csv", "78d40bb75893da17d198c3104c9bc56e");
          ("mica-v3-1000.csv", "a98d8e4c2fabcbf908689f710c42b7e7");
        ]
        dir)

(* The interrupted run of t_verify's crash-resume test: the main cache
   commit and workload 0's checkpoint fail, two checkpoints remain. *)
let test_checkpoint_pin () =
  Tutil.with_temp_dir (fun dir ->
      let trio =
        List.map W.Registry.find_exn [ "MiBench/sha/large"; "SPEC2000/mcf/ref"; "SPEC2000/swim/ref" ]
      in
      let plan = match Fault.parse "seed=1,cache.write=1@0" with Ok p -> p | Error e -> failwith e in
      Fault.with_plan (Some plan) (fun () ->
          let (_ : Core.Dataset.t * Core.Dataset.t * Core.Run_report.t) =
            Pipeline.datasets_report ~config:(cache_config dir) trio
          in
          ());
      check_digests "checkpoints left by an interrupted run"
        [
          ( "checkpoints/ckpt-89295eca7ec3d3bb1b9b2df7085e0d8d.csv",
            "d4ea86fda48c83c5f2fb2d7262cdd30a" );
          ( "checkpoints/ckpt-a92843d59f6a76bd9266786929a39311.csv",
            "16bdb8970609296b288eaf189251b1df" );
        ]
        dir)

let test_run_dir_pin () =
  Tutil.with_temp_dir (fun root ->
      let dir =
        R.Run_dir.commit ~root ~dirname:"pinned" ~manifest:run_manifest ~artifacts:run_artifacts ()
      in
      Alcotest.(check string) "directory" (Filename.concat root "pinned") dir;
      check_digests "every file of the run"
        [
          ("hpc_dataset.csv", "804911d7aeb6c1f33cdc25515743a51a");
          ("manifest.json", "14b94619a22c5e1284f687fffba13a46");
          ("metrics.json", "6ea96289fab711dc6fdde031abf67fe6");
          ("mica_dataset.csv", "83a58f42b0288b78633cd31fb3b09ccf");
        ]
        dir)

let test_store_pin () =
  Tutil.with_temp_dir (fun dir ->
      Core.Dataset_store.write (Filename.concat dir "pinned.micd") (store_dataset ());
      check_digests "Dataset_store.write" [ ("pinned.micd", "fe85b18aa49e37ceb61f2b8fce91e016") ] dir)

(* A cache pair without a checksum header, as the first release wrote it
   (Dataset.to_csv): served without recomputing, and left untouched. *)
let test_headerless_cache_served () =
  Tutil.with_temp_dir (fun dir ->
      let ws = List.map W.Registry.find_exn [ "MiBench/sha/large"; "SPEC2000/mcf/ref" ] in
      let ids = Array.of_list (List.map W.Workload.id ws) in
      (* recognizable values no analyzer produces *)
      let mica = Array.init 2 (fun i -> Array.init 47 (fun j -> 1000.0 +. float_of_int ((i * 47) + j))) in
      let hpc = Array.init 2 (fun i -> Array.init 7 (fun j -> -.float_of_int ((i * 7) + j + 1))) in
      let write kind features data =
        Core.Dataset.to_csv
          (Core.Dataset.create ~names:ids ~features data)
          (Filename.concat dir (Printf.sprintf "%s-%s-1000.csv" kind Pipeline.model_version))
      in
      write "mica" Mica_analysis.Characteristics.short_names mica;
      write "hpc" Mica_uarch.Hw_counters.short_names hpc;
      let before = digests dir in
      let config = cache_config dir in
      let warm = Pipeline.warm_cache config in
      Alcotest.(check (list string)) "warm_cache serves both rows" (Array.to_list ids)
        (List.map (fun (id, _, _) -> id) warm);
      List.iteri
        (fun i (_, m, h) ->
          Alcotest.(check bool) "mica row bit-identical" true (m = mica.(i));
          Alcotest.(check bool) "hpc row bit-identical" true (h = hpc.(i)))
        warm;
      let m, h, report = Pipeline.datasets_report ~config ws in
      Alcotest.(check int) "nothing recomputed" 0 (Core.Run_report.computed report);
      Alcotest.(check int) "both served from the cache" 2 (Core.Run_report.cached report);
      Alcotest.(check bool) "mica dataset is the cache" true (m.Core.Dataset.data = mica);
      Alcotest.(check bool) "hpc dataset is the cache" true (h.Core.Dataset.data = hpc);
      Alcotest.(check (list (pair string string))) "files untouched" before (digests dir))

let suite =
  ( "artifact",
    [
      Alcotest.test_case "pin: cache files" `Quick test_cache_pin;
      Alcotest.test_case "pin: checkpoint files" `Quick test_checkpoint_pin;
      Alcotest.test_case "pin: run directory" `Quick test_run_dir_pin;
      Alcotest.test_case "pin: MICD store" `Quick test_store_pin;
      Alcotest.test_case "headerless cache served as written" `Quick test_headerless_cache_served;
    ] )
