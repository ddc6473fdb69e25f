(* Machine-description loader, fleet characterization, and the calibrated
   baseline suite.

   The tests here pin the contracts: the compiled-in presets are the
   machines/ files, a one-pass fleet fanout equals N single-machine passes
   bit-for-bit, and the loader returns actionable [Error]s — never an
   exception — on malformed input. *)

module U = Mica_uarch
module Desc = Mica_uarch.Machine_desc
module Fleet = Mica_core.Fleet
module Registry = Mica_workloads.Registry

(* The descriptions are a dune dep of this directory.  [dune runtest] runs
   the binary from _build/default/test (machines/ is a sibling); [dune
   exec test/...] keeps the caller's cwd, typically the project root. *)
let machines_dir =
  if Sys.file_exists "../machines/ev56.json" then "../machines" else "machines"

let load_dir_exn () =
  match Desc.load_dir machines_dir with
  | Ok named -> named
  | Error m -> Alcotest.failf "load_dir: %s" m

let bits v = Array.map Int64.bits_of_float v

(* ---------------- loader: the shipped fleet ---------------- *)

let test_load_dir_ships_eight () =
  let named = load_dir_exn () in
  Alcotest.(check int) "eight machine descriptions" 8 (List.length named);
  let names = List.map fst named in
  List.iter
    (fun p ->
      if not (List.mem p names) then Alcotest.failf "preset %s missing from machines/" p)
    [ "ev56"; "ev67"; "embedded"; "wide" ]

let test_load_dir_missing () =
  match Desc.load_dir "no-such-dir" with
  | Ok _ -> Alcotest.fail "expected Error for a missing directory"
  | Error m -> Alcotest.(check bool) "names the directory" true (String.length m > 0)

(* ---------------- loader: rejection, never an exception ---------------- *)

let expect_error what ~contains json =
  match Desc.parse_string ~source:"test.json" json with
  | Ok _ -> Alcotest.failf "%s: expected Error" what
  | Error m ->
    let lower = String.lowercase_ascii m in
    let has needle =
      let n = String.length needle and l = String.length lower in
      let rec go i = i + n <= l && (String.sub lower i n = needle || go (i + 1)) in
      go 0
    in
    if not (has (String.lowercase_ascii contains)) then
      Alcotest.failf "%s: error %S does not mention %S" what m contains
  | exception e -> Alcotest.failf "%s: raised %s instead of Error" what (Printexc.to_string e)

(* A valid description we can break one field at a time. *)
let valid_json =
  In_channel.with_open_bin (Filename.concat machines_dir "ev56.json") In_channel.input_all

(* first-occurrence textual replace, so each test breaks one field *)
let patch ~pattern ~with_ s =
  let plen = String.length pattern in
  let rec find i =
    if i + plen > String.length s then None
    else if String.sub s i plen = pattern then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "patch: %S not found in description" pattern
  | Some i -> String.sub s 0 i ^ with_ ^ String.sub s (i + plen) (String.length s - i - plen)

let test_reject_truncated () =
  let half = String.sub valid_json 0 (String.length valid_json / 2) in
  expect_error "truncated file" ~contains:"truncated" half

let test_reject_unknown_predictor () =
  expect_error "unknown predictor kind" ~contains:"predictor"
    (patch ~pattern:{|"bimodal"|} ~with_:{|"ttage"|} valid_json)

let test_reject_zero_cache_size () =
  expect_error "zero cache size" ~contains:"size"
    (patch ~pattern:{|"size_bytes": 8192|} ~with_:{|"size_bytes": 0|} valid_json)

let test_reject_negative_cache_size () =
  expect_error "negative cache size" ~contains:"size"
    (patch ~pattern:{|"size_bytes": 8192|} ~with_:{|"size_bytes": -64|} valid_json)

let test_reject_duplicate_level () =
  expect_error "duplicate level names" ~contains:"duplicate"
    (patch ~pattern:{|"name": "l1d"|} ~with_:{|"name": "l1i"|} valid_json)

let test_reject_missing_level () =
  expect_error "missing level" ~contains:"l2"
    (patch ~pattern:{|"name": "l2"|} ~with_:{|"name": "l3"|} valid_json)

let test_reject_unknown_opcode_class () =
  expect_error "unknown opcode class" ~contains:"opcode"
    (patch ~pattern:{|"fp_div"|} ~with_:{|"fp_sqrt"|} valid_json)

let test_reject_bad_json () =
  expect_error "not json at all" ~contains:"json" "]["

let test_reject_non_pow2_predictor () =
  expect_error "non-pow2 predictor entries" ~contains:"power of two"
    (patch ~pattern:{|"entries": 2048|} ~with_:{|"entries": 1000|} valid_json)

let test_reject_zero_tlb_entries () =
  expect_error "zero tlb entries" ~contains:"entries"
    (patch ~pattern:{|"entries": 64|} ~with_:{|"entries": 0|} valid_json)

let test_reject_one_byte_lines () =
  expect_error "1-byte cache lines" ~contains:"line_bytes"
    (patch ~pattern:{|"line_bytes": 32|} ~with_:{|"line_bytes": 1|} valid_json)

let test_reject_one_byte_pages () =
  expect_error "1-byte pages" ~contains:"page_bytes"
    (patch ~pattern:{|"page_bytes": 8192|} ~with_:{|"page_bytes": 1|} valid_json)

let test_load_missing_file () =
  match Desc.load "no/such/machine.json" with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error m -> Alcotest.(check bool) "names the file" true (String.length m > 0)
  | exception e -> Alcotest.failf "raised %s instead of Error" (Printexc.to_string e)

(* ---------------- compiled-in descriptions ---------------- *)

(* Each compiled-in description parses to what loading its file does. *)
let test_compiled_in_match_files () =
  let load file =
    match Desc.load (Filename.concat machines_dir file) with
    | Ok cfg -> cfg
    | Error m -> Alcotest.failf "%s: %s" file m
  in
  Alcotest.(check (list string)) "preset order" [ "ev56"; "ev67"; "embedded"; "wide" ]
    (List.map (fun (c : U.Machine.config) -> c.U.Machine.name) (Desc.presets ()));
  List.iter
    (fun (cfg : U.Machine.config) ->
      if load (cfg.U.Machine.name ^ ".json") <> cfg then
        Alcotest.failf "compiled-in %s differs from machines/%s.json" cfg.U.Machine.name
          cfg.U.Machine.name)
    (Desc.presets ());
  if load "paper/ev67.json" <> Desc.paper_ev67 () then
    Alcotest.fail "compiled-in paper EV67 differs from machines/paper/ev67.json"

let test_l1i_latency_roundtrip () =
  (* l1i and l1d latencies are separate data: a description with
     different values keeps both in the config.  The cache levels come
     before the ops table, so the first two [latency] fields are l1i's and
     l1d's. *)
  let text =
    valid_json
    |> patch ~pattern:{|"latency": 1|} ~with_:{|"latency": 5|}
    |> patch ~pattern:{|"latency": 1|} ~with_:{|"latency": 2|}
  in
  match Desc.parse_string ~source:"patched.json" text with
  | Error m -> Alcotest.failf "parse_string: %s" m
  | Ok cfg ->
    Alcotest.(check (pair int int))
      "l1i_latency, l1_latency" (5, 2)
      (cfg.U.Machine.l1i_latency, cfg.U.Machine.l1_latency);
    Alcotest.(check bool) "nothing else moved" true
      ({ (U.Hw_counters.ev56 ()) with U.Machine.l1i_latency = 5; l1_latency = 2 } = cfg)

let some_workloads n =
  List.filteri (fun i _ -> i mod (Registry.count / n) = 0) Registry.all

let test_fleet_one_pass_equals_n_pass () =
  let configs = List.map snd (load_dir_exn ()) in
  let workloads = some_workloads 6 in
  let fanout = Fleet.characterize ~jobs:4 ~configs ~icount:5_000 workloads in
  let n_pass = Fleet.characterize_n_pass ~configs ~icount:5_000 workloads in
  Alcotest.(check bool) "same ids" true (fanout.Fleet.workload_ids = n_pass.Fleet.workload_ids);
  Array.iteri
    (fun i row ->
      if bits row <> bits n_pass.Fleet.matrix.(i) then
        Alcotest.failf "%s: fanout differs from N passes" fanout.Fleet.workload_ids.(i))
    fanout.Fleet.matrix

let test_fleet_table_shape () =
  let configs = List.map snd (load_dir_exn ()) in
  let fleet = Fleet.characterize ~jobs:1 ~configs ~icount:2_000 (some_workloads 3) in
  let table = Fleet.to_table fleet in
  let module R = Mica_run.Run_dir in
  Alcotest.(check int) "48 columns" (8 * 6) (Array.length table.R.columns);
  (* machine-major: first six columns belong to the first machine *)
  let first = fleet.Fleet.machine_names.(0) in
  Array.iteri
    (fun i metric ->
      Alcotest.(check string) "column name" (first ^ "." ^ metric) table.R.columns.(i))
    fleet.Fleet.metric_names;
  Alcotest.(check int) "rows" (Array.length fleet.Fleet.workload_ids)
    (Array.length table.R.cells)

let test_fleet_rejects_duplicates () =
  (try
     ignore
       (Fleet.characterize ~jobs:1
          ~configs:[ U.Hw_counters.ev56 (); U.Hw_counters.ev56 () ]
          ~icount:1_000 (some_workloads 2));
     Alcotest.fail "expected Invalid_argument for duplicate machine names"
   with Invalid_argument _ -> ());
  try
    ignore (Fleet.characterize ~jobs:1 ~configs:[] ~icount:1_000 (some_workloads 2));
    Alcotest.fail "expected Invalid_argument for an empty fleet"
  with Invalid_argument _ -> ()

let test_fleet_report_shape () =
  let configs = List.map snd (load_dir_exn ()) in
  let fleet = Fleet.characterize ~jobs:2 ~configs ~icount:2_000 (some_workloads 8) in
  let r = Fleet.report fleet in
  Alcotest.(check int) "one row per machine" 8 (List.length r.Fleet.rows);
  Alcotest.(check int) "all machine pairs" (8 * 7 / 2) (List.length r.Fleet.cross);
  List.iter
    (fun (a, b, c) ->
      if Float.is_nan c then Alcotest.failf "%s vs %s: NaN correlation" a b;
      if c < -1.0 -. 1e-9 || c > 1.0 +. 1e-9 then
        Alcotest.failf "%s vs %s: correlation %f out of [-1,1]" a b c)
    r.Fleet.cross

(* ---------------- calibrated baseline suite ---------------- *)

let test_baseline_all_machines_in_envelope () =
  let configs = List.map snd (load_dir_exn ()) in
  let outcomes = U.Baseline.run_all configs in
  if not (U.Baseline.passed outcomes) then
    Alcotest.failf "calibration failures:\n%s"
      (U.Baseline.render (U.Baseline.failures outcomes))

let test_baseline_deterministic () =
  let configs = [ U.Hw_counters.ev56 (); Tutil.preset "wide" ] in
  let a = U.Baseline.run_all ~icount:10_000 configs in
  let b = U.Baseline.run_all ~icount:10_000 configs in
  List.iter2
    (fun (x : U.Baseline.outcome) (y : U.Baseline.outcome) ->
      if Int64.bits_of_float x.U.Baseline.value <> Int64.bits_of_float y.U.Baseline.value then
        Alcotest.failf "%s/%s not deterministic" x.U.Baseline.machine x.U.Baseline.metric)
    a b

let test_baseline_kernels_validate () =
  List.iter
    (fun (name, spec) ->
      match Mica_trace.Kernel.validate spec with
      | Ok () -> ()
      | Error m -> Alcotest.failf "kernel %s invalid: %s" name m)
    U.Baseline.kernels

let test_baseline_unknown_kernel () =
  (try
     ignore (U.Baseline.program "fibonacci");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument m ->
    Alcotest.(check bool) "lists valid names" true
      (String.length m > 0));
  try
    ignore (U.Baseline.envelopes (U.Hw_counters.ev56 ()) ~kernel:"fibonacci");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_baseline_envelopes_sane () =
  List.iter
    (fun (cfg : U.Machine.config) ->
      List.iter
        (fun kernel ->
          let es = U.Baseline.envelopes cfg ~kernel in
          if es = [] then Alcotest.failf "%s/%s: no envelopes" cfg.U.Machine.name kernel;
          List.iter
            (fun (e : U.Baseline.envelope) ->
              if e.U.Baseline.lo > e.U.Baseline.hi then
                Alcotest.failf "%s/%s/%s: lo > hi" cfg.U.Machine.name kernel
                  e.U.Baseline.metric;
              if not (Array.mem e.U.Baseline.metric U.Machine.metric_names) then
                Alcotest.failf "%s/%s: unknown metric %s" cfg.U.Machine.name kernel
                  e.U.Baseline.metric)
            es)
        U.Baseline.kernel_names)
    (Desc.presets ())

let suite =
  ( "fleet",
    [
      Alcotest.test_case "machines/ ships the fleet" `Quick test_load_dir_ships_eight;
      Alcotest.test_case "load_dir missing dir" `Quick test_load_dir_missing;
      Alcotest.test_case "reject truncated file" `Quick test_reject_truncated;
      Alcotest.test_case "reject unknown predictor" `Quick test_reject_unknown_predictor;
      Alcotest.test_case "reject zero cache size" `Quick test_reject_zero_cache_size;
      Alcotest.test_case "reject negative cache size" `Quick test_reject_negative_cache_size;
      Alcotest.test_case "reject duplicate level" `Quick test_reject_duplicate_level;
      Alcotest.test_case "reject missing level" `Quick test_reject_missing_level;
      Alcotest.test_case "reject unknown opcode class" `Quick test_reject_unknown_opcode_class;
      Alcotest.test_case "reject malformed json" `Quick test_reject_bad_json;
      Alcotest.test_case "reject non-pow2 predictor" `Quick test_reject_non_pow2_predictor;
      Alcotest.test_case "reject zero tlb entries" `Quick test_reject_zero_tlb_entries;
      Alcotest.test_case "reject 1-byte cache lines" `Quick test_reject_one_byte_lines;
      Alcotest.test_case "reject 1-byte pages" `Quick test_reject_one_byte_pages;
      Alcotest.test_case "load missing file" `Quick test_load_missing_file;
      Alcotest.test_case "compiled-in presets = machines/ files" `Quick test_compiled_in_match_files;
      Alcotest.test_case "l1i latency round trip" `Quick test_l1i_latency_roundtrip;
      Alcotest.test_case "one pass = N passes" `Quick test_fleet_one_pass_equals_n_pass;
      Alcotest.test_case "fleet table shape" `Quick test_fleet_table_shape;
      Alcotest.test_case "fleet rejects bad config lists" `Quick test_fleet_rejects_duplicates;
      Alcotest.test_case "fleet report shape" `Quick test_fleet_report_shape;
      Alcotest.test_case "baseline within envelopes" `Slow
        test_baseline_all_machines_in_envelope;
      Alcotest.test_case "baseline deterministic" `Quick test_baseline_deterministic;
      Alcotest.test_case "baseline kernels validate" `Quick test_baseline_kernels_validate;
      Alcotest.test_case "baseline unknown kernel" `Quick test_baseline_unknown_kernel;
      Alcotest.test_case "baseline envelopes sane" `Quick test_baseline_envelopes_sane;
    ] )
