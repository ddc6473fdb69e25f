(* Qualitative checks of the workload-family builders: every archetype must
   produce a valid program whose measured characteristics exhibit the
   behaviour the family claims to model.  These are the tests that keep the
   122 benchmark models honest. *)

module F = Mica_workloads.Families
module A = Mica_analysis
module P = Mica_trace.Program

let icount = 30_000

let analyze program = A.Analyzer.analyze_full program ~icount

let all_families =
  [
    ("tiny_dsp_loop", F.tiny_dsp_loop ~name:"fam/tiny" ());
    ("dsp_transform", F.dsp_transform ~name:"fam/dsp" ());
    ("block_codec", F.block_codec ~name:"fam/block" ());
    ("bitstream_codec", F.bitstream_codec ~name:"fam/bitstream" ());
    ("table_crypto", F.table_crypto ~name:"fam/crypto" ());
    ("pointer_network", F.pointer_network ~name:"fam/net" ());
    ("graph_optimizer", F.graph_optimizer ~name:"fam/graph" ());
    ("interpreter", F.interpreter ~name:"fam/interp" ());
    ("oo_database", F.oo_database ~name:"fam/oodb" ());
    ("fp_stencil", F.fp_stencil ~name:"fam/stencil" ());
    ("fp_dense", F.fp_dense ~name:"fam/dense" ());
    ("fp_stream", F.fp_stream ~name:"fam/stream" ());
    ("seq_search", F.seq_search ~name:"fam/search" ());
    ("dynamic_prog", F.dynamic_prog ~name:"fam/dp" ());
    ("tree_search", F.tree_search ~name:"fam/tree" ());
    ("sort_kernel", F.sort_kernel ~name:"fam/sort" ());
    ("bit_kernel", F.bit_kernel ~name:"fam/bit" ());
    ("speech_synth", F.speech_synth ~name:"fam/speech" ());
    ("raytracer", F.raytracer ~name:"fam/ray" ());
    ("sw_render", F.sw_render ~name:"fam/render" ());
  ]

let test_all_families_valid () =
  List.iter
    (fun (name, program) ->
      match P.validate program with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "family %s invalid: %s" name msg)
    all_families

let test_all_families_generate_and_analyze () =
  List.iter
    (fun (name, program) ->
      let a = analyze program in
      let v = A.Analyzer.vector a in
      Array.iteri
        (fun i x ->
          if Float.is_nan x then Alcotest.failf "family %s: characteristic %d NaN" name i)
        v;
      if A.Analyzer.instructions a <> icount then Alcotest.failf "family %s truncated" name)
    all_families

(* -------- per-family qualitative properties -------- *)

let mix name = A.Analyzer.mix (analyze (List.assoc name all_families))
let ws name = A.Analyzer.working_set (analyze (List.assoc name all_families))
(* One category's slice of a family's characteristic vector. *)
let category cat name =
  let v = A.Analyzer.vector (analyze (List.assoc name all_families)) in
  Array.of_list
    (List.filteri (fun i _ -> A.Characteristics.categories.(i) = cat) (Array.to_list v))

let ppm = category A.Characteristics.Branch_predictability
let ilp = category A.Characteristics.Ilp

let test_fp_families_have_fp () =
  List.iter
    (fun fam ->
      let m = mix fam in
      if m.A.Mix.frac_fp < 0.1 then
        Alcotest.failf "%s should be FP-heavy (got %.3f)" fam m.A.Mix.frac_fp)
    [ "fp_stencil"; "fp_dense"; "fp_stream" ];
  List.iter
    (fun fam ->
      let m = mix fam in
      if m.A.Mix.frac_fp > 0.01 then Alcotest.failf "%s should be integer-only" fam)
    [ "bitstream_codec"; "table_crypto"; "pointer_network"; "bit_kernel" ]

let test_tiny_kernels_are_predictable () =
  let tiny = ppm "tiny_dsp_loop" and bitstream = ppm "bitstream_codec" in
  (* GAg miss rate: tiny DSP loops far more predictable than compressors *)
  Alcotest.(check bool) "tiny << bitstream" true (tiny.(0) < bitstream.(0) /. 2.0)

let test_working_set_ordering () =
  let pages fam = (ws fam).A.Working_set.data_pages in
  let tiny = pages "tiny_dsp_loop" and graph = pages "graph_optimizer" in
  Alcotest.(check bool) "graph optimizer touches far more pages" true (graph > 10 * tiny)

let test_interpreter_code_footprint () =
  let iblocks fam = (ws fam).A.Working_set.instr_blocks in
  let interp = iblocks "interpreter" and tiny = iblocks "tiny_dsp_loop" in
  Alcotest.(check bool) "interpreter I-footprint dwarfs kernels" true (interp > 10 * tiny)

let test_stencil_ilp_beats_serial_dsp () =
  (* idealized (perfect-memory) ILP: independent array iterations expose
     far more parallelism than a serial DSP feedback recurrence *)
  let stencil = (ilp "fp_stencil").(3) and dsp = (ilp "tiny_dsp_loop").(3) in
  Alcotest.(check bool) "array sweeps out-parallelize feedback loops" true
    (stencil > 2.0 *. dsp)

let test_bit_kernel_mix () =
  let m = mix "bit_kernel" in
  Alcotest.(check bool) "bit kernel is ALU-dominated" true (m.A.Mix.frac_arith > 0.5);
  Alcotest.(check bool) "few memory ops" true (m.A.Mix.frac_load +. m.A.Mix.frac_store < 0.25)

let test_sw_render_store_heavy () =
  let render = mix "sw_render" and search = mix "seq_search" in
  Alcotest.(check bool) "renderer stores more than a scanner" true
    (render.A.Mix.frac_store > 2.0 *. search.A.Mix.frac_store)

let test_family_distinctness () =
  (* distinct archetypes must be distinguishable in the normalized space:
     characterize all, then check that no two have near-identical vectors *)
  let vectors =
    List.map (fun (name, p) -> (name, A.Analyzer.vector (analyze p))) all_families
  in
  let matrix = Array.of_list (List.map snd vectors) in
  let names = Array.of_list (List.map fst vectors) in
  let normalized = Mica_stats.Normalize.zscore matrix in
  let n = Array.length normalized in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = Mica_stats.Distance.euclidean normalized.(i) normalized.(j) in
      if d < 0.5 then
        Alcotest.failf "families %s and %s are nearly identical (distance %.3f)" names.(i)
          names.(j) d
    done
  done

let suite =
  ( "families",
    [
      Alcotest.test_case "all valid" `Quick test_all_families_valid;
      Alcotest.test_case "all generate and analyze" `Slow test_all_families_generate_and_analyze;
      Alcotest.test_case "fp families" `Slow test_fp_families_have_fp;
      Alcotest.test_case "tiny kernels predictable" `Slow test_tiny_kernels_are_predictable;
      Alcotest.test_case "working set ordering" `Slow test_working_set_ordering;
      Alcotest.test_case "interpreter code footprint" `Slow test_interpreter_code_footprint;
      Alcotest.test_case "stencil ILP" `Slow test_stencil_ilp_beats_serial_dsp;
      Alcotest.test_case "bit kernel mix" `Slow test_bit_kernel_mix;
      Alcotest.test_case "renderer store-heavy" `Slow test_sw_render_store_heavy;
      Alcotest.test_case "families distinct" `Slow test_family_distinctness;
    ] )
