(* Benchmark harness: one Bechamel test per paper table/figure, plus
   ablation benches for the design choices DESIGN.md calls out.

   Each test measures the computational core that regenerates the
   corresponding experiment, at a reduced trace length (BENCH_ICOUNT
   dynamic instructions per workload) so the whole harness completes in
   minutes.  The experiment *results* themselves are produced by
   bin/repro_experiments.ml; this file answers "what does each step
   cost?" — including the paper's own cost claim (measuring 8 key
   characteristics is ~3x cheaper than measuring all 47).

     dune exec bench/main.exe *)

open Bechamel
open Toolkit

module E = Mica_core.Experiments
module Select = Mica_select
module Stats = Mica_stats
module W = Mica_workloads

let bench_icount = 20_000

let config =
  {
    Mica_core.Pipeline.default_config with
    Mica_core.Pipeline.icount = bench_icount;
    cache_dir = Some "results/cache";
    progress = false;
  }

(* Shared context: characterized once (cached on disk across runs). *)
let ctx = lazy (E.Context.load ~config ())

let ga_small =
  {
    Select.Genetic.default_config with
    Select.Genetic.population = 16;
    max_generations = 25;
    stall_generations = 10;
  }

let sample_workload = lazy (W.Registry.find_exn "SPEC2000/bzip2/graphic")

(* ---------------- per-table/figure tests ---------------- *)

let t_table1 =
  Test.make ~name:"table1_registry" (Staged.stage (fun () -> Sys.opaque_identity (E.render_table1 ())))

let t_table2 =
  Test.make ~name:"table2_characteristics"
    (Staged.stage (fun () -> Sys.opaque_identity (E.render_table2 ())))

(* the core measurement everything relies on: one workload, one trace,
   all 47 characteristics *)
let t_characterize =
  Test.make ~name:"characterize_one_workload"
    (Staged.stage (fun () ->
         let w = Lazy.force sample_workload in
         Sys.opaque_identity
           (Mica_analysis.Analyzer.analyze w.W.Workload.model ~icount:bench_icount)))

let t_counters =
  Test.make ~name:"hpc_counters_one_workload"
    (Staged.stage (fun () ->
         let w = Lazy.force sample_workload in
         Sys.opaque_identity (Mica_uarch.Hw_counters.measure w.W.Workload.model ~icount:bench_icount)))

let t_fig1 =
  Test.make ~name:"fig1_distances"
    (Staged.stage (fun () ->
         let c = Lazy.force ctx in
         let mica = Mica_core.Space.of_dataset c.E.Context.mica in
         let hpc = Mica_core.Space.of_dataset c.E.Context.hpc in
         Sys.opaque_identity
           (Mica_core.Classify.correlation ~hpc_distances:hpc.Mica_core.Space.distances
              ~mica_distances:mica.Mica_core.Space.distances)))

let t_table3 =
  Test.make ~name:"table3_classify"
    (Staged.stage (fun () -> Sys.opaque_identity (E.table3 (Lazy.force ctx))))

let t_fig2 =
  Test.make ~name:"fig2_case_study_hpc"
    (Staged.stage (fun () -> Sys.opaque_identity (E.fig2 (Lazy.force ctx))))

let t_fig3 =
  Test.make ~name:"fig3_case_study_mica"
    (Staged.stage (fun () -> Sys.opaque_identity (E.fig3 (Lazy.force ctx))))

let t_fig4 =
  Test.make ~name:"fig4_roc"
    (Staged.stage (fun () ->
         let c = Lazy.force ctx in
         let all = Array.init Mica_analysis.Characteristics.count Fun.id in
         let hpc = Mica_core.Space.of_dataset c.E.Context.hpc in
         Sys.opaque_identity
           (Stats.Roc.curve
              ~labels:(Stats.Roc.positives ~ref_distances:hpc.Mica_core.Space.distances ~frac:0.2)
              ~scores:(Select.Fitness.distances_for c.E.Context.fitness all))))

let t_fig5_ce =
  Test.make ~name:"fig5_ce_sweep"
    (Staged.stage (fun () ->
         (* the sweep itself: [E.run_ce] would return the context's memo *)
         let c = Lazy.force ctx in
         Sys.opaque_identity
           (Select.Correlation_elimination.run ~pool:(Mica_util.Pool.default ())
              ~data:c.E.Context.mica.Mica_core.Dataset.data c.E.Context.fitness)))

let t_table4_ga =
  Test.make ~name:"table4_ga_select"
    (Staged.stage (fun () ->
         Sys.opaque_identity (E.run_ga ~config:ga_small (Lazy.force ctx))))

let t_fig6 =
  Test.make ~name:"fig6_cluster_bic"
    (Staged.stage (fun () ->
         let c = Lazy.force ctx in
         (* reduced K range keeps a single run sub-second *)
         let reduced = Mica_core.Dataset.select_features c.E.Context.mica [| 0; 9; 15; 20; 26; 31; 37; 43 |] in
         Sys.opaque_identity (Mica_core.Clustering.cluster ~k_max:20 reduced)))

(* ---------------- selection-kernel benches ---------------- *)

(* A transient 2-worker pool: on multi-core machines this exercises the
   actual parallel path of the GA/CE kernels; on a single core it still
   measures the pool's dispatch overhead against the inline jobs=1 path. *)
let pool2 = lazy (Mica_util.Pool.create ~jobs:2)

(* a paper-sized 8-characteristic subset for the eval micro-benches *)
let bench_subset = [| 0; 9; 15; 20; 26; 31; 37; 43 |]

(* fused single-pass subset evaluation (flat components buffer) *)
let t_fitness_fused =
  Test.make ~name:"fitness_fused_eval"
    (Staged.stage (fun () ->
         let c = Lazy.force ctx in
         Sys.opaque_identity (Select.Fitness.paper_fitness c.E.Context.fitness bench_subset)))

(* the naive reference path the fused kernel replaced: materialize the
   subset distance vector, then reduce Pearson from scratch *)
let naive_eval_inputs =
  lazy
    (let c = Lazy.force ctx in
     let normalized = c.E.Context.mica_space.Mica_core.Space.normalized in
     ( Stats.Distance.condensed_squared_components normalized,
       Stats.Distance.condensed normalized ))

let t_fitness_naive =
  Test.make ~name:"fitness_naive_eval"
    (Staged.stage (fun () ->
         let comp, full = Lazy.force naive_eval_inputs in
         Sys.opaque_identity
           (Stats.Correlation.pearson (Stats.Distance.subset_distances comp bench_subset) full)))

(* incremental candidate sweep: every leave-one-out rho in O(k * pairs) *)
let t_ce_leave_one_out =
  Test.make ~name:"ce_leave_one_out"
    (Staged.stage (fun () ->
         let c = Lazy.force ctx in
         let all = Array.init Mica_analysis.Characteristics.count Fun.id in
         Sys.opaque_identity (Select.Correlation_elimination.leave_one_out c.E.Context.fitness all)))

(* pool-parallel GA population evaluation and CE sweep *)
let t_ga_pool2 =
  Test.make ~name:"table4_ga_select_pool2"
    (Staged.stage (fun () ->
         let c = Lazy.force ctx in
         let rng = Mica_util.Rng.create ~seed:0x6A5EEDL in
         Sys.opaque_identity
           (Select.Genetic.run ~config:ga_small ~pool:(Lazy.force pool2) ~rng c.E.Context.fitness)))

let t_ce_pool2 =
  Test.make ~name:"fig5_ce_sweep_pool2"
    (Staged.stage (fun () ->
         let c = Lazy.force ctx in
         Sys.opaque_identity
           (Select.Correlation_elimination.run ~pool:(Lazy.force pool2)
              ~data:c.E.Context.mica.Mica_core.Dataset.data c.E.Context.fitness)))

(* ---------------- cost-model / ablation tests ---------------- *)

(* the paper's headline cost claim: measuring the key subset vs all 47 *)
let t_cost_full =
  Test.make ~name:"cost_all_47_characteristics"
    (Staged.stage (fun () ->
         let w = Lazy.force sample_workload in
         let a = Mica_analysis.Analyzer.create () in
         Sys.opaque_identity
           (Mica_trace.Generator.run w.W.Workload.model ~icount:bench_icount
              ~sink:(Mica_analysis.Analyzer.sink a))))

let t_cost_reduced =
  Test.make ~name:"cost_key_subset_only"
    (Staged.stage (fun () ->
         let w = Lazy.force sample_workload in
         (* a paper-like key subset: loads, operands, dep<=8, strides,
            D-pages, ILP-256 -> mix + regtraffic + strides + ws + one ILP window *)
         let mix = Mica_analysis.Mix.create () in
         let ilp = Mica_analysis.Ilp.create ~windows:[| 256 |] () in
         let reg = Mica_analysis.Regtraffic.create () in
         let ws = Mica_analysis.Working_set.create () in
         let strides = Mica_analysis.Strides.create () in
         let sink =
           Mica_trace.Sink.fanout
             [
               Mica_analysis.Mix.sink mix;
               Mica_analysis.Ilp.sink ilp;
               Mica_analysis.Regtraffic.sink reg;
               Mica_analysis.Working_set.sink ws;
               Mica_analysis.Strides.sink strides;
             ]
         in
         Sys.opaque_identity
           (Mica_trace.Generator.run w.W.Workload.model ~icount:bench_icount ~sink)))

(* ablation: single fused trace pass vs one pass per analyzer family *)
let t_ablation_fused =
  Test.make ~name:"ablation_single_pass_fanout"
    (Staged.stage (fun () ->
         let w = Lazy.force sample_workload in
         let a = Mica_analysis.Analyzer.create () in
         let h = Mica_uarch.Hw_counters.create () in
         let sink =
           Mica_trace.Sink.fanout
             [ Mica_analysis.Analyzer.sink a; Mica_uarch.Hw_counters.sink h ]
         in
         Sys.opaque_identity
           (Mica_trace.Generator.run w.W.Workload.model ~icount:bench_icount ~sink)))

let t_ablation_multipass =
  Test.make ~name:"ablation_pass_per_family"
    (Staged.stage (fun () ->
         let w = Lazy.force sample_workload in
         let run sink =
           ignore
             (Mica_trace.Generator.run w.W.Workload.model ~icount:bench_icount ~sink : int)
         in
         run (Mica_analysis.Mix.sink (Mica_analysis.Mix.create ()));
         run (Mica_analysis.Ilp.sink (Mica_analysis.Ilp.create ()));
         run (Mica_analysis.Regtraffic.sink (Mica_analysis.Regtraffic.create ()));
         run (Mica_analysis.Working_set.sink (Mica_analysis.Working_set.create ()));
         run (Mica_analysis.Strides.sink (Mica_analysis.Strides.create ()));
         run (Mica_analysis.Ppm.sink (Mica_analysis.Ppm.create ()));
         let h = Mica_uarch.Hw_counters.create () in
         run (Mica_uarch.Hw_counters.sink h);
         Sys.opaque_identity h))

(* ablation: trace generation alone (the floor under every measurement) *)
let t_generation_only =
  Test.make ~name:"ablation_trace_generation_only"
    (Staged.stage (fun () ->
         let w = Lazy.force sample_workload in
         let sink = Mica_trace.Sink.make ~name:"null" (fun _ -> ()) in
         Sys.opaque_identity
           (Mica_trace.Generator.run w.W.Workload.model ~icount:bench_icount ~sink)))

(* ablation: GA seed sensitivity (determinism and robustness of Table IV) *)
let t_ga_seed =
  Test.make ~name:"ablation_ga_alternate_seed"
    (Staged.stage (fun () ->
         Sys.opaque_identity (E.run_ga ~config:ga_small ~seed:0xFEEDL (Lazy.force ctx))))

(* PCA baseline (the prior-work method the paper improves on) *)
let t_pca_baseline =
  Test.make ~name:"baseline_pca_fit_transform"
    (Staged.stage (fun () ->
         let c = Lazy.force ctx in
         let pca = Stats.Pca.fit c.E.Context.mica.Mica_core.Dataset.data in
         Sys.opaque_identity (Stats.Pca.transform pca ~dims:8 c.E.Context.mica.Mica_core.Dataset.data)))

(* extension benches: hierarchical clustering, phase analysis, spec
   parsing, suite coverage *)

let t_linkage =
  Test.make ~name:"ext_linkage_dendrogram"
    (Staged.stage (fun () ->
         let c = Lazy.force ctx in
         let reduced =
           Mica_core.Dataset.select_features c.E.Context.mica [| 0; 9; 15; 20; 26; 31; 37; 43 |]
         in
         Sys.opaque_identity (Mica_core.Dendrogram.build reduced)))

let t_phases =
  Test.make ~name:"ext_phase_analysis"
    (Staged.stage (fun () ->
         let w = Lazy.force sample_workload in
         Sys.opaque_identity
           (Mica_core.Phases.analyze ~interval:2_000 w.W.Workload.model ~icount:bench_icount)))

let t_spec_parse =
  Test.make ~name:"ext_spec_parse"
    (Staged.stage (fun () ->
         Sys.opaque_identity (W.Spec_file.parse W.Spec_file.example)))

let t_coverage =
  Test.make ~name:"ext_suite_coverage"
    (Staged.stage (fun () ->
         let c = Lazy.force ctx in
         Sys.opaque_identity
           (Mica_core.Coverage.suite_coverage c ~selected:[| 0; 9; 20; 26; 43 |])))

let t_machines =
  Test.make ~name:"ext_machine_fanout_4"
    (Staged.stage (fun () ->
         let w = Lazy.force sample_workload in
         Sys.opaque_identity
           (Mica_uarch.Machine.measure_all Mica_uarch.Machine.presets w.W.Workload.model
              ~icount:bench_icount)))

(* The 8-model fleet: machine descriptions when run from the repo root,
   falling back to renamed presets so the binary still benchmarks from
   any cwd.  One-pass fanout (one generated trace feeding all 8 sinks)
   vs 8 single-machine passes over the same workloads. *)
let fleet_configs =
  lazy
    (match Mica_uarch.Machine_desc.load_dir "machines" with
    | Ok named when List.length named >= 8 ->
      List.filteri (fun i _ -> i < 8) (List.map snd named)
    | Ok _ | Error _ ->
      Mica_uarch.Machine.presets
      @ List.map
          (fun (c : Mica_uarch.Machine.config) ->
            { c with Mica_uarch.Machine.name = c.Mica_uarch.Machine.name ^ "b" })
          Mica_uarch.Machine.presets)

let fleet_workloads =
  lazy (List.filteri (fun i _ -> i mod (W.Registry.count / 4) = 0) W.Registry.all)

let t_fleet_one_pass =
  Test.make ~name:"fleet_fanout_8_one_pass"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Mica_core.Fleet.characterize ~jobs:1
              ~configs:(Lazy.force fleet_configs)
              ~icount:bench_icount (Lazy.force fleet_workloads))))

let t_fleet_n_pass =
  Test.make ~name:"fleet_fanout_8_n_pass"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Mica_core.Fleet.characterize_n_pass
              ~configs:(Lazy.force fleet_configs)
              ~icount:bench_icount (Lazy.force fleet_workloads))))

let t_reuse =
  Test.make ~name:"ext_reuse_distances"
    (Staged.stage (fun () ->
         let w = Lazy.force sample_workload in
         let r = Mica_analysis.Reuse.create () in
         let (_ : int) =
           Mica_trace.Generator.run w.W.Workload.model ~icount:bench_icount
             ~sink:(Mica_analysis.Reuse.sink r)
         in
         Sys.opaque_identity (Mica_analysis.Reuse.mean_log2 r)))

let t_simpoint =
  Test.make ~name:"ext_simpoint_validate"
    (Staged.stage (fun () ->
         let w = Lazy.force sample_workload in
         Sys.opaque_identity (Mica_core.Simpoint.validate ~interval:2_000 w ~icount:bench_icount)))

let t_bootstrap =
  Test.make ~name:"ext_bootstrap_correlation"
    (Staged.stage (fun () ->
         let c = Lazy.force ctx in
         let na = c.E.Context.mica_space.Mica_core.Space.normalized in
         let nb = c.E.Context.hpc_space.Mica_core.Space.normalized in
         let rng = Mica_util.Rng.create ~seed:0xB007L in
         Sys.opaque_identity
           (Stats.Bootstrap.interval ~replicates:20 ~rng ~n:(Array.length na)
              (Stats.Bootstrap.pair_distance_statistic ~normalized_a:na ~normalized_b:nb
                 Stats.Correlation.pearson))))

let t_extended =
  Test.make ~name:"ext_extended_characterize"
    (Staged.stage (fun () ->
         let w = Lazy.force sample_workload in
         Sys.opaque_identity
           (Mica_analysis.Extended.analyze w.W.Workload.model ~icount:bench_icount)))

(* ---------------- sketch pair (long-trace regime) ----------------

   The exact-vs-sketch pair runs at 10x the harness icount: the sketch's
   win is O(1)-in-trace-length analyzer state, which only shows once the
   exact tables (working sets, reuse Fenwick positions, PPM contexts)
   have grown well past the sketch's fixed byte budget.  Same workload,
   same 56-characteristic vector, bounded estimation error (see the
   verify sketch laws). *)

let sketch_icount = 200_000
let sketch_workload = lazy (W.Registry.find_exn "SPEC2000/swim/ref")

let t_sketch_exact =
  Test.make ~name:"sketch_exact_extended_swim_200k"
    (Staged.stage (fun () ->
         let w = Lazy.force sketch_workload in
         Sys.opaque_identity
           (Mica_analysis.Extended.analyze w.W.Workload.model ~icount:sketch_icount)))

let t_sketch_stream =
  Test.make ~name:"sketch_stream_extended_swim_200k"
    (Staged.stage (fun () ->
         let w = Lazy.force sketch_workload in
         Sys.opaque_identity
           (Mica_sketch.Sketch.analyze w.W.Workload.model ~icount:sketch_icount)))

(* Resident analyzer state after one long trace, measured on the live
   values: the exact analyzer's tables grow with the trace, the sketch
   is pinned to its plan.  Emitted alongside the pair in results_json. *)
let sketch_state_snapshot () =
  let w = Lazy.force sketch_workload in
  let exact = Mica_analysis.Extended.create () in
  let (_ : int) =
    Mica_trace.Generator.run w.W.Workload.model ~icount:sketch_icount
      ~sink:(Mica_analysis.Extended.sink exact)
  in
  let sk = Mica_sketch.Sketch.analyze w.W.Workload.model ~icount:sketch_icount in
  let words v = Obj.reachable_words (Obj.repr v) in
  (words exact * 8, words sk * 8, Mica_sketch.Sketch.state_bytes sk)

(* ---------------- scale benches (10k-corpus regime) ----------------

   Naive-vs-scalable pairs over synthesized corpora; results_json turns
   each pair into a "scale_speedups" entry.  The corpora are generated
   once (lazily) outside timing; anchors characterize in milliseconds,
   the rest is synthesis. *)

let corpus2k = lazy (Mica_core.Corpus_gen.generate ~size:2_000 ())
let corpus5k = lazy (Mica_core.Corpus_gen.generate ~size:5_000 ())
let corpus10k = lazy (Mica_core.Corpus_gen.generate ~size:10_000 ())

let zrows2k = lazy (Stats.Normalize.zscore (Lazy.force corpus2k).Mica_core.Dataset.data)
let zcol2k = lazy (Stats.Colmat.of_matrix (Lazy.force zrows2k))
let condensed2k_out = lazy (Array.make (Stats.Distance.pair_count 2_000) 0.0)

let zcol10k =
  lazy (Stats.Colmat.zscore (Stats.Colmat.of_matrix (Lazy.force corpus10k).Mica_core.Dataset.data))

let ann10k = lazy (Stats.Ann.build (Lazy.force zcol10k))
let query10k = lazy (Stats.Colmat.row (Lazy.force zcol10k) 17)

(* the bit-identity pair: same condensed vector, row-records vs tiles.
   The tiled kernel's win is parallel scalability (disjoint condensed
   ranges per worker at any jobs count); on a single-core runner expect
   parity with the naive scan, not speedup — the order-of-complexity
   wins live in the knn and subset pairs below. *)
let t_condensed_naive =
  Test.make ~name:"condensed_naive_n2000"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Stats.Distance.condensed (Lazy.force zrows2k))))

let pool4 = lazy (Mica_util.Pool.create ~jobs:4)

let t_condensed_blocked =
  Test.make ~name:"condensed_blocked_pool4_n2000"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Stats.Distance.condensed_blocked ~pool:(Lazy.force pool4)
              ~out:(Lazy.force condensed2k_out) (Lazy.force zcol2k))))

(* the query pair: one kNN lookup, linear scan vs ANN prune + re-rank *)
let t_knn_naive =
  Test.make ~name:"knn_naive_n10000"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Stats.Ann.exact_knn (Lazy.force zcol10k) ~k:10 (Lazy.force query10k))))

let t_knn_ann =
  Test.make ~name:"knn_ann_n10000"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Stats.Ann.knn (Lazy.force ann10k) ~k:10 (Lazy.force query10k))))

(* the subset pair: the full query workload, normalization included on
   both sides — O(n^2 d) condensed space + k-center vs on-demand
   distances *)
let t_subset_naive =
  Test.make ~name:"subset_naive_n5000"
    (Staged.stage (fun () ->
         let space = Mica_core.Space.of_dataset (Lazy.force corpus5k) in
         Sys.opaque_identity (Mica_core.Subsetting.k_center space ~k:10)))

let t_subset_scalable =
  Test.make ~name:"subset_scalable_n5000"
    (Staged.stage (fun () ->
         let z =
           Stats.Colmat.zscore
             (Stats.Colmat.of_matrix (Lazy.force corpus5k).Mica_core.Dataset.data)
         in
         Sys.opaque_identity (Mica_core.Subsetting.k_center_scalable z ~k:10)))

let tests =
  [
    t_table1; t_table2; t_characterize; t_counters; t_fig1; t_table3; t_fig2; t_fig3; t_fig4;
    t_fig5_ce; t_table4_ga; t_fig6; t_fitness_fused; t_fitness_naive; t_ce_leave_one_out;
    t_ga_pool2; t_ce_pool2; t_cost_full; t_cost_reduced; t_ablation_fused;
    t_ablation_multipass; t_generation_only; t_ga_seed; t_pca_baseline; t_linkage; t_phases;
    t_spec_parse; t_coverage; t_machines; t_fleet_one_pass; t_fleet_n_pass; t_reuse;
    t_simpoint; t_bootstrap; t_extended;
    t_sketch_exact; t_sketch_stream; t_condensed_naive; t_condensed_blocked; t_knn_naive;
    t_knn_ann; t_subset_naive; t_subset_scalable;
  ]

(* ---------------- driver ---------------- *)

(* Per-test row of the machine-readable results: nanoseconds per run and
   minor-heap words allocated per run, both OLS estimates against the run
   count, with the time fit's r^2 as the quality signal. *)
type row = { name : string; ns_per_run : float; minor_words_per_run : float; r2 : float }

let estimate_of ols =
  match Analyze.OLS.estimates ols with Some [ e ] -> e | Some _ | None -> nan

let run_test ~quota ~limit test =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~stabilize:false ~kde:None () in
  let raw = Benchmark.all cfg instances test in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let words = Analyze.all ols Instance.minor_allocated raw in
  Hashtbl.fold
    (fun name ols acc ->
      {
        name;
        ns_per_run = estimate_of ols;
        minor_words_per_run =
          (match Hashtbl.find_opt words name with Some w -> estimate_of w | None -> nan);
        r2 = Option.value (Analyze.OLS.r_square ols) ~default:nan;
      }
      :: acc)
    times []

let pretty_time ns =
  if ns > 1e9 then Printf.sprintf "%8.3f  s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
  else Printf.sprintf "%8.0f ns" ns

(* Fixed before-numbers for the optimized hot paths, captured on this
   machine immediately before each optimization landed.  They anchor the
   perf trajectory in BENCH_results.json: every regeneration of the file
   re-measures the current code against these baselines.

   - characterize_one_workload: before the chunked struct-of-arrays trace
     transport replaced the per-instruction boxed-record sink protocol.
   - table4_ga_select / fig5_ce_sweep: before the fused flat-buffer
     fitness kernel and incremental CE replaced the allocating
     subset_distances + pearson evaluation (the committed PR 2 numbers). *)
let trajectory_baselines =
  [
    ("characterize_one_workload", "seed_transport", "chunked_transport", 10_342_000.0, 1_636_514.0);
    ("table4_ga_select", "naive_eval", "fused_incremental", 155_846_657.7, 84_903_727.2);
    ("fig5_ce_sweep", "naive_eval", "fused_incremental", 45_973_380.7, 21_790_651.9);
  ]

(* Naive-vs-scalable pairs measured in the same run; results_json
   derives the speedup of each.  The condensed pair is a
   parallel-scalability entry — same bits, workers own disjoint
   condensed ranges — so its record carries the jobs count and its
   speedup is meaningful only relative to the cores actually available
   (expect parity on a 1-core runner, where the kernel falls back to the
   naive scan anyway).  The query pairs are single-threaded
   order-of-complexity wins. *)
let speedup_pairs =
  [
    ("scale_condensed_2k", "condensed_naive_n2000", "condensed_blocked_pool4_n2000", Some 4);
    ("scale_knn_query_10k", "knn_naive_n10000", "knn_ann_n10000", None);
    ("scale_subset_query_5k", "subset_naive_n5000", "subset_scalable_n5000", None);
    ("sketch_extended_swim_200k", "sketch_exact_extended_swim_200k",
     "sketch_stream_extended_swim_200k", None);
    ("fleet_fanout_8", "fleet_fanout_8_n_pass", "fleet_fanout_8_one_pass", None);
  ]

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float x = if Float.is_nan x then "null" else Printf.sprintf "%.1f" x

let results_json ?sketch_state rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"bench_icount\": %d,\n" bench_icount);
  (* perf trajectory for the optimized hot paths: fixed before-numbers vs
     the current measurement *)
  let measured =
    List.filter_map
      (fun ((name, _, _, _, _) as b) ->
        Option.map (fun r -> (b, r)) (List.find_opt (fun r -> r.name = name) rows))
      trajectory_baselines
  in
  if measured <> [] then begin
    Buffer.add_string buf "  \"trajectory\": {\n";
    List.iteri
      (fun i ((name, before_label, after_label, base_ns, base_words), r) ->
        Buffer.add_string buf (Printf.sprintf "    \"%s\": {\n" name);
        Buffer.add_string buf
          (Printf.sprintf "      \"%s\": {\"ns_per_run\": %s, \"minor_words_per_run\": %s},\n"
             before_label (json_float base_ns) (json_float base_words));
        Buffer.add_string buf
          (Printf.sprintf "      \"%s\": {\"ns_per_run\": %s, \"minor_words_per_run\": %s},\n"
             after_label (json_float r.ns_per_run) (json_float r.minor_words_per_run));
        Buffer.add_string buf (Printf.sprintf "      \"speedup\": %.2f,\n" (base_ns /. r.ns_per_run));
        Buffer.add_string buf
          (Printf.sprintf "      \"minor_words_reduction\": %.1f\n"
             (base_words /. Float.max 1.0 r.minor_words_per_run));
        Buffer.add_string buf
          (Printf.sprintf "    }%s\n" (if i = List.length measured - 1 then "" else ",")))
      measured;
    Buffer.add_string buf "  },\n"
  end;
  let pairs =
    List.filter_map
      (fun (label, naive, fast, jobs) ->
        match
          ( List.find_opt (fun r -> r.name = naive) rows,
            List.find_opt (fun r -> r.name = fast) rows )
        with
        | Some n, Some f -> Some (label, n, f, jobs)
        | _ -> None)
      speedup_pairs
  in
  if pairs <> [] then begin
    Buffer.add_string buf "  \"scale_speedups\": {\n";
    List.iteri
      (fun i (label, n, f, jobs) ->
        let kind =
          match jobs with
          | Some j -> Printf.sprintf " \"kind\": \"parallel_scalability\", \"jobs\": %d," j
          | None -> ""
        in
        Buffer.add_string buf
          (Printf.sprintf
             "    \"%s\": {%s \"naive_ns\": %s, \"scalable_ns\": %s, \"speedup\": %.2f, \
              \"naive_minor_words\": %s, \"scalable_minor_words\": %s, \
              \"minor_words_reduction\": %.1f}%s\n"
             label kind (json_float n.ns_per_run) (json_float f.ns_per_run)
             (n.ns_per_run /. f.ns_per_run)
             (json_float n.minor_words_per_run) (json_float f.minor_words_per_run)
             (n.minor_words_per_run /. Float.max 1.0 f.minor_words_per_run)
             (if i = List.length pairs - 1 then "" else ",")))
      pairs;
    Buffer.add_string buf "  },\n"
  end;
  (match sketch_state with
  | Some (exact_bytes, sketch_bytes, plan_resident) ->
    (* resident analyzer state after one long trace: the exact tables
       grow with the trace, the sketch stays pinned to its plan *)
    Buffer.add_string buf
      (Printf.sprintf
         "  \"sketch_state\": {\"workload\": \"SPEC2000/swim/ref\", \"icount\": %d, \
          \"exact_analyzer_bytes\": %d, \"sketch_analyzer_bytes\": %d, \
          \"sketch_resident_bytes\": %d},\n"
         sketch_icount exact_bytes sketch_bytes plan_resident)
  | None -> ());
  Buffer.add_string buf "  \"results\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"ns_per_run\": %s, \"minor_words_per_run\": %s, \"r2\": %s}%s\n"
           (json_escape r.name) (json_float r.ns_per_run) (json_float r.minor_words_per_run)
           (if Float.is_nan r.r2 then "null" else Printf.sprintf "%.4f" r.r2)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* Post-measurement instrumented pass.  Metrics stay disabled during
   every bechamel measurement above — the trajectory numbers are the
   uninstrumented (one atomic load per probe) hot paths.  This single
   extra pass re-runs the two trajectory kernels with metrics on and
   ships the Obs snapshot alongside the trajectory, so a bench run also
   documents where the time and allocation went. *)
let metrics_pass () =
  let module Obs = Mica_obs.Obs in
  Obs.reset ();
  Obs.set_enabled true;
  let w = Lazy.force sample_workload in
  ignore (Sys.opaque_identity (Mica_analysis.Analyzer.analyze w.W.Workload.model ~icount:bench_icount));
  ignore (Sys.opaque_identity (E.run_ga ~config:ga_small (Lazy.force ctx)));
  Obs.set_enabled false;
  Printf.printf "instrumented pass done (measurements above ran metrics-off)\n%!";
  Obs.to_json (Obs.snapshot ())

(* ---------------- run-directory commit ---------------- *)

(* Every bench invocation is a run: the measurements, the metrics
   snapshot of the instrumented pass and the characteristic-vector
   datasets the context was built from, all under recorded checksums, so
   [mica compare]/[mica variance] can gate and noise-qualify any two
   bench executions. *)
let commit_run ~root ~tag ~bench_json ~metrics_json =
  let module R = Mica_run.Run_dir in
  let c = Lazy.force ctx in
  let table (ds : Mica_core.Dataset.t) =
    {
      R.row_names = ds.Mica_core.Dataset.names;
      columns = ds.Mica_core.Dataset.features;
      cells = ds.Mica_core.Dataset.data;
    }
  in
  let manifest =
    {
      Mica_run.Manifest.schema = Mica_run.Manifest.schema_version;
      created = R.timestamp ();
      tag;
      subcommand = "bench";
      argv = Array.to_list Sys.argv;
      git_rev = Mica_run.Run_io.git_rev ();
      icount = bench_icount;
      ppm_order = config.Mica_core.Pipeline.ppm_order;
      jobs = config.Mica_core.Pipeline.jobs;
      retries = config.Mica_core.Pipeline.retries;
      cache = config.Mica_core.Pipeline.cache_dir <> None;
      mica_jobs_env = Sys.getenv_opt "MICA_JOBS";
      fault_spec = Option.map Mica_util.Fault.to_string (Mica_util.Fault.installed ());
      seeds = [ ("ga", "0x6a5eed") ];
      workloads = Mica_core.Dataset.rows c.E.Context.mica;
      report = Mica_core.Run_report.summary c.E.Context.report;
      files = [];
    }
  in
  let artifacts =
    [
      { R.filename = R.bench_file; contents = bench_json };
      { R.filename = R.metrics_file; contents = metrics_json };
      { R.filename = R.mica_file; contents = R.csv_of_table (table c.E.Context.mica) };
      { R.filename = R.hpc_file; contents = R.csv_of_table (table c.E.Context.hpc) };
    ]
  in
  let dir = R.commit ~root ~manifest ~artifacts () in
  Printf.printf "committed run %s\n%!" dir;
  dir

(* BENCH_results.json is a derived artifact: read the bench numbers back
   out of the committed (checksum-verified) run directory and prepend
   per-run provenance, instead of mutating the file in place. *)
let regenerate_results ~run_dir path =
  let r =
    match Mica_run.Run_dir.load run_dir with
    | Ok r -> r
    | Error msg -> failwith ("bench: committed run does not load: " ^ msg)
  in
  if r.Mica_run.Run_dir.bench = None then failwith "bench: committed run has no bench.json";
  let raw =
    match Mica_run.Run_io.read_file (Filename.concat run_dir Mica_run.Run_dir.bench_file) with
    | Ok s -> s
    | Error e -> failwith ("bench: " ^ Mica_run.Run_io.describe_error e)
  in
  (* Splice provenance in textually so the measured numbers stay
     byte-identical to the run's bench.json. *)
  let body =
    match String.index_opt raw '{' with
    | Some i -> String.sub raw (i + 1) (String.length raw - i - 1)
    | None -> failwith "bench: bench.json is not an object"
  in
  let m = r.Mica_run.Run_dir.manifest in
  let provenance =
    Printf.sprintf "{\n  \"provenance\": {\"run\": %S, \"created\": %S, \"git_rev\": %S},"
      (Filename.basename run_dir) m.Mica_run.Manifest.created m.Mica_run.Manifest.git_rev
  in
  Mica_run.Run_io.atomic_write path (provenance ^ body);
  Printf.printf "wrote %s (derived from %s)\n%!" path run_dir

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let json_path = ref "BENCH_results.json" in
  let runs_root = ref "runs" in
  let tag = ref (if smoke then "bench-smoke" else "bench") in
  Array.iteri
    (fun i a ->
      if i + 1 < Array.length Sys.argv then begin
        if a = "--json" then json_path := Sys.argv.(i + 1);
        if a = "--runs" then runs_root := Sys.argv.(i + 1);
        if a = "--tag" then tag := Sys.argv.(i + 1)
      end)
    Sys.argv;
  (* smoke mode: the core measurement, the pool-parallel selection
     kernels and the exact-vs-sketch pair, low iteration count — a CI
     guard that the harness builds and the hot paths (chunked transport,
     fused GA/CE over the domain pool, fixed-memory sketch analyzers)
     still run end to end, and that the sketch pair stays gated by
     [mica compare] against the committed baseline *)
  let tests, quota, limit =
    if smoke then
      ([ t_characterize; t_ga_pool2; t_ce_pool2; t_sketch_exact; t_sketch_stream ], 0.5, 50)
    else (tests, 1.0, 200)
  in
  (* force the context outside timing so the first test is not charged
     (smoke needs it too: the pool-parallel selection benches read it) *)
  Printf.printf "preparing context (%d workloads, %d instrs each; cached across runs)...\n%!"
    W.Registry.count bench_icount;
  ignore (Lazy.force ctx);
  (* likewise the scale fixtures: corpus synthesis and the one-time ANN
     index build are setup, not the query being measured *)
  if not smoke then begin
    Printf.printf "preparing scale fixtures (2k/5k/10k corpora, ANN index)...\n%!";
    ignore (Lazy.force zcol2k);
    ignore (Lazy.force condensed2k_out);
    ignore (Lazy.force corpus5k);
    ignore (Lazy.force ann10k);
    ignore (Lazy.force query10k)
  end;
  Printf.printf "%-36s %16s %14s %10s\n" "benchmark" "time/run" "minor-w/run" "r^2";
  print_endline (String.make 80 '-');
  let rows =
    List.concat_map
      (fun test ->
        let rows = run_test ~quota ~limit test in
        List.iter
          (fun r ->
            Printf.printf "%-36s %16s %14.0f %10.4f\n%!" r.name (pretty_time r.ns_per_run)
              r.minor_words_per_run r.r2)
          rows;
        rows)
      tests
  in
  let sketch_state = if smoke then None else Some (sketch_state_snapshot ()) in
  let bench_json = results_json ?sketch_state rows in
  let metrics_json = metrics_pass () in
  let run_dir = commit_run ~root:!runs_root ~tag:!tag ~bench_json ~metrics_json in
  regenerate_results ~run_dir !json_path
