(* mica: command-line interface to the MICA workload-characterization
   library.

   Subcommands:
     list          enumerate the 122 benchmark models
     characterize  print the 47-characteristic MICA vector of a workload
     counters      print the 7 hardware-counter metrics of a workload
     compare       Figures 2/3-style comparison of two workloads, or a
                   regression-gated delta report between two run directories
     distance      pairwise distance between two workloads in both spaces
     variance      run-to-run noise report over N run directories
     classify      Table III quadrant fractions
     select-ga     run the genetic algorithm feature selection
     select-ce     run correlation elimination
     cluster       Figure 6-style clustering on key characteristics
     kiviat        kiviat plot of one workload over selected characteristics
     corpus        generate a 10k-scale parameter-sweep corpus dataset
     knn           ANN / exact nearest-neighbour queries over a stored corpus
     fleet         one-pass corpus characterization against a machine-description fleet
     calibrate     micro-benchmark baseline suite vs analytic counter envelopes
     verify        oracle suite: invariants, reference analyzers, metamorphic laws *)

open Cmdliner

module E = Mica_core.Experiments
module Select = Mica_select

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Info))

(* ---------------- common options ---------------- *)

let icount =
  let doc = "Dynamic instructions to generate per workload trace." in
  Arg.(value & opt int 200_000 & info [ "icount"; "n" ] ~docv:"N" ~doc)

let no_cache =
  let doc = "Do not read or write the characterization cache." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let verbose =
  let doc = "Verbose logging." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let faults =
  let doc =
    "Install a deterministic fault-injection plan (testing/chaos runs), e.g. \
     'seed=7,pool.worker=0.3' or 'trace.gen=1@5'. Points: trace.gen, analyzer.chunk, \
     cache.read, cache.write, pool.worker, pool.crash. Equivalent to setting \
     $(b,MICA_FAULTS)."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let metrics_opt =
  let doc =
    "Enable the observability layer and write the final metrics snapshot (counters, \
     gauges, histograms and span timings across all domains) as JSON to $(docv) when \
     the command exits."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* The snapshot is written from [at_exit] so every exit path of every
   subcommand — including the [exit 1/2] error paths — still commits it. *)
let setup_metrics = function
  | None -> ()
  | Some path ->
    Mica_obs.Obs.set_enabled true;
    at_exit (fun () -> Mica_obs.Obs.write_json path (Mica_obs.Obs.snapshot ()))

(* ---------------- run directories ---------------- *)

let no_run =
  let doc = "Do not commit a self-describing run directory for this invocation." in
  Arg.(value & flag & info [ "no-run" ] ~doc)

let runs_root =
  let doc = "Root directory for committed run directories." in
  Arg.(value & opt string "runs" & info [ "runs" ] ~docv:"DIR" ~doc)

let run_tag =
  let doc = "Tag naming this invocation's run directory (default: the subcommand)." in
  Arg.(value & opt (some string) None & info [ "tag" ] ~docv:"TAG" ~doc)

(* The subcommand, for the default run tag: first non-option argument. *)
let subcommand_of_argv () =
  let rec go i =
    if i >= Array.length Sys.argv then "mica"
    else
      let a = Sys.argv.(i) in
      if String.length a > 0 && a.[0] <> '-' then a else go (i + 1)
  in
  go 1

(* The pipeline commits the run directory as soon as the datasets exist —
   before late stages (GA, clustering) have run.  At exit the metrics
   artifact is refreshed with the full-command snapshot so their spans
   reach the run too.  Failure is swallowed: the run stays valid with the
   snapshot it already holds. *)
let setup_run_finalizer () =
  at_exit (fun () ->
      match Mica_core.Pipeline.committed_run_dir () with
      | None -> ()
      | Some dir -> (
        try
          Mica_run.Run_dir.refresh_artifact ~dir ~filename:Mica_run.Run_dir.metrics_file
            ~contents:(Mica_obs.Obs.to_json (Mica_obs.Obs.snapshot ()))
        with _ -> ()))

let config_of icount no_cache verbose faults metrics no_run runs_root run_tag =
  setup_logs verbose;
  setup_metrics metrics;
  (match faults with
  | None -> ()
  | Some spec -> (
    match Mica_util.Fault.parse spec with
    | Ok plan -> Mica_util.Fault.install (Some plan)
    | Error msg ->
      Printf.eprintf "error: bad --faults spec: %s\n" msg;
      exit 2));
  let run =
    if no_run then None
    else begin
      setup_run_finalizer ();
      Some
        {
          Mica_core.Pipeline.run_root = runs_root;
          run_tag = Option.value run_tag ~default:(subcommand_of_argv ());
          run_seeds = [];
        }
    end
  in
  {
    Mica_core.Pipeline.default_config with
    icount;
    cache_dir = (if no_cache then None else Mica_core.Pipeline.default_config.cache_dir);
    progress = true;
    run;
  }

let config_term =
  Term.(
    const config_of $ icount $ no_cache $ verbose $ faults $ metrics_opt $ no_run $ runs_root
    $ run_tag)

(* Render a batch's run report: the one-line summary on stderr (it is
   operational metadata, stdout stays parseable), failure details when
   any, and a nonzero exit for commands that required every workload. *)
let surface_report report =
  let module R = Mica_core.Run_report in
  Logs.info (fun f -> f "run report: %s" (R.summary report));
  if not (R.all_ok report) then prerr_string (R.render report)

let workload_arg p =
  let doc = "Workload identifier, e.g. 'SPEC2000/bzip2/graphic' or 'blast'." in
  Arg.(required & pos p (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let resolve name =
  match Mica_workloads.Registry.find name with
  | Some w -> w
  | None -> (
    match Mica_workloads.Registry.matching name with
    | [ w ] -> w
    | [] ->
      Printf.eprintf "error: no workload matches %S (try 'mica list')\n" name;
      exit 2
    | many ->
      Printf.eprintf "error: %S is ambiguous; candidates:\n" name;
      List.iter (fun w -> Printf.eprintf "  %s\n" (Mica_workloads.Workload.id w)) many;
      exit 2)

(* ---------------- list ---------------- *)

let list_cmd =
  let suite_filter =
    let doc = "Only list this suite." in
    Arg.(value & opt (some string) None & info [ "suite" ] ~docv:"SUITE" ~doc)
  in
  let run metrics suite =
    setup_metrics metrics;
    let workloads =
      match suite with
      | None -> Mica_workloads.Registry.all
      | Some s -> (
        match Mica_workloads.Suite.of_name s with
        | Some suite -> Mica_workloads.Registry.by_suite suite
        | None ->
          Printf.eprintf "error: unknown suite %S\n" s;
          exit 2)
    in
    List.iter
      (fun (w : Mica_workloads.Workload.t) ->
        Printf.printf "%-55s %10dM instrs\n" (Mica_workloads.Workload.id w)
          w.Mica_workloads.Workload.icount_millions)
      workloads;
    Printf.printf "%d workloads\n" (List.length workloads)
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark models (Table I).")
    Term.(const run $ metrics_opt $ suite_filter)

(* ---------------- characterize ---------------- *)

let sketch_budget_opt =
  let doc =
    "Byte budget for the fixed-memory sketch analyzers (split across working-set, \
     reuse, stride, PPM and branch estimators; accuracy is monotone in the budget)."
  in
  Arg.(
    value
    & opt int Mica_sketch.Sketch.default_bytes
    & info [ "sketch-budget" ] ~docv:"BYTES" ~doc)

let sketch_flag =
  let doc =
    "Characterize with the O(1)-memory streaming sketch analyzers instead of the exact \
     tables.  Values are bounded-error estimates ($(b,mica verify) checks the bounds) and \
     bypass the characterization cache."
  in
  Arg.(value & flag & info [ "sketch" ] ~doc)

let characterize_cmd =
  let run config name sketch budget =
    let config =
      if sketch then { config with Mica_core.Pipeline.sketch = Some budget } else config
    in
    let w = resolve name in
    let mica, _, report = Mica_core.Pipeline.datasets_report ~config [ w ] in
    surface_report report;
    if not (Mica_core.Run_report.all_ok report) then exit 1;
    let row = Mica_core.Dataset.row_exn mica (Mica_workloads.Workload.id w) in
    Printf.printf "MICA characteristics of %s (%d instructions%s):\n"
      (Mica_workloads.Workload.id w) config.Mica_core.Pipeline.icount
      (if sketch then Printf.sprintf ", sketch estimates under %d bytes" budget else "");
    Array.iteri
      (fun i v ->
        Printf.printf "%2d  %-12s %14.6f  %s\n" (i + 1)
          Mica_analysis.Characteristics.short_names.(i)
          v
          Mica_analysis.Characteristics.names.(i))
      row
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Measure the 47 microarchitecture-independent characteristics of a workload.")
    Term.(const run $ config_term $ workload_arg 0 $ sketch_flag $ sketch_budget_opt)

(* ---------------- stream ---------------- *)

let stream_cmd =
  let window =
    let doc = "Instructions per tumbling window." in
    Arg.(value & opt int Mica_sketch.Stream.default_window & info [ "window" ] ~docv:"N" ~doc)
  in
  let snapshot_every =
    let doc = "Emit a characteristic-vector snapshot every $(docv) windows." in
    Arg.(value & opt int 1 & info [ "snapshot-every" ] ~docv:"K" ~doc)
  in
  let run config name window snapshot_every budget =
    if window <= 0 || snapshot_every <= 0 then begin
      Printf.eprintf "error: --window and --snapshot-every must be positive\n";
      exit 2
    end;
    let w = resolve name in
    let id = Mica_workloads.Workload.id w in
    let icount = config.Mica_core.Pipeline.icount in
    let plan = Mica_sketch.Sketch.plan ~bytes:budget () in
    let t, snaps =
      Mica_sketch.Stream.run ~window ~snapshot_every
        ~ppm_order:config.Mica_core.Pipeline.ppm_order ~plan w.Mica_workloads.Workload.model
        ~icount
    in
    Printf.printf
      "streaming characterization of %s: %d instructions in %d windows of %d, %d snapshots, \
       %d bytes resident sketch state\n"
      id icount
      (Mica_sketch.Stream.windows t)
      window (Array.length snaps)
      (Mica_sketch.Stream.state_bytes t);
    if Array.length snaps = 0 then exit 0;
    (* Column-normalize the window vectors (the paper's common scale), for
       both the change signal and the online clustering. *)
    let sanitized = ref 0 in
    let vecs =
      Array.map
        (fun (s : Mica_sketch.Stream.snapshot) ->
          Array.map
            (fun v -> if Float.is_finite v then v else (incr sanitized; 0.0))
            s.Mica_sketch.Stream.vector)
        snaps
    in
    if !sanitized > 0 then
      Logs.warn (fun f -> f "%d non-finite window characteristics treated as 0" !sanitized);
    let z = Mica_stats.Normalize.zscore vecs in
    Printf.printf "\n%6s %12s %10s %10s\n" "window" "start" "instrs" "delta";
    Array.iteri
      (fun i (s : Mica_sketch.Stream.snapshot) ->
        let delta =
          if i = 0 then "-"
          else begin
            let acc = ref 0.0 in
            Array.iteri (fun j v -> acc := !acc +. ((v -. z.(i - 1).(j)) ** 2.)) z.(i);
            Printf.sprintf "%.3f" (sqrt !acc)
          end
        in
        Printf.printf "%6d %12d %10d %10s\n" s.Mica_sketch.Stream.index
          s.Mica_sketch.Stream.start_instr s.Mica_sketch.Stream.instructions delta)
      snaps;
    (match Mica_sketch.Stream.decayed t with
    | None -> ()
    | Some d ->
      Printf.printf "\nexponentially-decayed characteristic vector (alpha %.2f):\n"
        Mica_sketch.Stream.default_alpha;
      Array.iteri
        (fun i v ->
          Printf.printf "%2d  %-14s %14.6f\n" (i + 1) Mica_analysis.Extended.short_names.(i) v)
        d);
    (* Live phase detection: cluster the window vectors, assign each
       window online to its nearest centroid, and score the labeling
       against the offline basic-block-vector phase oracle. *)
    if snapshot_every = 1 && Array.length snaps >= 2 then begin
      let oracle =
        Mica_core.Phases.analyze ~interval:window w.Mica_workloads.Workload.model ~icount
      in
      let k = min oracle.Mica_core.Phases.k (Array.length snaps) in
      let km =
        Mica_stats.Kmeans.fit
          ~rng:(Mica_util.Rng.create ~seed:0x57ea3L)
          ~features:Mica_analysis.Extended.short_names ~k z
      in
      let labels = Array.map (Mica_sketch.Stream.assign ~centroids:km.Mica_stats.Kmeans.centroids) z in
      let render_timeline l =
        String.init (Array.length l) (fun i -> Char.chr (Char.code 'A' + (l.(i) mod 26)))
      in
      Printf.printf "\nphase detection (%d-instruction windows):\n" window;
      Printf.printf "  online  (k=%d, sketch vectors):  %s\n" k (render_timeline labels);
      Printf.printf "  oracle  (k=%d, code signatures): %s\n" oracle.Mica_core.Phases.k
        (render_timeline oracle.Mica_core.Phases.assignments);
      Printf.printf "  purity vs oracle: %.3f\n"
        (Mica_sketch.Stream.purity ~labels ~oracle:oracle.Mica_core.Phases.assignments)
    end
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Windowed streaming characterization in fixed memory: per-window characteristic \
          snapshots, an exponentially-decayed summary vector, and live phase detection \
          scored against the offline phase oracle.")
    Term.(const run $ config_term $ workload_arg 0 $ window $ snapshot_every $ sketch_budget_opt)

(* ---------------- counters ---------------- *)

let counters_cmd =
  let run config name =
    let w = resolve name in
    let _, hpc = Mica_core.Pipeline.characterize config w in
    Printf.printf "hardware performance counters of %s (%d instructions):\n"
      (Mica_workloads.Workload.id w) config.Mica_core.Pipeline.icount;
    Array.iteri
      (fun i v ->
        Printf.printf "  %-10s %10.6f  %s\n"
          Mica_uarch.Hw_counters.short_names.(i)
          v
          Mica_uarch.Hw_counters.names.(i))
      hpc
  in
  Cmd.v
    (Cmd.info "counters"
       ~doc:"Measure the hardware-performance-counter metrics of a workload.")
    Term.(const run $ config_term $ workload_arg 0)

(* ---------------- compare (workloads, or run directories) ---------------- *)

(* [PATH] is a run directory when it holds a manifest; the magic basename
   [latest] resolves to the newest run under its parent (CI convenience:
   [mica compare results/baseline runs/latest]).  Arguments that clearly
   meant a run but cannot resolve — empty runs/, dangling latest symlink,
   manifest-less directory — exit 2 with the run-specific reason instead
   of falling through to workload resolution. *)
let resolve_run_path p =
  match Mica_run.Run_dir.resolve p with
  | `Run d -> Some d
  | `Not_run -> None
  | `Error reason ->
    Printf.eprintf "error: %s\n" reason;
    exit 2

(* A run that exists but fails verification (truncated manifest, digest
   mismatch, foreign schema) is an unreadable run: a diagnostic and exit
   2, never an exception. *)
let load_run_or_exit dir =
  match Mica_run.Run_dir.load dir with
  | Ok r -> r
  | Error msg ->
    Printf.eprintf "error: unreadable run: %s\n" msg;
    exit 2

let write_json_report path json =
  Mica_run.Run_io.atomic_write path (Mica_obs.Json.to_string ~pretty:true json ^ "\n")

let tolerance_opt =
  let doc =
    "Relative tolerance for characteristic and counter drift between two run directories \
     (symmetric relative delta; drift in either direction beyond this fails the compare)."
  in
  Arg.(
    value
    & opt float Mica_run.Compare.default_tolerance.Mica_run.Compare.char_rel
    & info [ "tolerance" ] ~docv:"REL" ~doc)

let tolerance_bench_opt =
  let doc =
    "Relative tolerance for bench-time regressions between two run directories.  Ground it \
     in $(b,mica variance) output over repeated runs rather than guessing."
  in
  Arg.(
    value
    & opt float Mica_run.Compare.default_tolerance.Mica_run.Compare.bench_rel
    & info [ "tolerance-bench" ] ~docv:"REL" ~doc)

let json_report_opt =
  let doc = "Also write the comparison/variance report as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let compare_runs ~tol a b json_out =
  let ra = load_run_or_exit a and rb = load_run_or_exit b in
  let t = Mica_run.Compare.run ~tol ra rb in
  print_string (Mica_run.Compare.render t);
  Option.iter (fun p -> write_json_report p (Mica_run.Compare.to_json t)) json_out;
  if not (Mica_run.Compare.ok t) then exit 1

let compare_cmd =
  let space =
    let doc = "Which characteristics to compare: 'mica' (Fig. 3) or 'hpc' (Fig. 2)." in
    Arg.(value & opt (enum [ ("mica", `Mica); ("hpc", `Hpc) ]) `Mica & info [ "space" ] ~doc)
  in
  let arg p =
    let doc = "Workload identifier, or a run directory (then both must be run directories)." in
    Arg.(required & pos p (some string) None & info [] ~docv:"WORKLOAD|RUN" ~doc)
  in
  let run config a b space tol_char tol_bench json_out =
    match (resolve_run_path a, resolve_run_path b) with
    | Some ra, Some rb ->
      compare_runs
        ~tol:{ Mica_run.Compare.char_rel = tol_char; bench_rel = tol_bench }
        ra rb json_out
    | Some _, None | None, Some _ ->
      Printf.eprintf "error: to compare run directories, both arguments must be run directories\n";
      exit 2
    | None, None ->
      let wa = resolve a and wb = resolve b in
      let ctx = E.Context.load ~config () in
      let ida = Mica_workloads.Workload.id wa and idb = Mica_workloads.Workload.id wb in
      let cmp =
        match space with
        | `Mica -> E.fig3 ~a:ida ~b:idb ctx
        | `Hpc -> E.fig2 ~a:ida ~b:idb ctx
      in
      print_string (Mica_core.Case_study.render cmp)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two workloads characteristic by characteristic, or two run directories \
          delta by delta (exits nonzero on drift or bench regression).")
    Term.(
      const run $ config_term $ arg 0 $ arg 1 $ space $ tolerance_opt $ tolerance_bench_opt
      $ json_report_opt)

(* ---------------- variance ---------------- *)

let variance_cmd =
  let runs =
    let doc = "Run directories (two or more) produced by the same configuration." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"RUN" ~doc)
  in
  let budget =
    let doc =
      "Noise budget: flag metrics whose run-to-run coefficient of variation exceeds $(docv)."
    in
    Arg.(
      value & opt float Mica_run.Variance.default_budget & info [ "noise-budget" ] ~docv:"CV" ~doc)
  in
  let gate =
    let doc = "Exit nonzero when any metric exceeds the noise budget." in
    Arg.(value & flag & info [ "gate" ] ~doc)
  in
  let run verbose metrics runs budget gate json_out =
    setup_logs verbose;
    setup_metrics metrics;
    let dirs =
      List.map
        (fun p ->
          match resolve_run_path p with
          | Some d -> d
          | None ->
            Printf.eprintf "error: %s is not a run directory\n" p;
            exit 2)
        runs
    in
    if List.length dirs < 2 then begin
      Printf.eprintf "error: variance needs at least two runs\n";
      exit 2
    end;
    let loaded = List.map load_run_or_exit dirs in
    let t = Mica_run.Variance.analyze ~budget loaded in
    print_string (Mica_run.Variance.render t);
    Option.iter (fun p -> write_json_report p (Mica_run.Variance.to_json t)) json_out;
    if gate && Mica_run.Variance.noisy t <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "variance"
       ~doc:
         "Per-metric mean/stddev/CV over N same-config runs, flagging metrics noisier than \
          the budget — the measured ground for $(b,mica compare) tolerances.")
    Term.(const run $ verbose $ metrics_opt $ runs $ budget $ gate $ json_report_opt)

(* ---------------- distance ---------------- *)

let distance_cmd =
  let run config a b =
    let wa = resolve a and wb = resolve b in
    let ctx = E.Context.load ~config () in
    let ida = Mica_workloads.Workload.id wa and idb = Mica_workloads.Workload.id wb in
    let dm = Mica_core.Space.distance_by_name ctx.E.Context.mica_space ida idb in
    let dh = Mica_core.Space.distance_by_name ctx.E.Context.hpc_space ida idb in
    Printf.printf "%s vs %s\n" ida idb;
    Printf.printf "  MICA-space distance: %8.4f  (max over all pairs: %.4f)\n" dm
      (Mica_core.Space.max_distance ctx.E.Context.mica_space);
    Printf.printf "  HPC-space distance:  %8.4f  (max over all pairs: %.4f)\n" dh
      (Mica_core.Space.max_distance ctx.E.Context.hpc_space)
  in
  Cmd.v
    (Cmd.info "distance"
       ~doc:"Distance between two workloads in the MICA and counter spaces.")
    Term.(const run $ config_term $ workload_arg 0 $ workload_arg 1)

(* ---------------- classify ---------------- *)

let classify_cmd =
  let frac =
    let doc = "Threshold as a fraction of the maximum distance." in
    Arg.(value & opt float 0.2 & info [ "threshold" ] ~docv:"FRAC" ~doc)
  in
  let run config frac =
    let ctx = E.Context.load ~config () in
    let counts = E.table3 ~frac ctx in
    print_string (E.render_table3 counts)
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify all benchmark tuples (Table III).")
    Term.(const run $ config_term $ frac)

(* ---------------- select-ga ---------------- *)

let select_ga_cmd =
  let seed =
    let doc = "Random seed for the genetic algorithm." in
    Arg.(value & opt int64 0x6A5EEDL & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let generations =
    let doc = "Maximum generations." in
    Arg.(
      value
      & opt int Select.Genetic.default_config.Select.Genetic.max_generations
      & info [ "generations" ] ~docv:"G" ~doc)
  in
  let run config seed generations =
    (* The GA seed is invocation state the manifest must carry. *)
    let config =
      {
        config with
        Mica_core.Pipeline.run =
          Option.map
            (fun s ->
              { s with Mica_core.Pipeline.run_seeds = [ ("ga", Printf.sprintf "0x%Lx" seed) ] })
            config.Mica_core.Pipeline.run;
      }
    in
    let ctx = E.Context.load ~config () in
    (* Graceful degradation: the table is computed over the surviving
       workloads; failures are named on stderr. *)
    surface_report ctx.E.Context.report;
    let ga_config =
      { Select.Genetic.default_config with Select.Genetic.max_generations = generations }
    in
    let ga = E.run_ga ~config:ga_config ~seed ctx in
    print_string (E.render_table4 ga)
  in
  Cmd.v
    (Cmd.info "select-ga"
       ~doc:"Select key characteristics with the genetic algorithm (Table IV).")
    Term.(const run $ config_term $ seed $ generations)

(* ---------------- select-ce ---------------- *)

let select_ce_cmd =
  let keep =
    let doc = "Print the subset retained at this size." in
    Arg.(value & opt int 8 & info [ "keep" ] ~docv:"K" ~doc)
  in
  let run config keep =
    let ctx = E.Context.load ~config () in
    let steps = E.run_ce ctx in
    List.iter
      (fun (s : Select.Correlation_elimination.step) ->
        Printf.printf "remove %-12s (avg |r| %.3f) -> %2d left, rho %.3f\n"
          Mica_analysis.Characteristics.short_names.(s.Select.Correlation_elimination.removed)
          s.Select.Correlation_elimination.avg_abs_corr
          (Array.length s.Select.Correlation_elimination.remaining)
          s.Select.Correlation_elimination.rho)
      steps;
    match Select.Correlation_elimination.subset_of_size steps keep with
    | subset ->
      Printf.printf "\nretained at %d:\n" keep;
      Array.iter (fun c -> Printf.printf "  %s\n" Mica_analysis.Characteristics.names.(c)) subset
    | exception Not_found -> ()
  in
  Cmd.v
    (Cmd.info "select-ce" ~doc:"Reduce characteristics by correlation elimination.")
    Term.(const run $ config_term $ keep)

(* ---------------- cluster ---------------- *)

let cluster_cmd =
  let k_max =
    let doc = "Maximum K for the BIC sweep." in
    Arg.(value & opt int 70 & info [ "k-max" ] ~docv:"K" ~doc)
  in
  let all_chars =
    let doc = "Cluster on all 47 characteristics instead of the GA-selected key ones." in
    Arg.(value & flag & info [ "all-characteristics" ] ~doc)
  in
  let run config k_max all_chars =
    let ctx = E.Context.load ~config () in
    let selected =
      if all_chars then Array.init Mica_analysis.Characteristics.count Fun.id
      else (E.run_ga ctx).Select.Genetic.selected
    in
    let f = E.fig6 ~k_max ctx ~selected in
    print_string (E.render_fig6 f)
  in
  Cmd.v
    (Cmd.info "cluster" ~doc:"Cluster all workloads on key characteristics (Figure 6).")
    Term.(const run $ config_term $ k_max $ all_chars)

(* ---------------- kiviat ---------------- *)

let kiviat_cmd =
  let run config name =
    let w = resolve name in
    let ctx = E.Context.load ~config () in
    let ga = E.run_ga ctx in
    let reduced =
      Mica_core.Dataset.select_features ctx.E.Context.mica ga.Select.Genetic.selected
    in
    let unit = Mica_stats.Normalize.unit_range reduced.Mica_core.Dataset.data in
    match Mica_core.Dataset.row_index reduced (Mica_workloads.Workload.id w) with
    | None ->
      Printf.eprintf "error: workload missing from dataset\n";
      exit 1
    | Some i ->
      Printf.printf "%s over the key characteristics (unit-scaled):\n"
        (Mica_workloads.Workload.id w);
      print_string
        (Mica_core.Kiviat.text ~axes:reduced.Mica_core.Dataset.features ~values:unit.(i))
  in
  Cmd.v
    (Cmd.info "kiviat" ~doc:"Kiviat view of one workload over the key characteristics.")
    Term.(const run $ config_term $ workload_arg 0)

(* ---------------- place ---------------- *)

let place_cmd =
  let spec_file =
    let doc = "Workload spec file (see Mica_workloads.Spec_file for the format)." in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"SPEC" ~doc)
  in
  let example =
    let doc = "Print an example spec file and exit." in
    Arg.(value & flag & info [ "example" ] ~doc)
  in
  let run config spec_file example =
    if example then print_string Mica_workloads.Spec_file.example
    else
      let spec_file =
        match spec_file with
        | Some f -> f
        | None ->
          Printf.eprintf "error: SPEC argument required (or use --example)\n";
          exit 2
      in
      match Mica_workloads.Spec_file.load spec_file with
      | Error msg ->
        Printf.eprintf "error: %s: %s\n" spec_file msg;
        exit 2
      | Ok program ->
        Printf.printf "characterizing %s (%d instructions)...\n%!" program.Mica_trace.Program.name
          config.Mica_core.Pipeline.icount;
        let vector =
          Mica_analysis.Analyzer.analyze program ~icount:config.Mica_core.Pipeline.icount
        in
        let ctx = E.Context.load ~config () in
        let space = ctx.E.Context.mica_space in
        let distances = Mica_core.Space.distances_from space vector in
        let order = Array.init (Array.length distances) Fun.id in
        Array.sort (fun a b -> compare distances.(a) distances.(b)) order;
        Printf.printf "nearest benchmarks in the inherent-behaviour space:\n";
        for rank = 0 to min 9 (Array.length order - 1) do
          let i = order.(rank) in
          Printf.printf "  %2d. %-45s %8.3f\n" (rank + 1)
            ctx.E.Context.mica.Mica_core.Dataset.names.(i)
            distances.(i)
        done;
        let max_d = Mica_core.Space.max_distance space in
        Printf.printf "(20%% similarity threshold: %.3f)\n" (0.2 *. max_d)
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:"Characterize a custom workload spec and place it among the 122 benchmarks.")
    Term.(const run $ config_term $ spec_file $ example)

(* ---------------- dendrogram ---------------- *)

let dendrogram_cmd =
  let cut =
    let doc = "Also print the clusters obtained by cutting into K groups." in
    Arg.(value & opt (some int) None & info [ "cut" ] ~docv:"K" ~doc)
  in
  let all_chars =
    let doc = "Use all 47 characteristics instead of the GA-selected key ones." in
    Arg.(value & flag & info [ "all-characteristics" ] ~doc)
  in
  let run config cut all_chars =
    let ctx = E.Context.load ~config () in
    let dataset =
      if all_chars then ctx.E.Context.mica
      else
        Mica_core.Dataset.select_features ctx.E.Context.mica
          (E.run_ga ctx).Select.Genetic.selected
    in
    let d = Mica_core.Dendrogram.build dataset in
    print_string (Mica_core.Dendrogram.render ~max_depth:7 d);
    match cut with
    | None -> ()
    | Some k ->
      Printf.printf "\ncut into %d clusters:\n" k;
      List.iter
        (fun (c, members) ->
          Printf.printf "cluster %d (%d):\n" (c + 1) (Array.length members);
          Array.iter (fun m -> Printf.printf "  %s\n" m) members)
        (Mica_core.Dendrogram.clusters_at d ~k)
  in
  Cmd.v
    (Cmd.info "dendrogram"
       ~doc:"Hierarchical clustering view of benchmark similarity (prior-work style).")
    Term.(const run $ config_term $ cut $ all_chars)

(* ---------------- phases ---------------- *)

let phases_cmd =
  let interval =
    let doc = "Instructions per phase-analysis interval." in
    Arg.(value & opt int 10_000 & info [ "interval" ] ~docv:"N" ~doc)
  in
  let run config name interval =
    let w = resolve name in
    let t =
      Mica_core.Phases.analyze ~interval w.Mica_workloads.Workload.model
        ~icount:config.Mica_core.Pipeline.icount
    in
    Printf.printf "phase analysis of %s:\n%s" (Mica_workloads.Workload.id w)
      (Mica_core.Phases.render t)
  in
  Cmd.v
    (Cmd.info "phases"
       ~doc:"SimPoint-style phase classification of one workload's execution.")
    Term.(const run $ config_term $ workload_arg 0 $ interval)

(* ---------------- pca ---------------- *)

let pca_cmd =
  let run config =
    let ctx = E.Context.load ~config () in
    let ga = E.run_ga ctx in
    print_string (Mica_core.Pca_comparison.render (Mica_core.Pca_comparison.run ctx ~ga))
  in
  Cmd.v
    (Cmd.info "pca" ~doc:"Compare the PCA prior-work baseline against the GA selection.")
    Term.(const run $ config_term)

(* ---------------- subset ---------------- *)

let load_store path =
  match Mica_core.Dataset_store.load path with
  | Ok t -> t
  | Error e ->
    Printf.eprintf "error: %s: %s\n" path (Mica_run.Run_io.describe_error e);
    exit 2

let subset_cmd =
  let k =
    let doc = "Size of the reduced benchmark suite." in
    Arg.(value & opt int 15 & info [ "k" ] ~docv:"K" ~doc)
  in
  let dataset_bin =
    let doc =
      "Subset this stored corpus dataset instead of the 122-benchmark registry, using \
       the scalable on-demand k-center (no O(n^2) distance matrix)."
    in
    Arg.(value & opt (some string) None & info [ "dataset-bin" ] ~docv:"FILE" ~doc)
  in
  let run config k dataset_bin =
    match dataset_bin with
    | Some path ->
      let store = load_store path in
      let module Colmat = Mica_stats.Colmat in
      let z = Colmat.zscore store.Mica_core.Dataset_store.data in
      let t = Mica_core.Subsetting.k_center_scalable z ~k in
      let names = store.Mica_core.Dataset_store.names in
      Printf.printf
        "reduced suite of %d of %d members (covering radius %.3f, mean distance %.3f):\n"
        (Array.length t.Mica_core.Subsetting.chosen)
        (Colmat.rows z) t.Mica_core.Subsetting.max_distance
        t.Mica_core.Subsetting.mean_distance;
      Array.iter (fun c -> Printf.printf "* %s\n" names.(c)) t.Mica_core.Subsetting.chosen
    | None ->
      let ctx = E.Context.load ~config () in
      let ga = E.run_ga ctx in
      let reduced =
        Mica_core.Dataset.select_features ctx.E.Context.mica ga.Select.Genetic.selected
      in
      let space = Mica_core.Space.of_dataset reduced in
      let t = Mica_core.Subsetting.k_center space ~k in
      print_string (Mica_core.Subsetting.render space t)
  in
  Cmd.v
    (Cmd.info "subset" ~doc:"Pick a reduced benchmark suite that covers the workload space.")
    Term.(const run $ config_term $ k $ dataset_bin)

(* ---------------- corpus / knn (scale layer) ---------------- *)

let corpus_cmd =
  let size =
    let doc = "Number of corpus members to generate." in
    Arg.(value & opt int 1024 & info [ "size" ] ~docv:"N" ~doc)
  in
  let anchors =
    let doc = "Characterized anchor members per family." in
    Arg.(value & opt int 4 & info [ "anchors" ] ~docv:"A" ~doc)
  in
  let anchor_icount =
    let doc = "Trace length for anchor characterization." in
    Arg.(value & opt int 50_000 & info [ "anchor-icount" ] ~docv:"N" ~doc)
  in
  let out =
    let doc = "Write the corpus as a columnar binary dataset store." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let csv =
    let doc = "Also write the corpus as CSV (lossless round-trip of the binary)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let run config size anchors anchor_icount out csv =
    let ds = Mica_core.Corpus_gen.generate ~anchors ~icount:anchor_icount ~size () in
    Option.iter
      (fun path ->
        Mica_core.Dataset_store.write path ds;
        Printf.printf "wrote %s (%dx%d binary columnar)\n" path (Mica_core.Dataset.rows ds)
          (Mica_core.Dataset.cols ds))
      out;
    Option.iter
      (fun path ->
        Mica_core.Dataset.to_csv ds path;
        Printf.printf "wrote %s\n" path)
      csv;
    (* commit a run directory so CI can gate regenerated corpora with
       [mica compare] — mica table only; compare notes the absent
       counters table instead of failing *)
    (match config.Mica_core.Pipeline.run with
    | None -> ()
    | Some sink ->
      let module R = Mica_run.Run_dir in
      let manifest =
        {
          Mica_run.Manifest.schema = Mica_run.Manifest.schema_version;
          created = R.timestamp ();
          tag = sink.Mica_core.Pipeline.run_tag;
          subcommand = sink.Mica_core.Pipeline.run_tag;
          argv = Array.to_list Sys.argv;
          git_rev = Mica_run.Run_io.git_rev ();
          icount = anchor_icount;
          ppm_order = config.Mica_core.Pipeline.ppm_order;
          jobs = config.Mica_core.Pipeline.jobs;
          retries = config.Mica_core.Pipeline.retries;
          cache = false;
          mica_jobs_env = Sys.getenv_opt "MICA_JOBS";
          fault_spec = Option.map Mica_util.Fault.to_string (Mica_util.Fault.installed ());
          seeds = [ ("corpus-version", string_of_int Mica_workloads.Corpus.version) ];
          workloads = Mica_core.Dataset.rows ds;
          report = "";
          files = [];
        }
      in
      let table =
        {
          R.row_names = ds.Mica_core.Dataset.names;
          columns = ds.Mica_core.Dataset.features;
          cells = ds.Mica_core.Dataset.data;
        }
      in
      let artifacts =
        [
          { R.filename = R.mica_file; contents = R.csv_of_table table };
          {
            R.filename = R.metrics_file;
            contents = Mica_obs.Obs.to_json (Mica_obs.Obs.snapshot ());
          };
        ]
      in
      (match R.commit ~root:sink.Mica_core.Pipeline.run_root ~manifest ~artifacts () with
      | dir -> Printf.printf "committed run %s\n" dir
      | exception Sys_error _ ->
        Logs.warn (fun f -> f "run directory commit failed; results are unaffected")));
    let per_family = (size + 2) / 3 in
    Printf.printf "corpus: %d members x %d characteristics (%d families, <=%d each, %d anchors)\n"
      size (Mica_core.Dataset.cols ds)
      (List.length Mica_workloads.Corpus.families)
      per_family anchors
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Generate a parameter-sweep corpus dataset (anchored synthesis over the gen/* \
          workload families) and optionally store it in binary columnar form.")
    Term.(const run $ config_term $ size $ anchors $ anchor_icount $ out $ csv)

let knn_cmd =
  let k =
    let doc = "Number of nearest neighbours." in
    Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc)
  in
  let budget =
    let doc = "ANN candidate budget (exactly re-ranked candidates); default 4k." in
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N" ~doc)
  in
  let exact =
    let doc = "Use the exact linear scan instead of the ANN index." in
    Arg.(value & flag & info [ "exact" ] ~doc)
  in
  let range =
    let doc = "Range query: all rows within $(docv) (normalized space) instead of kNN." in
    Arg.(value & opt (some float) None & info [ "range" ] ~docv:"RADIUS" ~doc)
  in
  let check_recall =
    let doc = "Also run the exact scan and report ANN recall." in
    Arg.(value & flag & info [ "check-recall" ] ~doc)
  in
  let cells =
    let doc = "ANN index cell count (default sqrt n)." in
    Arg.(value & opt (some int) None & info [ "cells" ] ~docv:"N" ~doc)
  in
  let proj_dims =
    let doc = "ANN projection dimensions (default 8)." in
    Arg.(value & opt (some int) None & info [ "proj-dims" ] ~docv:"D" ~doc)
  in
  let query_arg =
    let doc = "Query row: a workload id from the dataset, or a 0-based row index." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let dataset_bin_req =
    let doc = "Columnar binary dataset (written by $(b,mica corpus --out))." in
    Arg.(required & opt (some string) None & info [ "dataset-bin" ] ~docv:"FILE" ~doc)
  in
  let run verbose metrics path query k budget exact range check_recall cells proj_dims =
    setup_logs verbose;
    setup_metrics metrics;
    let store = load_store path in
    let module Colmat = Mica_stats.Colmat in
    let module Ann = Mica_stats.Ann in
    let z = Colmat.zscore store.Mica_core.Dataset_store.data in
    let names = store.Mica_core.Dataset_store.names in
    let qi =
      match int_of_string_opt query with
      | Some i when i >= 0 && i < Array.length names -> i
      | Some i ->
        Printf.eprintf "error: row %d out of range (dataset has %d rows)\n" i
          (Array.length names);
        exit 2
      | None -> (
        match Array.find_index (String.equal query) names with
        | Some i -> i
        | None ->
          Printf.eprintf "error: no row named %S in %s\n" query path;
          exit 2)
    in
    let q = Colmat.row z qi in
    let index = if exact then None else Some (Ann.build ?cells ?proj_dims z) in
    let strip ns =
      (* the query row itself is always its own nearest neighbour *)
      Array.of_list (List.filter (fun n -> n.Ann.index <> qi) (Array.to_list ns))
    in
    let results =
      match (range, index) with
      | Some radius, Some idx -> strip (Ann.range idx ~radius q)
      | Some radius, None -> strip (Ann.exact_range z ~radius q)
      | None, Some idx -> strip (Ann.knn ?budget idx ~k:(k + 1) q)
      | None, None -> strip (Ann.exact_knn z ~k:(k + 1) q)
    in
    let results =
      if range = None && Array.length results > k then Array.sub results 0 k else results
    in
    (match index with
    | Some idx ->
      Printf.printf "# ann index: %d cells, %d projection dims over %d rows\n"
        (Ann.cell_count idx) (Ann.proj_dims idx) (Ann.size idx)
    | None -> Printf.printf "# exact linear scan over %d rows\n" (Colmat.rows z));
    Printf.printf "# query: %s\n" names.(qi);
    Array.iter (fun n -> Printf.printf "%-40s %.6f\n" names.(n.Ann.index) n.Ann.distance) results;
    if check_recall then begin
      let exact_ns =
        match range with
        | Some radius -> strip (Ann.exact_range z ~radius q)
        | None -> Array.sub (strip (Ann.exact_knn z ~k:(k + 1) q)) 0 (min k (Colmat.rows z - 1))
      in
      let r = Ann.recall ~exact:exact_ns ~approx:results in
      Printf.printf "recall vs exact: %.4f (%d/%d)\n" r
        (int_of_float (r *. float_of_int (Array.length exact_ns)))
        (Array.length exact_ns);
      if r < Mica_verify.Approx.min_recall && index <> None then begin
        Printf.eprintf "error: recall %.4f below the %.2f acceptance bound\n" r
          Mica_verify.Approx.min_recall;
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "knn"
       ~doc:
         "Nearest-neighbour and range queries over a stored corpus dataset, via the ANN \
          index (default) or the exact scan.")
    Term.(
      const run $ verbose $ metrics_opt $ dataset_bin_req $ query_arg $ k $ budget $ exact
      $ range $ check_recall $ cells $ proj_dims)

(* ---------------- predict ---------------- *)

let predict_cmd =
  let k =
    let doc = "Number of nearest neighbours." in
    Arg.(value & opt int 5 & info [ "k" ] ~docv:"K" ~doc)
  in
  let run config k =
    let ctx = E.Context.load ~config () in
    print_string (Mica_core.Prediction.render (Mica_core.Prediction.evaluate_counters ~k ctx))
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Leave-one-out machine-metric prediction from inherent similarity.")
    Term.(const run $ config_term $ k)

(* ---------------- dump-trace / characterize-trace ---------------- *)

let format_arg =
  let doc = "Trace format: 'text' or 'binary'." in
  Arg.(value & opt (enum [ ("text", `Text); ("binary", `Binary) ]) `Text & info [ "format" ] ~doc)

let dump_trace_cmd =
  let output =
    let doc = "Output file." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run config name output format =
    let w = resolve name in
    let icount = config.Mica_core.Pipeline.icount in
    let n =
      match format with
      | `Text -> Mica_trace.Trace_io.write_text ~path:output w.Mica_workloads.Workload.model ~icount
      | `Binary ->
        Mica_trace.Trace_io.write_binary ~path:output w.Mica_workloads.Workload.model ~icount
    in
    Printf.printf "wrote %d instructions of %s to %s\n" n (Mica_workloads.Workload.id w) output
  in
  Cmd.v
    (Cmd.info "dump-trace" ~doc:"Record a workload's dynamic instruction trace to a file.")
    Term.(const run $ config_term $ workload_arg 0 $ output $ format_arg)

let characterize_trace_cmd =
  let input =
    let doc = "Trace file recorded with dump-trace." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let run metrics input format =
    setup_metrics metrics;
    let analyzer = Mica_analysis.Analyzer.create () in
    let sink = Mica_analysis.Analyzer.sink analyzer in
    let n =
      try
        match format with
        | `Text -> Mica_trace.Trace_io.replay_text ~path:input ~sink
        | `Binary -> Mica_trace.Trace_io.replay_binary ~path:input ~sink
      with Failure msg ->
        Printf.eprintf "error: %s: %s\n" input msg;
        exit 2
    in
    Printf.printf "MICA characteristics from %s (%d recorded instructions):\n" input n;
    Array.iteri
      (fun i v ->
        Printf.printf "%2d  %-12s %14.6f\n" (i + 1)
          Mica_analysis.Characteristics.short_names.(i)
          v)
      (Mica_analysis.Analyzer.vector analyzer)
  in
  Cmd.v
    (Cmd.info "characterize-trace"
       ~doc:"Measure the 47 characteristics from a recorded trace file.")
    Term.(const run $ metrics_opt $ input $ format_arg)

(* ---------------- machines / locality / simpoint ---------------- *)

let machines_cmd =
  let run config =
    let ctx = E.Context.load ~config () in
    print_string (Mica_core.Machines.render (Mica_core.Machines.run ctx))
  in
  Cmd.v
    (Cmd.info "machines"
       ~doc:"Test whether counter-based similarity transfers across machine models.")
    Term.(const run $ config_term)

(* ---------------- fleet / calibrate ---------------- *)

let machines_dir =
  let doc = "Directory of declarative machine descriptions (*.json)." in
  Arg.(value & opt string "machines" & info [ "machines" ] ~docv:"DIR" ~doc)

let load_machines dir =
  match Mica_uarch.Machine_desc.load_dir dir with
  | Ok named -> List.map snd named
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 2

let commit_run ~config ~icount ~workloads ~seeds ~artifacts =
  match config.Mica_core.Pipeline.run with
  | None -> None
  | Some sink -> (
    let module R = Mica_run.Run_dir in
    let manifest =
      {
        Mica_run.Manifest.schema = Mica_run.Manifest.schema_version;
        created = R.timestamp ();
        tag = sink.Mica_core.Pipeline.run_tag;
        subcommand = sink.Mica_core.Pipeline.run_tag;
        argv = Array.to_list Sys.argv;
        git_rev = Mica_run.Run_io.git_rev ();
        icount;
        ppm_order = config.Mica_core.Pipeline.ppm_order;
        jobs = config.Mica_core.Pipeline.jobs;
        retries = config.Mica_core.Pipeline.retries;
        cache = false;
        mica_jobs_env = Sys.getenv_opt "MICA_JOBS";
        fault_spec = Option.map Mica_util.Fault.to_string (Mica_util.Fault.installed ());
        seeds;
        workloads;
        report = "";
        files = [];
      }
    in
    let artifacts =
      artifacts
      @ [
          {
            R.filename = R.metrics_file;
            contents = Mica_obs.Obs.to_json (Mica_obs.Obs.snapshot ());
          };
        ]
    in
    match R.commit ~root:sink.Mica_core.Pipeline.run_root ~manifest ~artifacts () with
    | dir ->
      Printf.printf "committed run %s\n" dir;
      Some dir
    | exception Sys_error _ ->
      Logs.warn (fun f -> f "run directory commit failed; results are unaffected");
      None)

let fleet_cmd =
  let report_flag =
    let doc =
      "Also build each machine's counter space and report benchmark-distance \
       correlations: machine vs machine, and each machine vs the \
       microarchitecture-independent space."
    in
    Arg.(value & flag & info [ "report" ] ~doc)
  in
  let workload_names =
    let doc = "Characterize these workloads only (repeatable; default: full registry)." in
    Arg.(value & opt_all string [] & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc)
  in
  let run config dir report_flag names =
    let configs = load_machines dir in
    let workloads =
      match names with
      | [] -> Mica_workloads.Registry.all
      | names -> List.map resolve names
    in
    let icount = config.Mica_core.Pipeline.icount in
    let fleet =
      Mica_core.Fleet.characterize ~jobs:config.Mica_core.Pipeline.jobs ~configs ~icount
        workloads
    in
    Printf.printf "fleet: %d workloads x %d machines x %d counters (icount %d)\n"
      (Array.length fleet.Mica_core.Fleet.workload_ids)
      (Array.length fleet.Mica_core.Fleet.machine_names)
      (Array.length fleet.Mica_core.Fleet.metric_names)
      icount;
    let report_text =
      if not report_flag then None
      else begin
        let ctx = E.Context.load ~config ~workloads () in
        let r =
          Mica_core.Fleet.report ~mica:ctx.E.Context.mica_space ~hpc:ctx.E.Context.hpc_space
            fleet
        in
        let text = Mica_core.Fleet.render_report r in
        print_string text;
        Some text
      end
    in
    let module R = Mica_run.Run_dir in
    let artifacts =
      { R.filename = "fleet.csv";
        contents = R.csv_of_table (Mica_core.Fleet.to_table fleet) }
      :: (match report_text with
         | Some text -> [ { R.filename = "report.txt"; contents = text } ]
         | None -> [])
    in
    ignore
      (commit_run ~config ~icount
         ~workloads:(Array.length fleet.Mica_core.Fleet.workload_ids)
         ~seeds:[ ("machines-dir", dir) ]
         ~artifacts)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Characterize the corpus against every machine description in a directory — one \
          generated trace per workload fanned out to all machine models in a single pass \
          — and commit the NxM counter matrix to a run directory.")
    Term.(const run $ config_term $ machines_dir $ report_flag $ workload_names)

let calibrate_cmd =
  let check =
    let doc = "CI gate: exit nonzero if any counter falls outside its envelope." in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let cal_icount =
    let doc = "Dynamic instructions per baseline kernel trace." in
    Arg.(
      value
      & opt int Mica_uarch.Baseline.default_icount
      & info [ "icount"; "n" ] ~docv:"N" ~doc)
  in
  let run verbose metrics no_run runs_root run_tag dir check icount =
    setup_logs verbose;
    setup_metrics metrics;
    let configs = load_machines dir in
    let outcomes = Mica_uarch.Baseline.run_all ~icount configs in
    let text = Mica_uarch.Baseline.render outcomes in
    print_string text;
    let config =
      {
        Mica_core.Pipeline.default_config with
        icount;
        run =
          (if no_run then None
           else
             Some
               {
                 Mica_core.Pipeline.run_root = runs_root;
                 run_tag = Option.value run_tag ~default:"calibrate";
                 run_seeds = [];
               });
      }
    in
    let module R = Mica_run.Run_dir in
    ignore
      (commit_run ~config ~icount
         ~workloads:(List.length Mica_uarch.Baseline.kernel_names)
         ~seeds:[ ("machines-dir", dir) ]
         ~artifacts:[ { R.filename = "calibrate.txt"; contents = text } ]);
    if not (Mica_uarch.Baseline.passed outcomes) then begin
      Printf.eprintf "calibration failed: %d counter(s) out of envelope\n"
        (List.length (Mica_uarch.Baseline.failures outcomes));
      if check then exit 1
    end
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Run the calibrated micro-benchmark baseline suite (stream, dgemm, chase, \
          torture) against every machine description and check the six counters of each \
          machine against analytically derived envelopes.  With $(b,--check), any \
          out-of-envelope counter exits nonzero (the CI gate).")
    Term.(
      const run $ verbose $ metrics_opt $ no_run $ runs_root $ run_tag $ machines_dir $ check
      $ cal_icount)

let locality_cmd =
  let run config =
    let ctx = E.Context.load ~config () in
    print_string (Mica_core.Locality.render (Mica_core.Locality.run ctx))
  in
  Cmd.v
    (Cmd.info "locality" ~doc:"Temporal-locality (reuse distance) comparison across suites.")
    Term.(const run $ config_term)

let simpoint_cmd =
  let interval =
    let doc = "Instructions per interval." in
    Arg.(value & opt int 10_000 & info [ "interval" ] ~docv:"N" ~doc)
  in
  let run config name interval =
    let w = resolve name in
    let t = Mica_core.Simpoint.validate ~interval w ~icount:config.Mica_core.Pipeline.icount in
    print_string (Mica_core.Simpoint.render [ (Mica_workloads.Workload.id w, t) ])
  in
  Cmd.v
    (Cmd.info "simpoint"
       ~doc:"Validate SimPoint-style sampled simulation on one workload.")
    Term.(const run $ config_term $ workload_arg 0 $ interval)

(* ---------------- verify ---------------- *)

let verify_cmd =
  let quick =
    let doc = "Reduced trace lengths (CI-friendly; well under 30 seconds)." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let workload_names =
    let doc =
      "Verify these workloads instead of the default contrasting trio (repeatable)."
    in
    Arg.(value & opt_all string [] & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc)
  in
  let run verbose quick metrics names =
    setup_logs verbose;
    setup_metrics metrics;
    let workloads =
      match names with [] -> None | names -> Some (List.map resolve names)
    in
    let report =
      Mica_verify.Suite.run
        ~level:(if quick then Mica_verify.Suite.Quick else Mica_verify.Suite.Full)
        ?workloads ()
    in
    print_string (Mica_verify.Suite.render report);
    if not (Mica_verify.Suite.passed report) then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run the oracle suite: stream invariants, naive reference analyzers and \
          metamorphic pipeline laws.  Exits nonzero on any violation.")
    Term.(const run $ verbose $ quick $ metrics_opt $ workload_names)

(* ---------------- profile ---------------- *)

module Obs = Mica_obs.Obs

(* Spans every run of the given stage must have produced.  [--check] (the
   CI smoke contract) fails if any is missing, if a machine-model counter
   below is missing or inconsistent, if any registered metric is
   non-finite or a negative counter, or, for the GA stages, if the
   per-path evaluation counters do not add up to [ga.evaluations].  The
   figures stage must also run CE exactly once: Figures 4 and 5 share
   the context's sweep. *)
let profile_expected_spans stage =
  let characterize =
    [
      "pipeline.characterize";
      "trace.setup";
      "trace.gen";
      "analyzer.mix";
      "analyzer.ilp";
      "analyzer.regtraffic";
      "analyzer.working_set";
      "analyzer.strides";
      "analyzer.ppm";
    ]
  in
  characterize
  @
  match stage with
  | `Characterize | `Classify -> []
  | `Ga -> [ "select.ga" ]
  | `Ce -> [ "select.ce" ]
  | `Cluster -> [ "select.ga"; "stats.kmeans"; "cluster.bic" ]
  | `Figures ->
    [
      "select.ce";
      "select.ga";
      "experiments.fig4";
      "experiments.fig5";
      "experiments.fig6";
      "stats.kmeans";
      "cluster.bic";
      "experiments.cost";
    ]

let snapshot_counter (snap : Obs.snapshot) name =
  match List.assoc_opt name snap.Obs.metrics with Some (Obs.Counter c) -> c | _ -> 0.0

(* Every stage characterizes, so the paper's two machine models step every
   instruction.  The ev67 model has no DTLB, so its DTLB counters do not
   exist; its step counter must match ev56's, since both see one trace. *)
let profile_expected_counters =
  [ "uarch.ev56.instrs"; "uarch.ev56.dtlb_accesses"; "uarch.ev56.dtlb_misses"; "uarch.ev67.instrs" ]

let profile_check stage (snap : Obs.snapshot) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  List.iter
    (fun name ->
      match List.assoc_opt name snap.Obs.spans with
      | None -> err "required span %S was never recorded" name
      | Some s ->
        if s.Obs.sp_count <= 0 then err "span %S has count %d" name s.Obs.sp_count;
        if not (Float.is_finite s.Obs.sp_total_s && Float.is_finite s.Obs.sp_self_s) then
          err "span %S has non-finite time" name)
    (profile_expected_spans stage);
  List.iter
    (fun name ->
      match List.assoc_opt name snap.Obs.metrics with
      | Some (Obs.Counter _) -> ()
      | _ -> err "required counter %S was never recorded" name)
    profile_expected_counters;
  let counter = snapshot_counter snap in
  if counter "uarch.ev56.instrs" <> counter "uarch.ev67.instrs" then
    err "uarch.ev56.instrs = %g, but uarch.ev67.instrs = %g" (counter "uarch.ev56.instrs")
      (counter "uarch.ev67.instrs");
  if counter "uarch.ev56.dtlb_misses" > counter "uarch.ev56.dtlb_accesses" then
    err "uarch.ev56.dtlb_misses exceeds uarch.ev56.dtlb_accesses";
  (match stage with
  | `Ga | `Cluster | `Figures ->
    let evals = snapshot_counter snap "ga.evaluations" in
    let paths =
      snapshot_counter snap "ga.rebuild_evals" +. snapshot_counter snap "ga.delta_evals"
    in
    if evals <= 0.0 then err "the GA recorded no evaluations"
    else if paths <> evals then
      err "ga.rebuild_evals + ga.delta_evals = %g, but ga.evaluations = %g" paths evals
  | `Ce | `Characterize | `Classify -> ());
  (match stage with
  | `Ce | `Figures ->
    if snapshot_counter snap "ce.steps" <= 0.0 then err "CE recorded no elimination steps"
  | `Ga | `Cluster | `Characterize | `Classify -> ());
  (match (stage, List.assoc_opt "select.ce" snap.Obs.spans) with
  | `Figures, Some s when s.Obs.sp_count <> 1 ->
    err "select.ce ran %d times; Figures 4 and 5 must share one CE sweep" s.Obs.sp_count
  | _ -> ());
  List.iter
    (fun (name, v) ->
      match v with
      | Obs.Counter c ->
        if not (Float.is_finite c) then err "counter %S is non-finite (%g)" name c
        else if c < 0.0 then err "counter %S is negative (%g)" name c
      | Obs.Gauge g -> if not (Float.is_finite g) then err "gauge %S is non-finite (%g)" name g
      | Obs.Histogram h ->
        if not (Float.is_finite h.Obs.h_sum) then err "histogram %S has non-finite sum" name)
    snap.Obs.metrics;
  List.rev !errors

(* The per-stage table: like bench/probe.ml's, but computed from the span
   statistics of any real run instead of a dedicated micro-harness. *)
let render_profile ~wall (snap : Obs.snapshot) =
  let counter = snapshot_counter snap in
  let throughput name (s : Obs.span_stat) =
    let rate unit amount =
      if s.Obs.sp_total_s <= 0.0 then "-"
      else Printf.sprintf "%11.3e %s" (amount /. s.Obs.sp_total_s) unit
    in
    match name with
    | "trace.gen" -> rate "instr/s" (counter "trace.instrs")
    | "analyzer.mix" | "analyzer.ilp" | "analyzer.regtraffic" | "analyzer.working_set"
    | "analyzer.strides" | "analyzer.ppm" ->
      rate "instr/s" (counter "trace.instrs")
    | "pipeline.characterize" -> rate "workload/s" (float_of_int s.Obs.sp_count)
    | "select.ga" ->
      (* time per fitness evaluation, and how many took each path *)
      let evals = counter "ga.evaluations" in
      if evals <= 0.0 then "-"
      else
        Printf.sprintf "%11.1f us/eval (%.0f rebuild, %.0f delta)"
          (1e6 *. s.Obs.sp_total_s /. evals)
          (counter "ga.rebuild_evals") (counter "ga.delta_evals")
    | "stats.kmeans" -> rate "iter/s" (counter "kmeans.iterations")
    | _ -> "-"
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-24s %8s %10s %6s %10s %11s  %s\n" "span" "count" "total(ms)" "%"
       "self(ms)" "minor(Mw)" "throughput");
  let spans =
    List.sort (fun (_, a) (_, b) -> compare b.Obs.sp_total_s a.Obs.sp_total_s) snap.Obs.spans
  in
  List.iter
    (fun (name, s) ->
      Buffer.add_string b
        (Printf.sprintf "%-24s %8d %10.2f %6.1f %10.2f %11.3f  %s\n" name s.Obs.sp_count
           (1e3 *. s.Obs.sp_total_s)
           (if wall > 0.0 then 100.0 *. s.Obs.sp_total_s /. wall else 0.0)
           (1e3 *. s.Obs.sp_self_s)
           (s.Obs.sp_minor_words /. 1e6)
           (throughput name s)))
    spans;
  Buffer.contents b

let profile_cmd =
  let stage =
    let stages =
      [
        ("characterize", `Characterize);
        ("classify", `Classify);
        ("select-ga", `Ga);
        ("select-ce", `Ce);
        ("cluster", `Cluster);
        ("figures", `Figures);
      ]
    in
    let doc =
      "Pipeline stage to profile: characterize, classify, select-ga, select-ce, cluster or \
       figures (Figure 1, Table III, CE, GA, Figures 4-6 and the cost model)."
    in
    Arg.(required & pos 0 (some (enum stages)) None & info [] ~docv:"STAGE" ~doc)
  in
  let quick =
    let doc = "Small workload subset and short traces (CI-friendly)." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let check =
    let doc =
      "Validate the snapshot: fail if any required span is missing, any registered \
       counter is NaN or negative, or the stage's own counters disagree (the GA's \
       evaluation paths must add up; CE must record its elimination steps)."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let run config quick check stage =
    Obs.set_enabled true;
    (* Profile real work, not cache reads: caching is disabled so every
       stage below the one being profiled actually executes. *)
    let config =
      {
        config with
        Mica_core.Pipeline.cache_dir = None;
        progress = false;
        icount = (if quick then min config.Mica_core.Pipeline.icount 5_000 else config.Mica_core.Pipeline.icount);
      }
    in
    let workloads =
      if quick then
        List.filteri (fun i _ -> i < 12) Mica_workloads.Registry.all
      else Mica_workloads.Registry.all
    in
    let ga_config =
      if quick then { Select.Genetic.default_config with Select.Genetic.max_generations = 12 }
      else Select.Genetic.default_config
    in
    let k_max = if quick then 6 else 70 in
    let t0 = Unix.gettimeofday () in
    (match stage with
    | `Characterize ->
      let _, _, report = Mica_core.Pipeline.datasets_report ~config workloads in
      surface_report report;
      let timings = Mica_core.Run_report.timings report in
      let timings =
        List.sort
          (fun (_, a) (_, b) ->
            compare b.Mica_core.Run_report.elapsed_s a.Mica_core.Run_report.elapsed_s)
          timings
      in
      Printf.printf "slowest workloads:\n";
      List.iteri
        (fun i (id, tm) ->
          if i < 5 then
            Printf.printf "  %-45s %8.2f ms %10.3f Mw\n" id
              (1e3 *. tm.Mica_core.Run_report.elapsed_s)
              (tm.Mica_core.Run_report.minor_words /. 1e6))
        timings;
      print_newline ()
    | `Classify ->
      let ctx = E.Context.load ~config ~workloads () in
      ignore (E.table3 ctx)
    | `Ga ->
      let ctx = E.Context.load ~config ~workloads () in
      ignore (E.run_ga ~config:ga_config ctx)
    | `Ce ->
      let ctx = E.Context.load ~config ~workloads () in
      ignore (E.run_ce ctx)
    | `Cluster ->
      let ctx = E.Context.load ~config ~workloads () in
      let ga = E.run_ga ~config:ga_config ctx in
      ignore (E.fig6 ~k_max ctx ~selected:ga.Select.Genetic.selected)
    | `Figures ->
      let ctx = E.Context.load ~config ~workloads () in
      ignore (E.fig1 ctx : E.fig1);
      ignore (E.table3 ctx : Mica_core.Classify.counts);
      let ce = E.run_ce ctx in
      let ga = E.run_ga ~config:ga_config ctx in
      ignore (E.fig4 ctx ~ga ~ce : E.roc_entry list);
      ignore (E.fig5 ctx ~ga : E.fig5);
      let selected = ga.Select.Genetic.selected in
      ignore (E.fig6 ~k_max ctx ~selected : E.fig6);
      ignore (E.cost_model ctx ~selected : E.cost));
    let wall = Unix.gettimeofday () -. t0 in
    let snap = Obs.snapshot () in
    Printf.printf "stage profile (wall %.3f s, %d workloads, %d instructions each):\n%s" wall
      (List.length workloads) config.Mica_core.Pipeline.icount
      (render_profile ~wall snap);
    if check then begin
      match profile_check stage snap with
      | [] -> Printf.printf "check: ok\n"
      | errors ->
        List.iter (fun e -> Printf.eprintf "check failed: %s\n" e) errors;
        exit 1
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one pipeline stage with metrics enabled and print a per-stage table of \
          wall time, share of the run, GC minor words and throughput.  With \
          $(b,--metrics) the full snapshot is also written as JSON; $(b,--check) \
          turns the run into a CI smoke test.")
    Term.(const run $ config_term $ quick $ check $ stage)

(* ---------------- export ---------------- *)

let export_cmd =
  let out_dir =
    let doc = "Directory for the exported CSV datasets." in
    Arg.(value & opt string "results" & info [ "o"; "out" ] ~docv:"DIR" ~doc)
  in
  let run config out_dir =
    let ctx = E.Context.load ~config () in
    let rec mkdir_p dir =
      if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
        mkdir_p (Filename.dirname dir);
        try Sys.mkdir dir 0o755 with Sys_error _ -> ()
      end
    in
    mkdir_p out_dir;
    let mica_path = Filename.concat out_dir "mica_dataset.csv" in
    let hpc_path = Filename.concat out_dir "hpc_dataset.csv" in
    Mica_core.Dataset.to_csv ctx.E.Context.mica mica_path;
    Mica_core.Dataset.to_csv ctx.E.Context.hpc hpc_path;
    Printf.printf "wrote %s (%dx%d) and %s (%dx%d)\n" mica_path
      (Mica_core.Dataset.rows ctx.E.Context.mica)
      (Mica_core.Dataset.cols ctx.E.Context.mica)
      hpc_path
      (Mica_core.Dataset.rows ctx.E.Context.hpc)
      (Mica_core.Dataset.cols ctx.E.Context.hpc)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export the MICA and counter datasets as CSV.")
    Term.(const run $ config_term $ out_dir)

(* ---------------- serve / loadgen ---------------- *)

let socket_opt =
  let doc = "Unix-domain socket path for the serve protocol." in
  Arg.(value & opt string "/tmp/mica-serve.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let port_opt =
  let doc = "Serve over TCP on 127.0.0.1:$(docv) instead of the Unix socket." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let address_of socket port =
  match port with
  | Some p -> Mica_serve.Server.Tcp { host = "127.0.0.1"; port = p }
  | None -> Mica_serve.Server.Unix_path socket

let serve_cmd =
  let queue_capacity =
    let doc = "Admission queue bound; a full queue sheds with immediate 'overloaded' replies." in
    Arg.(value & opt int 64 & info [ "queue-capacity" ] ~docv:"N" ~doc)
  in
  let deadline_ms =
    let doc = "Default per-request deadline when the client sends none (0 = unlimited)." in
    Arg.(value & opt float 0.0 & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let no_degrade =
    let doc = "Disable sketch-based graceful degradation of near-deadline characterize requests." in
    Arg.(value & flag & info [ "no-degrade" ] ~doc)
  in
  let sketch_budget =
    let doc = "Sketch byte budget for degraded answers." in
    Arg.(
      value & opt int Mica_sketch.Sketch.default_bytes & info [ "sketch-budget" ] ~docv:"BYTES" ~doc)
  in
  let degrade_margin =
    let doc =
      "Degrade when the remaining deadline budget is below $(docv) x the EWMA exact cost."
    in
    Arg.(value & opt float 2.0 & info [ "degrade-margin" ] ~docv:"X" ~doc)
  in
  let breaker_threshold =
    let doc = "Consecutive failures that trip a workload's circuit breaker." in
    Arg.(
      value
      & opt int Mica_serve.Breaker.default_config.Mica_serve.Breaker.threshold
      & info [ "breaker-threshold" ] ~docv:"N" ~doc)
  in
  let breaker_cooldown =
    let doc = "Refused admissions before an open breaker half-opens for a probe." in
    Arg.(
      value
      & opt int Mica_serve.Breaker.default_config.Mica_serve.Breaker.cooldown
      & info [ "breaker-cooldown" ] ~docv:"N" ~doc)
  in
  let warm =
    let doc =
      "Workload to warm-start (repeatable); the warm set backs distance/classify/knn queries."
    in
    Arg.(value & opt_all string [] & info [ "warm" ] ~docv:"WORKLOAD" ~doc)
  in
  let no_warm =
    let doc = "Skip warm-start characterization (cache rows are still absorbed)." in
    Arg.(value & flag & info [ "no-warm" ] ~doc)
  in
  let run (config : Mica_core.Pipeline.config) socket port queue_capacity deadline_ms no_degrade
      sketch_budget degrade_margin breaker_threshold breaker_cooldown warm no_warm =
    let scfg =
      {
        Mica_serve.Server.default_config with
        Mica_serve.Server.icount = config.Mica_core.Pipeline.icount;
        ppm_order = config.Mica_core.Pipeline.ppm_order;
        cache_dir = config.Mica_core.Pipeline.cache_dir;
        jobs = config.Mica_core.Pipeline.jobs;
        retries = config.Mica_core.Pipeline.retries;
        queue_capacity;
        default_deadline_ms = deadline_ms;
        degrade = not no_degrade;
        sketch_bytes = sketch_budget;
        degrade_margin;
        breaker = { Mica_serve.Breaker.threshold = breaker_threshold; cooldown = breaker_cooldown };
      }
    in
    let t = Mica_serve.Server.create scfg in
    let warm_workloads =
      if no_warm then []
      else if warm = [] then
        List.filter_map Mica_workloads.Registry.find
          [ "MiBench/sha/large"; "SPEC2000/mcf/ref"; "SPEC2000/swim/ref" ]
      else List.map resolve warm
    in
    let resident = Mica_serve.Server.warm_start t ~workloads:warm_workloads in
    let address = address_of socket port in
    Logs.app (fun f ->
        f "serving on %s (%d warm vectors, queue %d, jobs %d); SIGTERM drains"
          (match address with
          | Mica_serve.Server.Unix_path p -> p
          | Mica_serve.Server.Tcp { host; port } -> Printf.sprintf "%s:%d" host port)
          resident queue_capacity scfg.Mica_serve.Server.jobs);
    Mica_serve.Server.listen_and_serve t address
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the characterization daemon: newline-delimited JSON requests (characterize, \
          distance, classify, knn, health, metrics) over a Unix or TCP socket, with bounded \
          admission, per-request deadlines, sketch-based graceful degradation, per-workload \
          circuit breaking and graceful drain on SIGTERM.")
    Term.(
      const run $ config_term $ socket_opt $ port_opt $ queue_capacity $ deadline_ms $ no_degrade
      $ sketch_budget $ degrade_margin $ breaker_threshold $ breaker_cooldown $ warm $ no_warm)

let loadgen_cmd =
  let rate =
    let doc = "Target open-loop arrival rate (requests/second)." in
    Arg.(value & opt float 20.0 & info [ "rate" ] ~docv:"R" ~doc)
  in
  let duration =
    let doc = "Seconds of scheduled arrivals." in
    Arg.(value & opt float 3.0 & info [ "duration" ] ~docv:"S" ~doc)
  in
  let deadline_ms =
    let doc = "Per-request deadline sent with every request (0 = none)." in
    Arg.(value & opt float 500.0 & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let no_estimate =
    let doc = "Do not permit sketch-degraded answers." in
    Arg.(value & flag & info [ "no-estimate" ] ~doc)
  in
  let seed =
    let doc = "Seed for the arrival schedule and retry jitter." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let retries =
    let doc = "Re-sends after an 'overloaded' reply before counting the request as shed." in
    Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff_ms =
    let doc = "Base retry backoff (doubled per retry, seeded jitter)." in
    Arg.(value & opt float 25.0 & info [ "backoff-ms" ] ~docv:"MS" ~doc)
  in
  let workloads_opt =
    let doc = "Workloads to request, cycled in order (repeatable; default: the verify trio)." in
    Arg.(value & opt_all string [] & info [ "workload"; "w" ] ~docv:"WORKLOAD" ~doc)
  in
  let json_out =
    let doc = "Also write the loadgen report as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run verbose metrics socket port rate duration deadline_ms no_estimate seed retries
      backoff_ms workloads no_run runs_root run_tag json_out =
    setup_logs verbose;
    setup_metrics metrics;
    let workloads =
      if workloads = [] then Mica_serve.Loadgen.default_config.Mica_serve.Loadgen.workloads
      else List.map (fun w -> Mica_workloads.Workload.id (resolve w)) workloads
    in
    let cfg =
      {
        Mica_serve.Loadgen.address = address_of socket port;
        rate;
        duration;
        deadline_ms;
        estimate = not no_estimate;
        seed;
        workloads;
        retries;
        backoff_ms;
      }
    in
    let report =
      try Mica_serve.Loadgen.run cfg
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "error: cannot reach the daemon at %s: %s\n"
          (match cfg.Mica_serve.Loadgen.address with
          | Mica_serve.Server.Unix_path p -> p
          | Mica_serve.Server.Tcp { host; port } -> Printf.sprintf "%s:%d" host port)
          (Unix.error_message e);
        exit 2
    in
    print_string (Mica_serve.Loadgen.render report);
    Option.iter
      (fun p ->
        Mica_run.Run_io.atomic_write p
          (Mica_obs.Json.to_string ~pretty:true (Mica_serve.Loadgen.to_json report) ^ "\n"))
      json_out;
    (* Commit the latency/throughput/shed-rate report as a bench-entry run
       directory so [mica compare --tolerance-bench] can gate it. *)
    if not no_run then begin
      let module R = Mica_run.Run_dir in
      let manifest =
        {
          Mica_run.Manifest.schema = Mica_run.Manifest.schema_version;
          created = R.timestamp ();
          tag = Option.value run_tag ~default:"loadgen";
          subcommand = "loadgen";
          argv = Array.to_list Sys.argv;
          git_rev = Mica_run.Run_io.git_rev ();
          icount = 0;
          ppm_order = 0;
          jobs = 1;
          retries;
          cache = false;
          mica_jobs_env = Sys.getenv_opt "MICA_JOBS";
          fault_spec = Option.map Mica_util.Fault.to_string (Mica_util.Fault.installed ());
          seeds = [ ("loadgen", string_of_int seed) ];
          workloads = List.length workloads;
          report =
            Printf.sprintf "%d sent, %d ok, %d estimated, %d cached, %d shed, %d protocol errors"
              report.Mica_serve.Loadgen.sent report.Mica_serve.Loadgen.ok
              report.Mica_serve.Loadgen.estimated report.Mica_serve.Loadgen.cached
              report.Mica_serve.Loadgen.shed report.Mica_serve.Loadgen.protocol_errors;
          files = [];
        }
      in
      let artifacts =
        [
          {
            R.filename = R.bench_file;
            contents = Mica_obs.Json.to_string ~pretty:true (Mica_serve.Loadgen.bench_json report) ^ "\n";
          };
          {
            R.filename = "loadgen.json";
            contents = Mica_obs.Json.to_string ~pretty:true (Mica_serve.Loadgen.to_json report) ^ "\n";
          };
          {
            R.filename = R.metrics_file;
            contents = Mica_obs.Obs.to_json (Mica_obs.Obs.snapshot ());
          };
        ]
      in
      match R.commit ~root:runs_root ~manifest ~artifacts () with
      | dir -> Printf.printf "committed run %s\n" dir
      | exception Sys_error _ ->
        Logs.warn (fun f -> f "run directory commit failed; results are unaffected")
    end;
    if report.Mica_serve.Loadgen.protocol_errors > 0 then begin
      Printf.eprintf "error: %d protocol error(s): some requests got no (or an invalid) reply\n"
        report.Mica_serve.Loadgen.protocol_errors;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running daemon with seeded open-loop arrivals (retrying 'overloaded' with \
          jittered backoff) and report latency percentiles, throughput and shed rate; exits \
          nonzero if any request loses its reply.")
    Term.(
      const run $ verbose $ metrics_opt $ socket_opt $ port_opt $ rate $ duration $ deadline_ms
      $ no_estimate $ seed $ retries $ backoff_ms $ workloads_opt $ no_run $ runs_root $ run_tag
      $ json_out)

let main =
  let doc = "microarchitecture-independent workload characterization (MICA)" in
  Cmd.group
    (Cmd.info "mica" ~version:"1.0.0" ~doc)
    [
      list_cmd;
      characterize_cmd;
      stream_cmd;
      counters_cmd;
      compare_cmd;
      distance_cmd;
      variance_cmd;
      classify_cmd;
      select_ga_cmd;
      select_ce_cmd;
      cluster_cmd;
      kiviat_cmd;
      place_cmd;
      dendrogram_cmd;
      phases_cmd;
      pca_cmd;
      subset_cmd;
      corpus_cmd;
      knn_cmd;
      predict_cmd;
      dump_trace_cmd;
      characterize_trace_cmd;
      machines_cmd;
      fleet_cmd;
      calibrate_cmd;
      locality_cmd;
      simpoint_cmd;
      verify_cmd;
      profile_cmd;
      export_cmd;
      serve_cmd;
      loadgen_cmd;
    ]

let () = exit (Cmd.eval main)
