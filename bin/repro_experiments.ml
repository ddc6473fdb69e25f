(* Regenerates every table and figure of the paper's evaluation.

   Usage: repro_experiments [EXPERIMENT ...] [--icount N] [--out DIR]

   With no experiment arguments, all of them run in paper order.  Text
   renderings go to stdout; CSV/SVG artifacts go to the output directory
   (default: results/). *)

module E = Mica_core.Experiments
module Select = Mica_select
module Stats = Mica_stats

let usage =
  "usage: repro_experiments [EXPERIMENT ...] [--icount N] [--out DIR] [--quick]\n\
   paper experiments: table1 table2 fig1 table3 fig2 fig3 fig4 fig5 table4 fig6 cost\n\
   extensions: pca coverage inputs machines locality simpoint subset predict uncertainty extended"

type options = { experiments : string list; icount : int; out_dir : string; quick : bool }

let parse_args () =
  let experiments = ref [] in
  let icount = ref 200_000 in
  let out_dir = ref "results" in
  let quick = ref false in
  let rec go = function
    | [] -> ()
    | "--icount" :: v :: rest ->
      icount := int_of_string v;
      go rest
    | "--out" :: v :: rest ->
      out_dir := v;
      go rest
    | "--quick" :: rest ->
      quick := true;
      go rest
    | ("--help" | "-h") :: _ ->
      print_endline usage;
      exit 0
    | arg :: rest ->
      experiments := arg :: !experiments;
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  { experiments = List.rev !experiments; icount = !icount; out_dir = !out_dir; quick = !quick }

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let csv_of_rows rows = String.concat "\n" (List.map (String.concat ",") rows) ^ "\n"

let section title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 72 '=') title (String.make 72 '=')

let () =
  let opts = parse_args () in
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Info);
  let all_experiments =
    [
      "table1"; "table2"; "fig1"; "table3"; "fig2"; "fig3"; "fig4"; "fig5"; "table4"; "fig6";
      "cost"; "pca"; "coverage"; "inputs"; "machines"; "locality"; "simpoint"; "subset";
      "predict"; "uncertainty"; "extended";
    ]
  in
  let selected = if opts.experiments = [] then all_experiments else opts.experiments in
  let needs_context =
    List.exists (fun e -> e <> "table1" && e <> "table2") selected
  in
  let config =
    { Mica_core.Pipeline.default_config with icount = opts.icount; progress = true }
  in
  let ctx = if needs_context then Some (E.Context.load ~config ()) else None in
  let ctx () = Option.get ctx in
  (* the GA run is shared by fig4/fig5/table4/fig6/cost; the context
     shares its CE sweep between fig4 and fig5 *)
  let ga = lazy (E.run_ga (ctx ())) in
  let ga_config_quick =
    { Select.Genetic.default_config with population = 24; max_generations = 60 }
  in
  let ga = if opts.quick then lazy (E.run_ga ~config:ga_config_quick (ctx ())) else ga in
  let out name = Filename.concat opts.out_dir name in
  let run = function
    | "table1" ->
      section "Table I: benchmarks, inputs, dynamic instruction counts";
      print_string (E.render_table1 ())
    | "table2" ->
      section "Table II: the 47 microarchitecture-independent characteristics";
      print_string (E.render_table2 ())
    | "fig1" ->
      section "Figure 1: HPC-space distance vs MICA-space distance";
      let f = E.fig1 (ctx ()) in
      print_string (E.render_fig1 f);
      write_file (out "fig1_distances.csv")
        (csv_of_rows
           ([ "mica_distance"; "hpc_distance" ]
           :: Array.to_list
                (Array.map
                   (fun (m, h) -> [ Printf.sprintf "%.6f" m; Printf.sprintf "%.6f" h ])
                   f.E.points)));
      Mica_core.Svg_plot.write ~path:(out "fig1_scatter.svg")
        (Mica_core.Svg_plot.scatter
           ~title:
             (Printf.sprintf "Figure 1: pairwise distances (r = %.3f; paper: 0.46)"
                f.E.correlation)
           ~x_label:"distance in the microarchitecture-independent space"
           ~y_label:"distance in the HPC space"
           [
             {
               Mica_core.Svg_plot.label = "benchmark pair";
               points = f.E.points;
               color = Mica_core.Svg_plot.default_colors.(0);
             };
           ])
    | "table3" ->
      section "Table III: benchmark-tuple classification (20% thresholds)";
      let counts = E.table3 (ctx ()) in
      print_string (E.render_table3 counts)
    | "fig2" ->
      section "Figure 2: bzip2 vs blast, hardware performance counters (+mix)";
      print_string (Mica_core.Case_study.render (E.fig2 (ctx ())))
    | "fig3" ->
      section "Figure 3: bzip2 vs blast, microarchitecture-independent characteristics";
      print_string (Mica_core.Case_study.render (E.fig3 (ctx ())))
    | "fig4" ->
      section "Figure 4: ROC curves";
      let entries = E.fig4 (ctx ()) ~ga:(Lazy.force ga) ~ce:(E.run_ce (ctx ())) in
      print_string (E.render_fig4 entries);
      List.iter
        (fun (e : E.roc_entry) ->
          let slug =
            String.map (fun c -> if c = ' ' || c = '(' || c = ')' || c = '.' then '_' else c) e.E.label
          in
          write_file
            (out (Printf.sprintf "fig4_roc_%s.csv" slug))
            (csv_of_rows
               ([ "threshold"; "fpr"; "tpr" ]
               :: Array.to_list
                    (Array.map
                       (fun (p : Stats.Roc.point) ->
                         [
                           Printf.sprintf "%.6f" p.Stats.Roc.threshold;
                           Printf.sprintf "%.6f" p.Stats.Roc.fpr;
                           Printf.sprintf "%.6f" p.Stats.Roc.tpr;
                         ])
                       e.E.curve.Stats.Roc.points))))
        entries;
      Mica_core.Svg_plot.write ~path:(out "fig4_roc.svg")
        (Mica_core.Svg_plot.lines ~title:"Figure 4: ROC curves" ~x_label:"false positive rate"
           ~y_label:"true positive rate"
           (List.mapi
              (fun i (e : E.roc_entry) ->
                {
                  Mica_core.Svg_plot.label =
                    Printf.sprintf "%s (AUC %.2f)" e.E.label e.E.curve.Stats.Roc.auc;
                  points =
                    Array.map
                      (fun (p : Stats.Roc.point) -> (p.Stats.Roc.fpr, p.Stats.Roc.tpr))
                      e.E.curve.Stats.Roc.points;
                  color =
                    Mica_core.Svg_plot.default_colors.(i mod
                      Array.length Mica_core.Svg_plot.default_colors);
                })
              entries))
    | "fig5" ->
      section "Figure 5: distance correlation vs retained characteristics";
      let f = E.fig5 (ctx ()) ~ga:(Lazy.force ga) in
      print_string (E.render_fig5 f);
      write_file (out "fig5_ce_sweep.csv")
        (csv_of_rows
           ([ "retained"; "rho" ]
           :: Array.to_list
                (Array.map
                   (fun (k, rho) -> [ string_of_int k; Printf.sprintf "%.6f" rho ])
                   f.E.ce_points)));
      let ce_series =
        Array.map (fun (k, rho) -> (float_of_int k, rho)) f.E.ce_points
      in
      let gk, grho = f.E.ga_point in
      Mica_core.Svg_plot.write ~path:(out "fig5_correlation.svg")
        (Mica_core.Svg_plot.lines
           ~title:"Figure 5: distance correlation vs retained characteristics"
           ~x_label:"characteristics retained" ~y_label:"correlation with the full space"
           [
             {
               Mica_core.Svg_plot.label = "correlation elimination";
               points = ce_series;
               color = Mica_core.Svg_plot.default_colors.(0);
             };
             {
               Mica_core.Svg_plot.label = Printf.sprintf "genetic algorithm (%d)" gk;
               points = [| (float_of_int gk, grho); (float_of_int gk, grho) |];
               color = Mica_core.Svg_plot.default_colors.(1);
             };
           ])
    | "table4" ->
      section "Table IV: key characteristics selected by the genetic algorithm";
      print_string (E.render_table4 (Lazy.force ga))
    | "fig6" ->
      section "Figure 6: clustering on the key characteristics + kiviat diagrams";
      let f = E.fig6 (ctx ()) ~selected:(Lazy.force ga).Select.Genetic.selected in
      print_string (E.render_fig6 f);
      Mica_core.Kiviat.write_svg ~path:(out "fig6_kiviat.svg")
        ~title:"Kiviat diagrams per cluster (key microarchitecture-independent characteristics)"
        ~axes:f.E.axes f.E.plots;
      Printf.printf "\n(SVG written to %s)\n" (out "fig6_kiviat.svg")
    | "cost" ->
      section "Characterization cost: all 47 vs the selected key characteristics";
      let c = E.cost_model (ctx ()) ~selected:(Lazy.force ga).Select.Genetic.selected in
      print_string (E.render_cost c)
    | "pca" ->
      section "Extension: PCA prior-work baseline vs the genetic algorithm";
      let r = Mica_core.Pca_comparison.run (ctx ()) ~ga:(Lazy.force ga) in
      print_string (Mica_core.Pca_comparison.render r);
      write_file (out "pca_comparison.csv")
        (csv_of_rows
           ([ "method"; "dims"; "rho"; "auc"; "chars_measured" ]
           :: List.concat
                [
                  Array.to_list
                    (Array.map
                       (fun (p : Mica_core.Pca_comparison.point) ->
                         [
                           "pca";
                           string_of_int p.Mica_core.Pca_comparison.dims;
                           Printf.sprintf "%.6f" p.Mica_core.Pca_comparison.rho;
                           Printf.sprintf "%.6f" p.Mica_core.Pca_comparison.auc;
                           string_of_int p.Mica_core.Pca_comparison.measured_characteristics;
                         ])
                       r.Mica_core.Pca_comparison.pca_points);
                  [
                    [
                      "ga";
                      string_of_int r.Mica_core.Pca_comparison.ga_measured;
                      Printf.sprintf "%.6f" r.Mica_core.Pca_comparison.ga_rho;
                      Printf.sprintf "%.6f" r.Mica_core.Pca_comparison.ga_auc;
                      string_of_int r.Mica_core.Pca_comparison.ga_measured;
                    ];
                  ];
                ]))
    | "coverage" ->
      section "Extension: suite coverage by SPEC CPU2000 (section VI conclusions)";
      let rows =
        Mica_core.Coverage.suite_coverage (ctx ())
          ~selected:(Lazy.force ga).Select.Genetic.selected
      in
      print_string (Mica_core.Coverage.render_coverage rows);
      write_file (out "suite_coverage.csv")
        (csv_of_rows
           ([ "suite"; "total"; "covered"; "dissimilar" ]
           :: List.map
                (fun (r : Mica_core.Coverage.coverage_row) ->
                  [
                    Mica_workloads.Suite.name r.Mica_core.Coverage.suite;
                    string_of_int r.Mica_core.Coverage.total;
                    string_of_int r.Mica_core.Coverage.covered;
                    string_of_int (Array.length r.Mica_core.Coverage.dissimilar);
                  ])
                rows))
    | "machines" ->
      section "Extension: does counter-based similarity transfer across machines?";
      let r = Mica_core.Machines.run (ctx ()) in
      print_string (Mica_core.Machines.render r);
      write_file (out "machines_cross_correlation.csv")
        (csv_of_rows
           ([ "machine_a"; "machine_b"; "distance_correlation" ]
           :: List.map
                (fun (a, b, c) -> [ a; b; Printf.sprintf "%.6f" c ])
                r.Mica_core.Machines.cross_correlation))
    | "extended" ->
      section "Extension: feature selection over the extended 56-characteristic set";
      print_string (E.render_extended (E.extended_selection (ctx ())))
    | "uncertainty" ->
      section "Extension: bootstrap confidence intervals (benchmark resampling)";
      let c = ctx () in
      let na = c.E.Context.mica_space.Mica_core.Space.normalized in
      let nb = c.E.Context.hpc_space.Mica_core.Space.normalized in
      let n = Array.length na in
      let rng = Mica_util.Rng.create ~seed:0xB007L in
      let stat_of f = Stats.Bootstrap.pair_distance_statistic ~normalized_a:na ~normalized_b:nb f in
      let report label f =
        let iv = Stats.Bootstrap.interval ~replicates:400 ~rng ~n (stat_of f) in
        Printf.printf "  %-28s %7.3f  [%6.3f, %6.3f]  (95%% CI, %d replicates)\n" label
          iv.Stats.Bootstrap.estimate iv.Stats.Bootstrap.lo iv.Stats.Bootstrap.hi
          iv.Stats.Bootstrap.replicates
      in
      report "fig1 distance correlation" (fun da db -> Stats.Correlation.pearson da db);
      let quadrant pick da db =
        let counts =
          Mica_core.Classify.classify ~hpc_distances:db ~mica_distances:da ()
        in
        pick (Mica_core.Classify.fractions counts)
      in
      report "table3 false positives"
        (quadrant (fun f -> f.Mica_core.Classify.f_false_pos));
      report "table3 false negatives"
        (quadrant (fun f -> f.Mica_core.Classify.f_false_neg));
      report "table3 true positives" (quadrant (fun f -> f.Mica_core.Classify.f_true_pos))
    | "subset" ->
      section "Extension: reduced benchmark suites (k-center subsetting)";
      let reduced =
        Mica_core.Dataset.select_features (ctx ()).E.Context.mica
          (Lazy.force ga).Select.Genetic.selected
      in
      let space = Mica_core.Space.of_dataset reduced in
      let t = Mica_core.Subsetting.k_center space ~k:15 in
      print_string (Mica_core.Subsetting.render space t);
      print_endline "\ncovering radius vs subset size:";
      List.iter
        (fun (k, r) -> Printf.printf "  k=%2d  radius %.3f\n" k r)
        (Mica_core.Subsetting.sweep space ~ks:[ 5; 10; 15; 20; 30; 50 ])
    | "predict" ->
      section "Extension: performance prediction from inherent similarity (PACT'06)";
      print_string (Mica_core.Prediction.render (Mica_core.Prediction.evaluate_counters (ctx ())))
    | "simpoint" ->
      section "Extension: SimPoint sampled-simulation validation (related work)";
      let sample =
        [
          "SPEC2000/gcc/166"; "SPEC2000/bzip2/graphic"; "SPEC2000/swim/ref"; "SPEC2000/mcf/ref";
          "MiBench/adpcm/rawcaudio"; "BioInfoMark/blast/protein"; "MediaBench/mpeg2/decode";
          "CommBench/rtr/rtr";
        ]
      in
      let results =
        Mica_core.Simpoint.validate_many
          (List.map Mica_workloads.Registry.find_exn sample)
          ~icount:opts.icount
      in
      print_string (Mica_core.Simpoint.render results)
    | "locality" ->
      section "Extension: temporal data locality per suite (reuse distances)";
      let r = Mica_core.Locality.run (ctx ()) in
      print_string (Mica_core.Locality.render r);
      (* LRU miss-rate curves for three contrasting workloads *)
      print_endline "\nLRU miss rate vs capacity (32B blocks), from one reuse-distance pass:";
      List.iter
        (fun name ->
          let w = Mica_workloads.Registry.find_exn name in
          let curve = Mica_core.Locality.miss_curve w ~icount:opts.icount in
          Printf.printf "  %-30s" name;
          Array.iter (fun (c, m) -> Printf.printf " %6d:%4.2f" c m) curve;
          print_newline ())
        [ "MiBench/adpcm/rawcaudio"; "SPEC2000/gcc/166"; "BioInfoMark/blast/protein" ]
    | "inputs" ->
      section "Extension: input sensitivity (isolated behaviour for particular inputs)";
      let rows =
        Mica_core.Coverage.input_sensitivity (ctx ())
          ~selected:(Lazy.force ga).Select.Genetic.selected
      in
      print_string (Mica_core.Coverage.render_sensitivity rows)
    | other ->
      Printf.eprintf "unknown experiment %S\n%s\n" other usage;
      exit 2
  in
  List.iter run selected
