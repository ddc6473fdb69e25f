module Stats = Mica_stats
module Select = Mica_select
module Workloads = Mica_workloads
module Analysis = Mica_analysis
module Obs = Mica_obs.Obs

module Context = struct
  type t = {
    config : Pipeline.config;
    workloads : Workloads.Workload.t list;
    mica : Dataset.t;
    hpc : Dataset.t;
    mica_space : Space.t;
    hpc_space : Space.t;
    fitness : Select.Fitness.t;
    report : Run_report.t;
    ce : Select.Correlation_elimination.step list Lazy.t;
  }

  let of_datasets ?(config = Pipeline.default_config) ?(report = Run_report.create []) ~workloads
      mica hpc =
    let mica_space = Space.of_dataset mica in
    let hpc_space = Space.of_dataset hpc in
    let fitness = Select.Fitness.create mica_space.Space.normalized in
    (* Figures 4 and 5 both read the CE sweep; it runs once, when first
       asked for *)
    let ce =
      lazy
        (Select.Correlation_elimination.run
           ~pool:(Mica_util.Pool.default ())
           ~data:mica.Dataset.data fitness)
    in
    { config; workloads; mica; hpc; mica_space; hpc_space; fitness; report; ce }

  (* Graceful degradation: permanently failed workloads are dropped from
     [workloads] (keeping it aligned with the dataset rows) and carried in
     [report] for the caller to surface; every experiment then runs over
     the survivors. *)
  let load ?(config = Pipeline.default_config) ?(workloads = Workloads.Registry.all) () =
    let mica, hpc, report = Pipeline.datasets_report ~config workloads in
    (match Run_report.failures report with
    | [] -> ()
    | failed ->
      Logs.warn (fun f ->
          f "%d workload(s) failed characterization; continuing with %d survivors"
            (List.length failed) (Dataset.rows mica)));
    let workloads =
      List.filter
        (fun w -> Dataset.row_index mica (Workloads.Workload.id w) <> None)
        workloads
    in
    of_datasets ~config ~report ~workloads mica hpc
end

(* ---------------- Table I ---------------- *)

let render_table1 () =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf "%-20s %-12s %-22s %12s\n" "suite" "program" "input" "I-cnt (M)");
  Buffer.add_string buf (String.make 70 '-' ^ "\n");
  List.iter
    (fun suite ->
      List.iter
        (fun (w : Workloads.Workload.t) ->
          Buffer.add_string buf
            (Printf.sprintf "%-20s %-12s %-22s %12d\n" (Workloads.Suite.name suite)
               w.Workloads.Workload.program w.Workloads.Workload.input
               w.Workloads.Workload.icount_millions))
        (Workloads.Registry.by_suite suite);
      Buffer.add_string buf "\n")
    Workloads.Suite.all;
  Buffer.add_string buf
    (Printf.sprintf "total: %d benchmarks in %d suites\n" Workloads.Registry.count
       (List.length Workloads.Suite.all));
  Buffer.contents buf

(* ---------------- Table II ---------------- *)

let render_table2 () =
  let buf = Buffer.create 4096 in
  for i = 0 to Analysis.Characteristics.count - 1 do
    Buffer.add_string buf (Format.asprintf "%a\n" Analysis.Characteristics.pp_row i)
  done;
  Buffer.contents buf

(* ---------------- Figure 1 ---------------- *)

type fig1 = { points : (float * float) array; correlation : float }

let fig1 (ctx : Context.t) =
  let mica_d = ctx.mica_space.Space.distances in
  let hpc_d = ctx.hpc_space.Space.distances in
  {
    points = Array.init (Array.length mica_d) (fun i -> (mica_d.(i), hpc_d.(i)));
    correlation = Classify.correlation ~hpc_distances:hpc_d ~mica_distances:mica_d;
  }

let render_fig1 f =
  (* text density scatter: x = mica distance, y = hpc distance *)
  let w = 60 and h = 20 in
  let xs = Array.map fst f.points and ys = Array.map snd f.points in
  let _, xmax = Stats.Descriptive.min_max xs in
  let _, ymax = Stats.Descriptive.min_max ys in
  let grid = Array.make_matrix h w 0 in
  Array.iter
    (fun (x, y) ->
      let cx = min (w - 1) (int_of_float (x /. xmax *. float_of_int (w - 1))) in
      let cy = min (h - 1) (int_of_float (y /. ymax *. float_of_int (h - 1))) in
      grid.(h - 1 - cy).(cx) <- grid.(h - 1 - cy).(cx) + 1)
    f.points;
  let shades = [| ' '; '.'; ':'; '+'; '*'; '#'; '@' |] in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "distance in HPC space (y, max %.2f) vs distance in MICA space (x, max %.2f)\n" ymax
       xmax);
  Array.iter
    (fun row ->
      Buffer.add_char buf '|';
      Array.iter
        (fun c ->
          let level = if c = 0 then 0 else min 6 (1 + int_of_float (log (float_of_int c))) in
          Buffer.add_char buf shades.(level))
        row;
      Buffer.add_string buf "\n")
    grid;
  Buffer.add_char buf '+';
  Buffer.add_string buf (String.make w '-');
  Buffer.add_string buf
    (Printf.sprintf "\ncorrelation coefficient: %.3f   (paper: 0.46)\n" f.correlation);
  Buffer.contents buf

(* ---------------- Table III ---------------- *)

let table3 ?(frac = 0.2) (ctx : Context.t) =
  Classify.classify ~hpc_distances:ctx.hpc_space.Space.distances
    ~mica_distances:ctx.mica_space.Space.distances ~frac ()

let render_table3 counts =
  let f = Classify.fractions counts in
  let pct x = 100.0 *. x in
  String.concat "\n"
    [
      "                                  small dist (uarch-indep)  large dist (uarch-indep)";
      Printf.sprintf
        "large dist (hw perf counters)    false negative: %5.1f%%     true positive: %5.1f%%"
        (pct f.Classify.f_false_neg) (pct f.Classify.f_true_pos);
      Printf.sprintf
        "small dist (hw perf counters)    true negative:  %5.1f%%     false positive: %5.1f%%"
        (pct f.Classify.f_true_neg) (pct f.Classify.f_false_pos);
      Printf.sprintf "(paper: FN 0.2%%, TP 56.9%%, TN 1.8%%, FP 41.1%%; %d tuples)"
        counts.Classify.total;
      "";
    ]

(* ---------------- Figures 2 and 3 ---------------- *)

let default_a = "SPEC2000/bzip2/graphic"
let default_b = "BioInfoMark/blast/protein"

let fig2 ?(a = default_a) ?(b = default_b) (ctx : Context.t) =
  let ds = Case_study.hpc_with_mix ~hpc:ctx.hpc ~mica:ctx.mica in
  Case_study.compare_in ds ~a ~b

let fig3 ?(a = default_a) ?(b = default_b) (ctx : Context.t) =
  Case_study.compare_in ctx.mica ~a ~b

(* ---------------- Feature selection ---------------- *)

let run_ce (ctx : Context.t) = Lazy.force ctx.ce

let run_ga ?config ?(seed = 0x6A5EEDL) (ctx : Context.t) =
  let rng = Mica_util.Rng.create ~seed in
  Select.Genetic.run ?config ~pool:(Mica_util.Pool.default ()) ~rng ctx.fitness

(* ---------------- Figure 4 ---------------- *)

type roc_entry = { label : string; n_features : int; curve : Stats.Roc.curve }

let fig4 ?(frac = 0.2) (ctx : Context.t) ~ga ~ce =
  Obs.span "experiments.fig4" @@ fun () ->
  let ce_subset k =
    match Select.Correlation_elimination.subset_of_size ce k with
    | s -> [ (Printf.sprintf "corr. elimination (%d)" k, s) ]
    | exception Not_found -> []
  in
  let subsets =
    List.concat
      [
        [ ("all 47 characteristics", Array.init Analysis.Characteristics.count Fun.id) ];
        ce_subset 17;
        ce_subset 12;
        ce_subset 7;
        [
          ( Printf.sprintf "genetic algorithm (%d)" (Array.length ga.Select.Genetic.selected),
            ga.Select.Genetic.selected );
        ];
      ]
  in
  (* every curve is labelled by the same counter-space pairs *)
  let labels = Stats.Roc.positives ~ref_distances:ctx.hpc_space.Space.distances ~frac in
  let curves =
    Stats.Roc.curves ~labels
      (List.map (fun (_, subset) -> Select.Fitness.distances_for ctx.fitness subset) subsets)
  in
  List.map2
    (fun (label, subset) curve -> { label; n_features = Array.length subset; curve })
    subsets curves

let render_fig4 entries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "ROC analysis (reference: HPC space at 20% threshold)\n";
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  %-28s features=%2d  AUC=%.3f\n" e.label e.n_features
           e.curve.Stats.Roc.auc))
    entries;
  Buffer.add_string buf "  (paper AUCs: all=0.72, GA=0.69, CE17=0.67, CE12/7=0.64)\n";
  Buffer.contents buf

(* ---------------- Figure 5 ---------------- *)

type fig5 = { ce_points : (int * float) array; ga_point : int * float }

let fig5 (ctx : Context.t) ~ga =
  Obs.span "experiments.fig5" @@ fun () ->
  let ce = run_ce ctx in
  let ce_points =
    Array.of_list
      (List.map
         (fun (s : Select.Correlation_elimination.step) ->
           (Array.length s.Select.Correlation_elimination.remaining,
            s.Select.Correlation_elimination.rho))
         ce)
  in
  {
    ce_points;
    ga_point = (Array.length ga.Select.Genetic.selected, ga.Select.Genetic.rho);
  }

let render_fig5 f =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "correlation of reduced-space distances with full-space distances\n";
  Buffer.add_string buf "  correlation elimination sweep (retained -> rho):\n";
  Array.iter
    (fun (k, rho) -> Buffer.add_string buf (Printf.sprintf "    %2d  %.3f\n" k rho))
    f.ce_points;
  let k, rho = f.ga_point in
  Buffer.add_string buf (Printf.sprintf "  genetic algorithm: %d retained, rho = %.3f\n" k rho);
  Buffer.add_string buf "  (paper: GA rho 0.876 with 8 retained; CE rho 0.823 with 17)\n";
  Buffer.contents buf

(* ---------------- Table IV ---------------- *)

let render_table4 (ga : Select.Genetic.result) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "characteristics selected by the genetic algorithm (%d of %d):\n"
       (Array.length ga.Select.Genetic.selected)
       Analysis.Characteristics.count);
  Array.iteri
    (fun i c ->
      Buffer.add_string buf
        (Printf.sprintf "  %d. %s\n" (i + 1) Analysis.Characteristics.names.(c)))
    ga.Select.Genetic.selected;
  Buffer.add_string buf
    (Printf.sprintf "fitness %.3f, rho %.3f, %d generations, %d evaluations\n"
       ga.Select.Genetic.fitness ga.Select.Genetic.rho ga.Select.Genetic.generations_run
       ga.Select.Genetic.evaluations);
  Buffer.contents buf

(* ---------------- Figure 6 ---------------- *)

type fig6 = { clustering : Clustering.t; axes : string array; plots : Kiviat.plot list }

let fig6 ?(k_max = 70) (ctx : Context.t) ~selected =
  Obs.span "experiments.fig6" @@ fun () ->
  let reduced = Dataset.select_features ctx.mica selected in
  let clustering = Clustering.cluster ~k_max ~pool:(Mica_util.Pool.default ()) reduced in
  let unit = Stats.Normalize.unit_range reduced.Dataset.data in
  let plots =
    List.mapi
      (fun i name ->
        {
          Kiviat.p_label = name;
          p_values = unit.(i);
          p_cluster = clustering.Clustering.assignments.(i);
        })
      (Array.to_list reduced.Dataset.names)
  in
  (* order clusters by size so the display matches the paper's layout *)
  let order = Clustering.sorted_clusters clustering in
  let rank = Hashtbl.create 32 in
  List.iteri (fun r (c, _) -> Hashtbl.replace rank c r) order;
  let plots =
    List.sort
      (fun a b ->
        compare
          (Hashtbl.find rank a.Kiviat.p_cluster, a.Kiviat.p_label)
          (Hashtbl.find rank b.Kiviat.p_cluster, b.Kiviat.p_label))
      plots
  in
  (* renumber clusters in display order *)
  let plots =
    List.map (fun p -> { p with Kiviat.p_cluster = Hashtbl.find rank p.Kiviat.p_cluster }) plots
  in
  { clustering; axes = reduced.Dataset.features; plots }

let render_fig6 f =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf "k-means with BIC-selected K = %d (paper: 15 clusters)\n"
       f.clustering.Clustering.k);
  Buffer.add_string buf (Printf.sprintf "axes: %s\n\n" (String.concat ", " (Array.to_list f.axes)));
  let current = ref (-1) in
  List.iter
    (fun (p : Kiviat.plot) ->
      if p.Kiviat.p_cluster <> !current then begin
        current := p.Kiviat.p_cluster;
        Buffer.add_string buf (Printf.sprintf "cluster %d:\n" (p.Kiviat.p_cluster + 1))
      end;
      Buffer.add_string buf
        (Printf.sprintf "  %s  %s\n" (Kiviat.text_compact ~values:p.Kiviat.p_values)
           p.Kiviat.p_label))
    f.plots;
  Buffer.contents buf

(* ---------------- Extended characteristic set ---------------- *)

(* All workloads characterized with [Extended] (60 characteristics),
   cached alongside the main datasets. *)
let extended_dataset (ctx : Context.t) =
  let config = ctx.Context.config in
  let cache_path =
    Option.map
      (fun dir ->
        Filename.concat dir
          (Printf.sprintf "extended-%s-%d.csv" Pipeline.model_version config.Pipeline.icount))
      config.Pipeline.cache_dir
  in
  let cache =
    match cache_path with
    | Some p when Sys.file_exists p -> (
      try
        let ds = Dataset.of_csv p in
        let tbl = Hashtbl.create (Dataset.rows ds) in
        Array.iteri (fun i n -> Hashtbl.replace tbl n ds.Dataset.data.(i)) ds.Dataset.names;
        tbl
      with Failure _ -> Hashtbl.create 16)
    | Some _ | None -> Hashtbl.create 16
  in
  let dirty = ref false in
  let rows =
    List.map
      (fun (w : Workloads.Workload.t) ->
        let id = Workloads.Workload.id w in
        match Hashtbl.find_opt cache id with
        | Some row when Array.length row = Analysis.Extended.count -> (id, row)
        | _ ->
          if config.Pipeline.progress then
            Logs.app (fun f -> f "extended characterization of %s" id);
          let row =
            Analysis.Extended.analyze ~ppm_order:config.Pipeline.ppm_order
              w.Workloads.Workload.model ~icount:config.Pipeline.icount
          in
          Hashtbl.replace cache id row;
          dirty := true;
          (id, row))
      ctx.Context.workloads
  in
  (if !dirty then
     match cache_path with
     | Some p ->
       let entries = Hashtbl.fold (fun n r acc -> (n, r) :: acc) cache [] in
       let entries = List.sort compare entries in
       let ds =
         Dataset.create
           ~names:(Array.of_list (List.map fst entries))
           ~features:Analysis.Extended.short_names
           (Array.of_list (List.map snd entries))
       in
       (try Dataset.to_csv ds p with Sys_error _ | Mica_util.Fault.Injected _ -> ())
     | None -> ());
  Dataset.create
    ~names:(Array.of_list (List.map fst rows))
    ~features:Analysis.Extended.short_names
    (Array.of_list (List.map snd rows))

type extended_result = {
  ext_ga : Select.Genetic.result;
  ext_selected_names : string array;
  ext_extension_picked : int;
}

let extended_selection ?config ?(seed = 0x6A5EEDL) (ctx : Context.t) =
  let ds = extended_dataset ctx in
  let normalized = Stats.Normalize.zscore ds.Dataset.data in
  let fitness = Select.Fitness.create normalized in
  let rng = Mica_util.Rng.create ~seed in
  let ga = Select.Genetic.run ?config ~rng fitness in
  let selected = ga.Select.Genetic.selected in
  {
    ext_ga = ga;
    ext_selected_names = Array.map (fun c -> Analysis.Extended.short_names.(c)) selected;
    ext_extension_picked =
      Array.fold_left
        (fun acc c -> if Analysis.Extended.is_extension c then acc + 1 else acc)
        0 selected;
  }

let render_extended r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "GA over the extended %d-characteristic space: %d selected (rho %.3f, fitness %.3f)\n"
       Analysis.Extended.count
       (Array.length r.ext_ga.Select.Genetic.selected)
       r.ext_ga.Select.Genetic.rho r.ext_ga.Select.Genetic.fitness);
  Array.iteri
    (fun i c ->
      Buffer.add_string buf
        (Printf.sprintf "  %d. %s%s\n" (i + 1)
           Analysis.Extended.names.(c)
           (if Analysis.Extended.is_extension c then "   [extension]" else "")))
    r.ext_ga.Select.Genetic.selected;
  Buffer.add_string buf
    (Printf.sprintf
       "%d of the selected characteristics come from the extension set:\n\
        the locality/branch measures carry information the original 47 do not.\n"
       r.ext_extension_picked);
  Buffer.contents buf

(* ---------------- Cost model ---------------- *)

type cost = { full_seconds : float; reduced_seconds : float; speedup : float; sample : int }

(* Build only the analyzer sinks the selected characteristics require: the
   mechanism behind the paper's "8 characteristics are ~3x cheaper to
   measure than 47".  Within the expensive families, only the selected ILP
   window sizes and PPM predictor variants are simulated. *)
let sinks_for_subset selected =
  let needed = Hashtbl.create 8 in
  Array.iter
    (fun c -> Hashtbl.replace needed Analysis.Characteristics.categories.(c) ())
    selected;
  let sel c = Array.exists (fun i -> i = c) selected in
  let sinks = ref [] in
  let add cat make = if Hashtbl.mem needed cat then sinks := make () :: !sinks in
  add Analysis.Characteristics.Instruction_mix (fun () ->
      Analysis.Mix.sink (Analysis.Mix.create ()));
  add Analysis.Characteristics.Ilp (fun () ->
      (* characteristics 7-10 (indices 6-9) are the four window sizes *)
      let windows =
        Array.of_list
          (List.filter_map
             (fun (idx, w) -> if sel idx then Some w else None)
             [ (6, 32); (7, 64); (8, 128); (9, 256) ])
      in
      Analysis.Ilp.sink (Analysis.Ilp.create ~windows ()));
  add Analysis.Characteristics.Register_traffic (fun () ->
      Analysis.Regtraffic.sink (Analysis.Regtraffic.create ()));
  add Analysis.Characteristics.Working_set_size (fun () ->
      Analysis.Working_set.sink (Analysis.Working_set.create ()));
  add Analysis.Characteristics.Data_stream_strides (fun () ->
      Analysis.Strides.sink (Analysis.Strides.create ()));
  add Analysis.Characteristics.Branch_predictability (fun () ->
      (* characteristics 44-47 (indices 43-46) are GAg, PAg, GAs, PAs *)
      let variants =
        List.filter_map
          (fun (idx, v) -> if sel idx then Some v else None)
          [ (43, Analysis.Ppm.GAg); (44, Analysis.Ppm.PAg); (45, Analysis.Ppm.GAs); (46, Analysis.Ppm.PAs) ]
      in
      Analysis.Ppm.sink (Analysis.Ppm.create ~variants ()));
  !sinks

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let cost_model (ctx : Context.t) ~selected =
  Obs.span "experiments.cost" @@ fun () ->
  let workloads =
    List.filteri (fun i _ -> i < 8) ctx.workloads
  in
  let run sinks_of =
    List.iter
      (fun (w : Workloads.Workload.t) ->
        let sink = Mica_trace.Sink.fanout (sinks_of ()) in
        ignore
          (Mica_trace.Generator.run w.Workloads.Workload.model ~icount:ctx.config.Pipeline.icount
             ~sink
            : int))
      workloads
  in
  let all = Array.init Analysis.Characteristics.count Fun.id in
  let full_seconds = time (fun () -> run (fun () -> sinks_for_subset all)) in
  let reduced_seconds = time (fun () -> run (fun () -> sinks_for_subset selected)) in
  {
    full_seconds;
    reduced_seconds;
    speedup = (if reduced_seconds > 0.0 then full_seconds /. reduced_seconds else 0.0);
    sample = List.length workloads;
  }

let render_cost c =
  Printf.sprintf
    "characterization cost over %d workloads: all 47 chars %.2fs, selected subset %.2fs -> \
     %.2fx speedup (paper: ~3x, 110 vs 37 machine-days)\n"
    c.sample c.full_seconds c.reduced_seconds c.speedup
