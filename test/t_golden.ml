(* Golden regression tests: exact characteristic vectors for three
   contrasting workloads at a fixed trace length, pinned at model version
   "v3".  Any change to the generator, the workload profiles or an analyzer
   that alters measured behaviour will fail here — bump
   Mica_core.Pipeline.model_version and regenerate the constants when the
   change is intentional (see the generator snippet in the repo history /
   DESIGN.md determinism notes). *)

let golden_icount = 5_000

let golden =
  [
    ("MiBench/sha/large",
     [|
        0.2094; 0.1046; 0.157; 0.529;
        0.; 0.; 6.32911392405; 9.52380952381;
        18.5873605948; 18.5873605948; 1.581; 2.14030335861;
        0.330675778284; 0.467096937484; 0.66755251835; 0.769045811187;
        0.868134649456; 1.; 1.; 196.;
        4.; 3.; 1.; 0.;
        1.; 1.; 1.; 1.;
        0.; 0.; 0.; 0.;
        0.250478011472; 0.; 1.; 1.;
        1.; 1.; 0.; 0.;
        0.; 0.; 1.; 0.0229591836735;
        0.0420918367347; 0.0229591836735; 0.0420918367347;
     |]);
    ("SPEC2000/mcf/ref",
     [|
        0.3436; 0.0638; 0.1768; 0.4158;
        0.; 0.; 10.6837606838; 19.6078431373;
        21.4592274678; 21.5517241379; 1.432; 1.87516460363;
        0.193820224719; 0.45393258427; 0.551123595506; 0.629634831461;
        0.679775280899; 0.924157303371; 0.931741573034; 1792.;
        1031.; 4.; 1.; 0.;
        0.; 0.; 0.0046783625731; 0.0315789473684;
        0.; 0.; 0.; 0.;
        0.; 0.712933753943; 0.712933753943; 0.712933753943;
        0.712933753943; 0.716088328076; 0.421383647799; 0.421383647799;
        0.421383647799; 0.421383647799; 0.421383647799; 0.2313860252;
        0.234822451317; 0.184421534937; 0.201603665521;
     |]);
    ("SPEC2000/swim/ref",
     [|
        0.277; 0.1274; 0.0424; 0.191;
        0.; 0.3622; 5.21920668058; 5.21920668058;
        5.21920668058; 5.21920668058; 1.6168; 1.9173693086;
        0.13481593165; 0.255057167986; 0.415881392135; 0.641663525569;
        0.921221258952; 0.989320266365; 0.990074129916; 1232.;
        964.; 7.; 1.; 0.;
        0.617067833698; 0.617067833698; 0.617067833698; 1.;
        0.; 0.; 0.; 0.;
        0.; 0.; 0.334389857369; 0.334389857369;
        0.334389857369; 1.; 0.; 0.;
        0.; 0.; 0.; 0.0283018867925;
        0.0283018867925; 0.0283018867925; 0.0283018867925;
     |]);
  ]

(* The 7-element hardware-counter vectors of the same three workloads at the
   same trace length, pinning the machine models (EV56/EV67 timing, caches,
   TLB, branch predictor) the way the vectors above pin the analyzers.
   Regenerate together with the MICA vectors on an intentional
   model_version bump. *)
let golden_hpc =
  [
    ("MiBench/sha/large",
     [| 0.530110262935; 0.0459183673469; 0.124840764331; 0.0006; 0.51256281407;
        0.00127388535032; 1.22518990444 |]);
    ("SPEC2000/mcf/ref",
     [| 0.0335392644169; 0.205040091638; 0.888070692194; 0.0008; 0.981798124655;
        0.690230731468; 0.155342218908 |]);
    ("SPEC2000/swim/ref",
     [| 0.0603937673632; 0.0377358490566; 0.624629080119; 0.0014; 0.868503937008;
        0.246290801187; 0.360490266763 |]);
  ]

let check_pinned ~what name expected v =
  Alcotest.(check int) "vector length" (Array.length expected) (Array.length v);
  Array.iteri
    (fun i x ->
      if Float.abs (x -. expected.(i)) > 1e-9 +. (1e-9 *. Float.abs expected.(i)) then
        Alcotest.failf "%s: %s %d drifted: %.12g <> %.12g (pinned)" name what i x expected.(i))
    v

let test_golden (name, expected) () =
  let w = Mica_workloads.Registry.find_exn name in
  let v = Mica_analysis.Analyzer.analyze w.Mica_workloads.Workload.model ~icount:golden_icount in
  check_pinned ~what:"characteristic" name expected v

let test_golden_hpc (name, expected) () =
  let w = Mica_workloads.Registry.find_exn name in
  let r = Mica_uarch.Hw_counters.measure w.Mica_workloads.Workload.model ~icount:golden_icount in
  check_pinned ~what:"counter" name expected (Mica_uarch.Hw_counters.to_vector r)

(* Selection and clustering pinned to the bit: the paper's GA at its
   default seed, the correlation-elimination sweep and Fig 6's k-means/BIC
   sweep, all over the committed baseline dataset (122 x 47 at icount
   20000, so no characterization runs here).  [Fitness] and [Kmeans] may be
   restructured for speed, but only under this pin, at any pool size.
   Regenerate the constants (from [selection_outcome]) only when the
   baseline dataset itself is re-committed. *)

module Select = Mica_select
module Core = Mica_core

let baseline_csv =
  let rel = "results/baseline/mica_dataset.csv" in
  if Sys.file_exists ("../" ^ rel) then "../" ^ rel else rel
let bits = Int64.bits_of_float

(* MD5 of a float series' IEEE bit patterns. *)
let bits_digest xs =
  Digest.to_hex
    (Digest.string (String.concat "," (Array.to_list (Array.map (fun x -> Int64.to_string (bits x)) xs))))

type selection_outcome = {
  ga_selected : int array;
  ga_fitness_bits : int64;
  ga_rho_bits : int64;
  ga_evaluations : int;
  ga_generations : int;
  ga_history_md5 : string;
  ce_removed : int array;
  ce_rho_md5 : string;
  bic_scores_md5 : string;
  bic_k : int;
  assignments : int array;
}

(* What the paper pipeline computes from the dataset: the same calls, in
   the same order and with the same seeds, as Experiments.run_ga, run_ce
   and fig6. *)
let selection_outcome ~pool (ds : Core.Dataset.t) =
  let space = Core.Space.of_dataset ds in
  let fitness = Select.Fitness.create space.Core.Space.normalized in
  let ga =
    Select.Genetic.run ~pool ~rng:(Mica_util.Rng.create ~seed:0x6A5EEDL) fitness
  in
  let ce = Select.Correlation_elimination.run ~pool ~data:ds.Core.Dataset.data fitness in
  let clustering =
    Core.Clustering.cluster ~k_max:70 ~pool
      (Core.Dataset.select_features ds ga.Select.Genetic.selected)
  in
  {
    ga_selected = ga.Select.Genetic.selected;
    ga_fitness_bits = bits ga.Select.Genetic.fitness;
    ga_rho_bits = bits ga.Select.Genetic.rho;
    ga_evaluations = ga.Select.Genetic.evaluations;
    ga_generations = ga.Select.Genetic.generations_run;
    ga_history_md5 = bits_digest ga.Select.Genetic.best_history;
    ce_removed =
      Array.of_list (List.map (fun s -> s.Select.Correlation_elimination.removed) ce);
    ce_rho_md5 =
      bits_digest (Array.of_list (List.map (fun s -> s.Select.Correlation_elimination.rho) ce));
    bic_scores_md5 = bits_digest (Array.map snd clustering.Core.Clustering.bic_sweep);
    bic_k = clustering.Core.Clustering.k;
    assignments = clustering.Core.Clustering.assignments;
  }

let pinned_selection =
  {
    ga_selected = [| 7; 12; 32; 36; 38; 44 |];
    ga_fitness_bits = 4604941533661731253L;
    ga_rho_bits = 4605931725971456350L;
    ga_evaluations = 3432;
    ga_generations = 93;
    ga_history_md5 = "37623ce7eca2b64c7f4dd13379f53fa4";
    ce_removed =
      [|
        43; 44; 45; 42; 27; 46; 39; 35; 19; 38; 5; 32; 40; 26; 14; 7;
        36; 2; 15; 1; 25; 41; 3; 8; 37; 12; 0; 16; 21; 34; 13; 9;
        20; 30; 11; 17; 31; 10; 6; 23; 18; 33; 28; 29; 24; 4;
      |];
    ce_rho_md5 = "c967b43526325642ad4b7d8fabe57d8e";
    bic_scores_md5 = "6783fdd9069039072dd7bdf7298ccbe3";
    bic_k = 5;
    assignments =
      [|
        0; 4; 2; 0; 4; 2; 2; 3; 0; 3; 3; 2; 0; 0; 2; 0; 0; 0; 0; 2; 1; 1; 3; 3; 4;
        4; 1; 1; 3; 3; 3; 3; 2; 2; 2; 2; 1; 1; 3; 4; 4; 2; 4; 4; 1; 2; 2; 1; 1; 2;
        0; 1; 1; 3; 3; 3; 4; 4; 2; 2; 3; 3; 3; 3; 3; 2; 2; 4; 2; 4; 2; 2; 3; 3; 3;
        3; 3; 3; 3; 4; 3; 3; 3; 3; 3; 3; 3; 3; 3; 2; 3; 3; 3; 3; 3; 3; 3; 3; 3; 3;
        3; 3; 3; 3; 3; 3; 3; 2; 2; 4; 2; 2; 2; 2; 2; 2; 4; 2; 4; 2; 4; 2;
      |];
  }

let test_selection_golden jobs () =
  let ds = Core.Dataset.of_csv baseline_csv in
  Alcotest.(check (pair int int)) "baseline shape" (122, 47)
    (Core.Dataset.rows ds, Core.Dataset.cols ds);
  let got = Mica_util.Pool.with_pool ~jobs (fun pool -> selection_outcome ~pool ds) in
  let want = pinned_selection in
  let ints = Alcotest.(array int) and i64 = Alcotest.int64 in
  Alcotest.check ints "GA selected" want.ga_selected got.ga_selected;
  Alcotest.check i64 "GA fitness bits" want.ga_fitness_bits got.ga_fitness_bits;
  Alcotest.check i64 "GA rho bits" want.ga_rho_bits got.ga_rho_bits;
  Alcotest.(check int) "GA evaluations" want.ga_evaluations got.ga_evaluations;
  Alcotest.(check int) "GA generations" want.ga_generations got.ga_generations;
  Alcotest.(check string) "GA best_history bits" want.ga_history_md5 got.ga_history_md5;
  Alcotest.check ints "CE removal order" want.ce_removed got.ce_removed;
  Alcotest.(check string) "CE per-step rho bits" want.ce_rho_md5 got.ce_rho_md5;
  Alcotest.(check string) "BIC sweep score bits" want.bic_scores_md5 got.bic_scores_md5;
  Alcotest.(check int) "BIC-chosen K" want.bic_k got.bic_k;
  Alcotest.check ints "Fig 6 assignments" want.assignments got.assignments

let suite =
  ( "golden",
    List.map
      (fun ((name, _) as case) ->
        Alcotest.test_case ("pinned vector " ^ name) `Quick (test_golden case))
      golden
    @ List.map
        (fun ((name, _) as case) ->
          Alcotest.test_case ("pinned counters " ^ name) `Quick (test_golden_hpc case))
        golden_hpc
    @ List.map
        (fun jobs ->
          Alcotest.test_case
            (Printf.sprintf "pinned GA/CE/BIC on baseline dataset (jobs %d)" jobs)
            `Quick (test_selection_golden jobs))
        [ 1; 4 ] )
