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
   baseline dataset itself is re-committed, or when an output is
   deliberately corrected (as [ce_rho_md5] was, when each CE step's rho
   became its subset's exact rho). *)

module Select = Mica_select
module Core = Mica_core

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
    ce_rho_md5 = "d65569f067f97597c6b1f55de91d7db8";
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
  let ds = Core.Dataset.of_csv Tutil.baseline_csv in
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

(* Figure 4 on the committed baseline datasets: per curve, its label and
   size, its AUC bits and the MD5 of its points' (threshold, tpr, fpr)
   bits.  The pins were computed before the ROC's sort became a radix
   sort and before Figure 4 shared one set of HPC labels across its
   curves; the GA and CE inputs are [selection_outcome]'s calls. *)
let fig4_outcome ~pool =
  let mica = Core.Dataset.of_csv Tutil.baseline_csv in
  let hpc = Core.Dataset.of_csv Tutil.baseline_hpc_csv in
  let workloads =
    List.map Mica_workloads.Registry.find_exn (Array.to_list mica.Core.Dataset.names)
  in
  let ctx = Core.Experiments.Context.of_datasets ~workloads mica hpc in
  let fitness = ctx.Core.Experiments.Context.fitness in
  let ga = Select.Genetic.run ~pool ~rng:(Mica_util.Rng.create ~seed:0x6A5EEDL) fitness in
  let ce = Select.Correlation_elimination.run ~pool ~data:mica.Core.Dataset.data fitness in
  List.map
    (fun (e : Core.Experiments.roc_entry) ->
      let points = e.Core.Experiments.curve.Mica_stats.Roc.points in
      ( e.Core.Experiments.label,
        e.Core.Experiments.n_features,
        bits e.Core.Experiments.curve.Mica_stats.Roc.auc,
        bits_digest
          (Array.concat
             (Array.to_list
                (Array.map
                   (fun (p : Mica_stats.Roc.point) -> [| p.threshold; p.tpr; p.fpr |])
                   points))) ))
    (Core.Experiments.fig4 ctx ~ga ~ce)

let pinned_fig4 =
  [
    ("all 47 characteristics", 47, 4605399688839362682L, "f97cfe5dddffae8afe06c2d3f9aa5136");
    ("corr. elimination (17)", 17, 4604402267191128480L, "565595ef9120d66a24240da1727526d6");
    ("corr. elimination (12)", 12, 4604402553555450575L, "c931c149c941a41eddffb3d914916d24");
    ("corr. elimination (7)", 7, 4604496427854983046L, "6fd2b2dfb159ad4de554c45dba074d9d");
    ("genetic algorithm (6)", 6, 4605146085501213928L, "86371f870bcf545fded75400d1c97471");
  ]

let test_fig4_golden jobs () =
  let got = Mica_util.Pool.with_pool ~jobs (fun pool -> fig4_outcome ~pool) in
  Alcotest.(check (list (pair (pair string int) (pair int64 string))))
    "Fig 4 curves: label, size, AUC bits, point bits"
    (List.map (fun (l, n, auc, md5) -> ((l, n), (auc, md5))) pinned_fig4)
    (List.map (fun (l, n, auc, md5) -> ((l, n), (auc, md5))) got)

(* Trace digests: the MD5 of all eight fields of the first 20k generated
   instructions, pinning the generator's output itself rather than what the
   analyzers make of it.  Any change to how a kernel's static code image is
   built or how it consumes the RNG changes some trace; these constants
   were computed before the code image became flat arrays and must never
   be regenerated to make a generator change pass. *)

let trace_icount = 20_000

let trace_digest program =
  let buf = Buffer.create (trace_icount * 57) in
  let add x = Buffer.add_int64_le buf (Int64.of_int x) in
  let sink =
    Mica_trace.Sink.make ~name:"trace-digest" (fun (c : Mica_trace.Chunk.t) ->
        for i = 0 to c.len - 1 do
          add c.pc.(i);
          add c.op.(i);
          add c.src1.(i);
          add c.src2.(i);
          add c.dst.(i);
          add c.addr.(i);
          Buffer.add_char buf (Bytes.get c.taken i);
          add c.target.(i)
        done)
  in
  let n = Mica_trace.Generator.run program ~icount:trace_icount ~sink in
  Alcotest.(check int) "instructions" trace_icount n;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Two members of each gen/* family at indices drawn from a fixed seed. *)
let gen_members () =
  let rng = Mica_util.Rng.create ~seed:0x7ACEL in
  List.concat_map
    (fun fam ->
      List.init 2 (fun _ -> Mica_workloads.Corpus.member fam (Mica_util.Rng.int rng 100_000)))
    Mica_workloads.Corpus.families

(* Ten random kernel specs of the fuzz suite, each from its own seed. *)
let fuzz_programs () =
  List.init 10 (fun seed ->
      let spec = QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) T_fuzz.spec_gen in
      (Printf.sprintf "fuzz seed %d" seed, T_fuzz.program_of_spec spec))

let workload_programs ws =
  List.map (fun (w : Mica_workloads.Workload.t) -> (Mica_workloads.Workload.id w, w.model)) ws

let golden_traces_registry =
  [
    ("BioInfoMark/blast/protein", "b84b8ba6fa1e594568839dbd12a94770");
    ("BioInfoMark/ce/ce", "88e409e2bd90deda9c8ba3b585471e44");
    ("BioInfoMark/clustalw/clustalw", "af6d8154ac7a00106531c66f9411ea67");
    ("BioInfoMark/fasta/fasta34", "914430509bbeae385384a43bfee74738");
    ("BioInfoMark/glimmer/004663", "51f6e43ecbf2ed632883db0974528278");
    ("BioInfoMark/hmmer/build", "bf2d5b5d886fe6bc7c645eb38ef40ada");
    ("BioInfoMark/hmmer/calibrate", "ee5f40159c5e43b214c20e4dd9f7b1b2");
    ("BioInfoMark/hmmer/search (artemia)", "65d05e6e2a08088e28a51ce57f0bc02f");
    ("BioInfoMark/hmmer/search (sprot)", "4a06c47ce5168cdadba25e0f3b4235da");
    ("BioInfoMark/phylip/dnapenny", "c9c8c934cdbbfa14672d89859b0a4981");
    ("BioInfoMark/phylip/promlk", "9dce833252337750bbac38c2e81b507e");
    ("BioInfoMark/predator/predator", "5c02f5974366d901fe311feb81ccd637");
    ("BioMetricsWorkload/csu/Bayesian (project)", "f2ff73475677997ae57eb2f6dfa20466");
    ("BioMetricsWorkload/csu/Bayesian (train)", "6b28aeeef8e4c87ffca40ca61e60706e");
    ("BioMetricsWorkload/csu/PreprocessNormalize", "a070133ac2def1f85a042716d079b4b1");
    ("BioMetricsWorkload/csu/SubspaceProject (LDA)", "957cae88557e3cac97a638e2c4b314af");
    ("BioMetricsWorkload/csu/SubspaceProject (PCA)", "124c227a12153299d4eff72c9c7642cb");
    ("BioMetricsWorkload/csu/SubspaceTrain (LDA)", "5b7047c887fe7843736bf983100d0a15");
    ("BioMetricsWorkload/csu/SubspaceTrain (PCA)", "c13518695dd53346a92a0782b37c5cf0");
    ("BioMetricsWorkload/speak/decode", "51ce87b4c42d7d314193e0add156f5ab");
    ("CommBench/cast/decode", "f34e85ae04c2bfbf8450c8dd0a5e3eb4");
    ("CommBench/cast/encode", "a48c5ebb2374924e37ce2193e227d630");
    ("CommBench/drr/drr", "a36f7b192e98eaee95ec514c676690d0");
    ("CommBench/frag/frag", "6b050b1df8e5acf65cfc96018caa92ba");
    ("CommBench/jpeg/decode", "98a082ceb5f3d204b756b481e0668562");
    ("CommBench/jpeg/encode", "f33c7de3744f9714cee2d8b964809e52");
    ("CommBench/reed/decode", "2b3b7a14824d08d7f414791f378bbcb6");
    ("CommBench/reed/encode", "d99f0a980c1f1eb00f59c4636f946dcb");
    ("CommBench/rtr/rtr", "b44f82078a10f2d72c00ece90c03053c");
    ("CommBench/tcp/tcp", "b65ca823aaf98448b239b6c755f9a83f");
    ("CommBench/zip/decode", "b10d8b1bf1db9d394c0ae9b00a33e6d5");
    ("CommBench/zip/encode", "787e9289289d698204cf227c340333c0");
    ("MediaBench/epic/test1", "500a4bdf67fb0d77ebff62d9c0d1e15b");
    ("MediaBench/epic/test2", "b1af58c0d491d5a9826a2dac06ea265f");
    ("MediaBench/unepic/test1", "58767e7e68b6dab39bb74f1584eb1727");
    ("MediaBench/unepic/test2", "b25dca4847bf17e2a5211289af9f2d99");
    ("MediaBench/g721/decode", "5a013c80a5932847d3108d4ee64ea1fc");
    ("MediaBench/g721/encode", "edb518e7cfb19443425e7aee4cb84752");
    ("MediaBench/ghostscript/gs", "789b65dda6bf90e8d4eb735c95dd54a1");
    ("MediaBench/mesa/mipmap", "ea1d74df8bba409fdfeba98d2973bba9");
    ("MediaBench/mesa/osdemo", "b766df3c4fc99f07cf042a2f49e9f0ec");
    ("MediaBench/mesa/texgen", "a1129cdc1d8e5e916e4ce7e07d3c975b");
    ("MediaBench/mpeg2/decode", "8a1f59371f436f9cb6240b9bbdfefc1c");
    ("MediaBench/mpeg2/encode", "14aa8d1f6b280d74bb7dec3cacc3c862");
    ("MiBench/CRC32/large", "b9e3b8c736d0a1b0ab1f07f72de1bd51");
    ("MiBench/FFT/fft (large)", "22bc53843bc647d2230871f6b823a0b9");
    ("MiBench/FFT/fftinv (large)", "7bc9e9dfec174a9d91e1ac3a646284c1");
    ("MiBench/adpcm/rawcaudio", "28fb053e4fd67fbba5d503282c4aaf9f");
    ("MiBench/adpcm/rawdaudio", "c2bce8a93460b14cf21b59e6417f1a02");
    ("MiBench/basicmath/large", "0da6f8b10f7eb522637050e4b42edc8c");
    ("MiBench/bitcount/large", "d7f101dd58e6371c29b7a68af7fc7c09");
    ("MiBench/blowfish/decode", "f64952992c4095c198cb11710bab6fc2");
    ("MiBench/blowfish/encode", "e43df1e31855b22b42de5ca8339f0e37");
    ("MiBench/dijkstra/large", "a95af5d1f3a379f57436072f0364ea98");
    ("MiBench/ghostscript/large", "567d696324b1b48aa4f82f8bf118daa3");
    ("MiBench/ispell/large", "0cb28547e53a8a5cbfc1ef2001887655");
    ("MiBench/jpeg/cjpeg", "0b3b43c717cab0e91023b6c5c25974b1");
    ("MiBench/jpeg/djpeg", "1d66f612b2802aef22fb2cd5f929281c");
    ("MiBench/lame/large", "36d870c48f6ad3eb09cf91d2f6a8f847");
    ("MiBench/mad/large", "70e18b9205a61ff72bf195e494718154");
    ("MiBench/patricia/large", "2c8c997e48531dc5d19c9da44cf29799");
    ("MiBench/pgp/decode", "876fd73d62b7589ee4bef05317d668a7");
    ("MiBench/pgp/encode", "371835b32981188b81386ee0cd2eff50");
    ("MiBench/qsort/large", "9764554a217b15d04422a1c8bcc2a256");
    ("MiBench/rsynth/say (large)", "a2666aca74ecd56a9f6a730078dfb4c5");
    ("MiBench/sha/large", "d16048ddf27c189860255ef58a9b459c");
    ("MiBench/susan/corners (large)", "0e37a77b9e49f0f3809d916f21370b80");
    ("MiBench/susan/edges (large)", "fc87e92e9fc134a997fa2be1060fedb8");
    ("MiBench/susan/smoothing (large)", "b894e717d2b3f09845d7a5014979654c");
    ("MiBench/tiff/2bw", "2e3687bd95867e7c7a7d71f701103862");
    ("MiBench/tiff/2rgba", "d9e634ea02f0cd9f1869b0bb760b3c86");
    ("MiBench/tiff/dither", "27acb8da7cb5917d49f62ffaf6d1e6e7");
    ("MiBench/tiff/median", "e440ecffce8fc17077091d2b15a96710");
    ("MiBench/typeset/lout", "806cecd3225a8902fac82e017d86f5ca");
    ("SPEC2000/bzip2/graphic", "eeedef6ed9f800ad339a43da06ad1873");
    ("SPEC2000/bzip2/program", "a2299f20d9be770b2a2d21b835a91780");
    ("SPEC2000/bzip2/source", "bdbb3026d44661b0237a0468a072216b");
    ("SPEC2000/crafty/ref", "5ab4a5b9f32cdb800f6b6f2500cf9944");
    ("SPEC2000/eon/cook", "490f7cdd54e512e8eb2277ba9a9edc85");
    ("SPEC2000/eon/kajiya", "ad3c6da842f574662ea921cd43d7acde");
    ("SPEC2000/eon/rush", "1307ebb873c1ca9599686fc2345feee1");
    ("SPEC2000/gap/ref", "ca08862968f7267e8313f46488ec879d");
    ("SPEC2000/gcc/166", "6dd4b427c9d69093703660dffb031a4d");
    ("SPEC2000/gcc/200", "cbd60c5dd73a9852cb0da1f0b4517d65");
    ("SPEC2000/gcc/expr", "4c3f3b3feeb890945ffade50c9a28b44");
    ("SPEC2000/gcc/integrate", "414a3ac7ca7da7a5e8c753e5f22181e7");
    ("SPEC2000/gcc/scilab", "84a9f6fc7573deb11de1c27c3f158b1b");
    ("SPEC2000/gzip/graphic", "47a2f49f8216fbc064bdbbda5fd3e51d");
    ("SPEC2000/gzip/log", "387c6bd68e5c3f985a9ee51dca8328ab");
    ("SPEC2000/gzip/program", "f41fa68935196ab00a03e16cea635ad6");
    ("SPEC2000/gzip/random", "e12727b9c38dafe98fb4843206fd1364");
    ("SPEC2000/gzip/source", "765166f2879a13d6904203037059e88b");
    ("SPEC2000/mcf/ref", "ddc357c15d1f363a245f62d67c7d94f3");
    ("SPEC2000/parser/ref", "e629d26d03251981f5f27a3e6decbc4a");
    ("SPEC2000/perlbmk/splitmail.535", "a6bf2ff4ce2dee24a268a38986b84364");
    ("SPEC2000/perlbmk/splitmail.704", "9a992644dc2478ae593b99a156e78de3");
    ("SPEC2000/perlbmk/splitmail.850", "10b744b10aa71ab7c6785db2ada0d168");
    ("SPEC2000/perlbmk/splitmail.957", "9432c47123361858dc9895674f728490");
    ("SPEC2000/perlbmk/diffmail", "64aaa079fdba952f05a18f3a5334339f");
    ("SPEC2000/perlbmk/makerand", "f344fd558e96c6b38110f144cb6c91bf");
    ("SPEC2000/perlbmk/perfect", "b5f442d94b082f40ec4f1a5ff0b41b70");
    ("SPEC2000/twolf/ref", "bd3012195f996d21dbbe2e810625cc5d");
    ("SPEC2000/vortex/ref1", "5ccce061c30b9062abc51c667e1f8398");
    ("SPEC2000/vortex/ref2", "839ffeb9acd2b2fd096c5724bc2fc779");
    ("SPEC2000/vortex/ref3", "2eee2dc9f32080086906e4d73e8b5154");
    ("SPEC2000/vpr/place", "cf615ff9a1d5a453925cd35cd971e2b5");
    ("SPEC2000/vpr/route", "8f85b60c21c77aed83213bf1a9edb1fe");
    ("SPEC2000/ammp/ref", "f6d85d6a5a2b82a2a05a80b7dc0cd1cf");
    ("SPEC2000/applu/ref", "f4c8c293c5a3bd928e8d5707e377d54c");
    ("SPEC2000/apsi/ref", "f340445121478fd493cff5c2cb09332d");
    ("SPEC2000/art/ref-110", "9c2dc6f6e80b62719795e807b2877815");
    ("SPEC2000/art/ref-470", "ac929d582c451c1217392a95ca92b365");
    ("SPEC2000/equake/ref", "7ccd74f221969608ca232e7fd2d782d5");
    ("SPEC2000/facerec/ref", "eb48d91901eaa422b24bc176c7e35cad");
    ("SPEC2000/fma3d/ref", "14d6b7142f30db1688745feb68476773");
    ("SPEC2000/galgel/ref", "e66218b6ec298b75c0a4dc8db2220307");
    ("SPEC2000/lucas/ref", "367ae707e0c18d5a8e868f08cece0680");
    ("SPEC2000/mesa/ref", "ca9ff1eac2ef33360de3ba7b116ad80b");
    ("SPEC2000/mgrid/ref", "797907693cfc21a6817e5772f6c0ed35");
    ("SPEC2000/sixtrack/ref", "2cbe12cfbc81665a4ed27ad47fca9830");
    ("SPEC2000/swim/ref", "d089a34be14eff8d7f8acd1f310d92be");
    ("SPEC2000/wupwise/ref", "055e770241a3f10de72a0dec0ae6d62f");
  ]

let golden_traces_gen =
  [
    ("gen/analytics/02612-1bc4a4f0", "fe84a847a8c9f45b4d06de4493a17d12");
    ("gen/analytics/40328-b1a99826", "542d75a22e8f37195afab50f6290f3d0");
    ("gen/kv/54635-052b95b9", "17c5f19cb95f60ddbe01fd2ffd4fd39e");
    ("gen/kv/95370-70366e50", "806b656b5037cd9fae73dd3677c2011d");
    ("gen/media/10054-748f4187", "1d3e0413a5cbe928f515a2de9a49f601");
    ("gen/media/94879-7a94b822", "7224fd9cacdd3c079e908bc14a0b8f37");
  ]

let golden_traces_fuzz =
  [
    ("fuzz seed 0", "a804526fd4b04e475505e8515feb7875");
    ("fuzz seed 1", "d2e11cbeac8a9742a24704132a936c29");
    ("fuzz seed 2", "f1fb385dd26cd7ac451b0fc608945c9e");
    ("fuzz seed 3", "b617639ed4964d51ad46d50e314cff79");
    ("fuzz seed 4", "51bbe35c3e14089a0014189719be3aa4");
    ("fuzz seed 5", "806816057d9212dad47a1327421e07a3");
    ("fuzz seed 6", "3c9d769863fd082ba297af7e38859e6d");
    ("fuzz seed 7", "fae91f2c05af5a8839a6dd1d4f689f0c");
    ("fuzz seed 8", "8f8fc43de035ce6a9dd341fe60a67d15");
    ("fuzz seed 9", "efd2c14fa1bd729dc0ff138aaf411e77");
  ]

let test_trace_digests programs pinned () =
  let programs = programs () in
  let drifted =
    List.filter_map
      (fun (id, program) ->
        let got = trace_digest program in
        match List.assoc_opt id pinned with
        | Some want when want = got -> None
        | _ -> Some (Printf.sprintf "(%S, %S);" id got))
      programs
  in
  if drifted <> [] then
    Alcotest.failf "%d trace(s) drifted from their pinned digest:\n%s" (List.length drifted)
      (String.concat "\n" drifted);
  Alcotest.(check int) "trace count" (List.length pinned) (List.length programs)

let suite =
  ( "golden",
    [
      Alcotest.test_case "trace digests: registry" `Quick
        (test_trace_digests
           (fun () -> workload_programs Mica_workloads.Registry.all)
           golden_traces_registry);
      Alcotest.test_case "trace digests: gen families" `Quick
        (test_trace_digests (fun () -> workload_programs (gen_members ())) golden_traces_gen);
      Alcotest.test_case "trace digests: fuzz specs" `Quick
        (test_trace_digests fuzz_programs golden_traces_fuzz);
    ]
    @ List.map
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
        [ 1; 4 ]
    @ List.map
        (fun jobs ->
          Alcotest.test_case
            (Printf.sprintf "pinned Fig 4 ROC on baseline datasets (jobs %d)" jobs)
            `Quick (test_fig4_golden jobs))
        [ 1; 4 ] )
