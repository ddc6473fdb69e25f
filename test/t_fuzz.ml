(* Fuzzing: random (valid) kernel specs and programs driven through the
   whole stack — generation, analysis, machine models, serialization.
   These tests assert invariants, not values: well-formed streams, exact
   instruction counts, bounded probabilities, and format round-trips. *)

module K = Mica_trace.Kernel
module P = Mica_trace.Program
module G = Mica_trace.Generator
module A = Mica_analysis
module W = Mica_workloads

open QCheck2

(* ---------------- random spec generator ---------------- *)

let mem_pattern_gen =
  Gen.oneof
    [
      Gen.return K.Fixed;
      Gen.map (fun s -> K.Seq { stride = s }) (Gen.oneofl [ 1; 4; 8; 16 ]);
      Gen.map (fun s -> K.Strided { stride = s }) (Gen.oneofl [ 256; 1024; 4096 ]);
      Gen.return K.Random;
      Gen.return K.Chase;
    ]

let branch_kind_gen =
  Gen.oneof
    [
      Gen.map (fun p -> K.Loop_like { period = p }) (Gen.int_range 2 64);
      Gen.map2
        (fun p t -> K.Periodic { period = p; taken_in_period = min t p })
        (Gen.int_range 2 16) (Gen.int_range 0 16);
      Gen.map (fun p -> K.Biased { taken_prob = p }) (Gen.float_range 0.0 1.0);
      Gen.map (fun d -> K.History { depth = d }) (Gen.int_range 1 8);
    ]

let weighted_list_gen ?(max_len = 3) elem =
  Gen.list_size (Gen.int_range 1 max_len)
    (Gen.map2 (fun w e -> (0.05 +. w, e)) (Gen.float_range 0.0 1.0) elem)

let spec_gen =
  let open Gen in
  let* body = int_range 4 64 in
  let* load = float_range 0.0 0.35 in
  let* store = float_range 0.0 0.2 in
  let* branch = float_range 0.0 0.2 in
  let* fp = float_range 0.0 0.2 in
  let* data_kb = oneofl [ 1; 16; 256; 4096 ] in
  let* trip = int_range 1 128 in
  let* dep_p = float_range 0.05 1.0 in
  let* carried = float_range 0.0 1.0 in
  let* hot = float_range 0.0 1.0 in
  let* imm = float_range 0.0 1.0 in
  let* skip = int_range 0 6 in
  let* helper_instrs = oneofl [ 0; 64; 1024 ] in
  let* loads = weighted_list_gen mem_pattern_gen in
  let* stores = weighted_list_gen mem_pattern_gen in
  let* branches = weighted_list_gen branch_kind_gen in
  let* name_tag = int_range 0 100_000 in
  return
    {
      K.default with
      K.name = Printf.sprintf "fuzz-%d" name_tag;
      body_slots = body;
      mix = { K.load; store; branch; int_mul = 0.01; fp };
      load_patterns = loads;
      store_patterns = stores;
      branch_kinds = branches;
      data_bytes = data_kb * 1024;
      helper_instrs;
      helper_regions = (if helper_instrs = 0 then 0 else 2);
      trip_count = trip;
      dep_geom_p = dep_p;
      loop_carried_frac = carried;
      hot_value_frac = hot;
      imm_frac = imm;
      branch_skip_max = skip;
    }

let program_of_spec spec = P.single ~name:(spec.K.name ^ "/prog") spec

(* ---------------- properties ---------------- *)

let prop_spec_valid =
  Tutil.qcheck_case ~count:100 "random specs validate" spec_gen (fun spec ->
      K.validate spec = Ok ())

let prop_generator_runs_exact =
  Tutil.qcheck_case ~count:60 "generator emits exactly icount on random specs" spec_gen
    (fun spec ->
      let sink, read = Mica_trace.Sink.counter () in
      let n = G.run (program_of_spec spec) ~icount:2_000 ~sink in
      n = 2_000 && read () = 2_000)

let prop_stream_well_formed =
  Tutil.qcheck_case ~count:40 "random streams are well-formed" spec_gen (fun spec ->
      let instrs = G.preview (program_of_spec spec) ~n:1_500 in
      List.for_all
        (fun (i : Mica_isa.Instr.t) ->
          i.Mica_isa.Instr.pc > 0
          && ((not (Mica_isa.Opcode.is_mem i.Mica_isa.Instr.op))
             || i.Mica_isa.Instr.addr > 0))
        instrs)

let prop_control_flow_chains =
  Tutil.qcheck_case ~count:30 "pc chain holds on random specs" spec_gen (fun spec ->
      let instrs = Array.of_list (G.preview (program_of_spec spec) ~n:1_000) in
      let ok = ref true in
      for i = 0 to Array.length instrs - 2 do
        if Mica_isa.Instr.next_pc instrs.(i) <> instrs.(i + 1).Mica_isa.Instr.pc then ok := false
      done;
      !ok)

let prop_analysis_bounded =
  Tutil.qcheck_case ~count:25 "analysis probabilities bounded on random specs" spec_gen
    (fun spec ->
      let v = A.Analyzer.analyze (program_of_spec spec) ~icount:2_000 in
      let prob_idx =
        List.concat
          [ List.init 6 Fun.id; List.init 7 (fun i -> 12 + i); List.init 20 (fun i -> 23 + i);
            List.init 4 (fun i -> 43 + i) ]
      in
      List.for_all (fun i -> v.(i) >= -1e-9 && v.(i) <= 1.0 +. 1e-9) prob_idx
      && Array.for_all (fun x -> not (Float.is_nan x)) v)

let prop_machines_bounded =
  Tutil.qcheck_case ~count:15 "machine metrics bounded on random specs" spec_gen (fun spec ->
      let p = program_of_spec spec in
      List.for_all
        (fun cfg ->
          let r = Mica_uarch.Machine.measure cfg p ~icount:2_000 in
          r.Mica_uarch.Machine.ipc > 0.0
          && r.Mica_uarch.Machine.l1d_miss_rate >= 0.0
          && r.Mica_uarch.Machine.l1d_miss_rate <= 1.0)
        (Mica_uarch.Machine_desc.presets ()))

let prop_trace_roundtrip =
  Tutil.qcheck_case ~count:20 "binary trace roundtrip on random specs" spec_gen (fun spec ->
      let p = program_of_spec spec in
      let path = Filename.temp_file "mica_fuzz" ".bin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          ignore (Mica_trace.Trace_io.write_binary ~path p ~icount:500 : int);
          let sink, read = Mica_trace.Sink.collect ~limit:500 () in
          ignore (Mica_trace.Trace_io.replay_binary ~path ~sink : int);
          read () = G.preview p ~n:500))

let prop_spec_file_fixpoint =
  Tutil.qcheck_case ~count:40 "spec text printing reaches a fixpoint" spec_gen (fun spec ->
      let p = program_of_spec spec in
      let text1 = W.Spec_file.to_text p in
      match W.Spec_file.parse text1 with
      | Error _ -> false
      | Ok p2 ->
        let text2 = W.Spec_file.to_text p2 in
        text1 = text2
        && p2.P.name = p.P.name
        && p2.P.seed = p.P.seed
        && List.length (P.kernels p2) = List.length (P.kernels p))

(* ---------------- branch stats (deterministic cases) ---------------- *)

let test_branch_stats_exact () =
  let t = A.Branch_stats.create () in
  Tutil.run_sink (A.Branch_stats.sink t)
    [
      Tutil.branch ~pc:0x100 ~taken:true ();
      Tutil.branch ~pc:0x100 ~taken:false ();
      Tutil.branch ~pc:0x100 ~taken:true ();
      Tutil.branch ~pc:0x200 ~taken:true ();
      Tutil.branch ~pc:0x200 ~taken:true ();
      Tutil.alu ();
    ];
  let r = A.Branch_stats.result t in
  Alcotest.(check int) "5 branches" 5 r.A.Branch_stats.conditional_branches;
  Alcotest.(check int) "2 static" 2 r.A.Branch_stats.static_branches;
  Alcotest.check Tutil.feq "taken rate" 0.8 r.A.Branch_stats.taken_rate;
  (* transitions: pc 0x100: T->N, N->T (2 of 2); pc 0x200: T->T (0 of 1) *)
  Alcotest.check Tutil.feq "transition rate" (2.0 /. 3.0) r.A.Branch_stats.transition_rate;
  (* bias: 0x100 at 2/3 taken (not biased), 0x200 at 100% (biased) *)
  Alcotest.check Tutil.feq "biased fraction" 0.5 r.A.Branch_stats.biased_static_fraction

let test_branch_stats_alternating_vs_constant () =
  let measure outcomes =
    let t = A.Branch_stats.create () in
    List.iteri
      (fun i taken ->
        Tutil.push_one (A.Branch_stats.sink t) (Tutil.branch ~pc:0x100 ~taken ());
        ignore i)
      outcomes;
    (A.Branch_stats.result t).A.Branch_stats.transition_rate
  in
  Alcotest.check Tutil.feq "constant: no transitions" 0.0
    (measure (List.init 100 (fun _ -> true)));
  Alcotest.check Tutil.feq "alternating: all transitions" 1.0
    (measure (List.init 100 (fun i -> i mod 2 = 0)))

(* ---------------- fault-injection matrix ---------------- *)

module Fault = Mica_util.Fault
module Pipeline = Mica_core.Pipeline
module Run_report = Mica_core.Run_report
module Dataset = Mica_core.Dataset

let fault_trio () =
  List.map W.Registry.find_exn
    [ "MiBench/sha/large"; "SPEC2000/mcf/ref"; "SPEC2000/swim/ref" ]

let fault_config ?(jobs = 2) ?(retries = 0) dir =
  {
    Pipeline.default_config with
    Pipeline.icount = 1_500;
    cache_dir = dir;
    progress = false;
    jobs;
    retries;
  }

(* Seeded sweep over every injection point and several retry budgets:
   (a) a no-fault supervised run is bit-identical to the unsupervised
       baseline,
   (b) an injected fault never corrupts *other* workloads' results — every
       row a faulted run does produce equals the baseline row exactly,
   (c) exhausted attempt budgets surface in [Run_report.t] with the whole
       budget consumed, and the same plan replayed gives the same report
       (the injection is deterministic). *)
let test_fault_matrix () =
  let trio = fault_trio () in
  let ids = List.map W.Workload.id trio in
  let baseline =
    let mica, hpc = Pipeline.datasets ~config:(fault_config ~jobs:1 None) trio in
    fun id ->
      (Dataset.row_exn mica id, Dataset.row_exn hpc id)
  in
  (* (a) no plan installed: supervised = baseline, rows in request order *)
  Tutil.with_temp_dir (fun dir ->
      let mica, hpc, report = Pipeline.datasets_report ~config:(fault_config (Some dir)) trio in
      Alcotest.(check bool) "no-fault run all ok" true (Run_report.all_ok report);
      List.iteri
        (fun i id ->
          let bm, bh = baseline id in
          if Dataset.row_exn mica id <> bm || Dataset.row_exn hpc id <> bh then
            Alcotest.failf "no-fault row %d (%s) differs from baseline" i id)
        ids);
  (* (b)/(c) the matrix *)
  List.iter
    (fun point ->
      List.iter
        (fun retries ->
          let spec = Printf.sprintf "seed=41,%s=0.35" (Fault.point_name point) in
          let run () =
            Tutil.with_temp_dir (fun dir ->
                Fault.with_plan
                  (Some
                     (match Fault.parse spec with
                     | Ok p -> p
                     | Error e -> Alcotest.failf "bad spec %s: %s" spec e))
                  (fun () ->
                    let mica, _, report =
                      Pipeline.datasets_report ~config:(fault_config ~retries (Some dir)) trio
                    in
                    let statuses =
                      List.map
                        (fun (e : Run_report.entry) ->
                          match e.Run_report.status with
                          | Run_report.Computed { attempts } -> (e.Run_report.id, `Ok attempts)
                          | Run_report.Cached -> (e.Run_report.id, `Cached)
                          | Run_report.Resumed -> (e.Run_report.id, `Resumed)
                          | Run_report.Failed { attempts; _ } -> (e.Run_report.id, `Failed attempts))
                        (Run_report.entries report)
                    in
                    let rows =
                      List.filter_map
                        (fun id ->
                          if Dataset.row_index mica id <> None then
                            Some (id, Dataset.row_exn mica id)
                          else None)
                        ids
                    in
                    (statuses, rows)))
          in
          let statuses, rows = run () in
          (* no fault may corrupt a produced row *)
          List.iter
            (fun (id, row) ->
              let bm, _ = baseline id in
              if row <> bm then
                Alcotest.failf "%s retries=%d: surviving row %s corrupted" spec retries id)
            rows;
          (* failures consumed their whole budget and are reported *)
          List.iter
            (fun (id, st) ->
              match st with
              | `Failed attempts ->
                if attempts <> retries + 1 then
                  Alcotest.failf "%s retries=%d: %s failed with %d attempts" spec retries id
                    attempts;
                if List.mem_assoc id rows then
                  Alcotest.failf "%s: failed workload %s still has a row" spec id
              | `Ok _ | `Cached | `Resumed -> ())
            statuses;
          (* cache and crash faults are fully absorbed by recovery *)
          (match point with
          | Fault.Cache_read | Fault.Cache_write | Fault.Pool_crash ->
            List.iter
              (fun (id, st) ->
                match st with
                | `Failed _ -> Alcotest.failf "%s: %s failed but the point is recoverable" spec id
                | _ -> ())
              statuses
          | Fault.Trace_gen | Fault.Analyzer_chunk | Fault.Pool_worker -> ());
          (* (c) determinism: the same plan replays to the same outcome *)
          let statuses2, rows2 = run () in
          if statuses <> statuses2 || rows <> rows2 then
            Alcotest.failf "%s retries=%d: fault injection not deterministic" spec retries)
        [ 0; 2 ])
    Fault.all_points

let suite =
  ( "fuzz",
    [
      prop_spec_valid;
      prop_generator_runs_exact;
      prop_stream_well_formed;
      prop_control_flow_chains;
      prop_analysis_bounded;
      prop_machines_bounded;
      prop_trace_roundtrip;
      prop_spec_file_fixpoint;
      Alcotest.test_case "branch stats exact" `Quick test_branch_stats_exact;
      Alcotest.test_case "branch stats transition" `Quick
        test_branch_stats_alternating_vs_constant;
      Alcotest.test_case "fault matrix sweep" `Quick test_fault_matrix;
    ] )
