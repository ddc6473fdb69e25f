(* Test entry point: aggregates the per-layer suites. *)

let () =
  Alcotest.run "mica"
    [
      T_rng.suite;
      T_util.suite;
      T_obs.suite;
      T_isa.suite;
      T_trace.suite;
      T_analysis.suite;
      T_uarch.suite;
      T_fleet.suite;
      T_stats.suite;
      T_select.suite;
      T_workloads.suite;
      T_core.suite;
      T_extensions.suite;
      T_families.suite;
      T_fuzz.suite;
      T_verify.suite;
      T_run.suite;
      T_golden.suite;
      T_scale.suite;
      T_sketch.suite;
      T_serve.suite;
      T_wire.suite;
      T_artifact.suite;
      T_mutation.suite;
      T_interface.suite;
    ]
