module K = Mica_trace.Kernel
module P = Mica_trace.Program

let kernel ~name ?body ?mix ?loads ?stores ?data_kb ?code ?regions ?call_prob ?trip ?dep_p
    ?carried ?hot ?branches ?skip ?fp_mul ?fp_div () =
  let d = K.default in
  let value v default = Option.value v ~default in
  {
    d with
    K.name;
    body_slots = value body d.K.body_slots;
    mix = value mix d.K.mix;
    load_patterns = value loads d.K.load_patterns;
    store_patterns = value stores d.K.store_patterns;
    data_bytes = (match data_kb with Some kb -> kb * 1024 | None -> d.K.data_bytes);
    helper_instrs = value code d.K.helper_instrs;
    helper_regions = value regions d.K.helper_regions;
    helper_call_prob = value call_prob d.K.helper_call_prob;
    trip_count = value trip d.K.trip_count;
    dep_geom_p = value dep_p d.K.dep_geom_p;
    loop_carried_frac = value carried d.K.loop_carried_frac;
    hot_value_frac = value hot d.K.hot_value_frac;
    branch_kinds = value branches d.K.branch_kinds;
    branch_skip_max = value skip d.K.branch_skip_max;
    fp_mul_frac = value fp_mul d.K.fp_mul_frac;
    fp_div_frac = value fp_div d.K.fp_div_frac;
  }

let program ~name phases =
  P.make ~name
    (List.mapi
       (fun i kernels ->
         { P.ph_name = Printf.sprintf "phase%d" i; ph_kernels = kernels; ph_length = 50_000 })
       phases)

let single ~name spec = program ~name [ [ (1.0, spec) ] ]

let mix ?(load = 0.25) ?(store = 0.10) ?(branch = 0.10) ?(imul = 0.01) ?(fp = 0.0) () =
  { K.load; store; branch; int_mul = imul; fp }

(* Branch mixtures *)
let predictable = [ (1.0, K.Loop_like { period = 16 }) ]

let mostly_predictable =
  [ (0.8, K.Loop_like { period = 16 }); (0.2, K.Periodic { period = 8; taken_in_period = 6 }) ]

(* "Data-dependent" control: a minority of genuinely hard branches (around
   the given bias), a skewed early-exit test, regular loop exits, and a
   history-correlated branch — the profile of compression/search codes. *)
let data_dependent bias =
  [
    (0.25, K.Biased { taken_prob = bias });
    (0.20, K.Biased { taken_prob = 0.85 });
    (0.45, K.Loop_like { period = 16 });
    (0.10, K.History { depth = 4 });
  ]

let irregular bias =
  [
    (0.35, K.Biased { taken_prob = bias });
    (0.20, K.Biased { taken_prob = 0.2 });
    (0.35, K.Loop_like { period = 12 });
    (0.10, K.History { depth = 6 });
  ]

(* ------------------------------------------------------------------ *)

let tiny_dsp_loop ~name ?(data_kb = 8) ?(fp = 0.0) ?(stride = 4) () =
  single ~name
    (kernel ~name ~body:20
       ~mix:(mix ~load:0.22 ~store:0.12 ~branch:0.08 ~fp ())
       ~loads:[ (0.85, K.Seq { stride }); (0.15, K.Fixed) ]
       ~stores:[ (0.9, K.Seq { stride }); (0.1, K.Fixed) ]
       ~data_kb ~code:96 ~regions:1 ~call_prob:0.01 ~trip:256 ~dep_p:0.5 ~carried:0.15
       ~branches:predictable ())

let dsp_transform ~name ?(data_kb = 256) ?(fp = 0.30) ?(stride = 64) () =
  let butterfly =
    kernel ~name:(name ^ ".butterfly") ~body:32
      ~mix:(mix ~load:0.28 ~store:0.14 ~branch:0.06 ~fp ())
      ~loads:[ (0.5, K.Seq { stride = 8 }); (0.5, K.Strided { stride }) ]
      ~stores:[ (0.5, K.Seq { stride = 8 }); (0.5, K.Strided { stride }) ]
      ~data_kb ~code:384 ~regions:3 ~call_prob:0.04 ~trip:64 ~dep_p:0.25 ~carried:0.04
      ~branches:mostly_predictable ~fp_mul:0.5 ()
  in
  let twiddle =
    kernel ~name:(name ^ ".twiddle") ~body:24
      ~mix:(mix ~load:0.30 ~store:0.08 ~branch:0.08 ~fp:(fp *. 0.8) ())
      ~loads:[ (0.6, K.Fixed); (0.4, K.Seq { stride = 8 }) ]
      ~data_kb:(max 4 (data_kb / 16))
      ~code:128 ~regions:1 ~trip:128 ~branches:predictable ~fp_mul:0.45 ()
  in
  program ~name [ [ (0.75, butterfly); (0.25, twiddle) ] ]

let block_codec ~name ?(data_kb = 768) ?(imul = 0.06) ?(row_stride = 1024) () =
  let block =
    kernel ~name:(name ^ ".block") ~body:40
      ~mix:(mix ~load:0.26 ~store:0.12 ~branch:0.07 ~imul ())
      ~loads:[ (0.45, K.Seq { stride = 4 }); (0.35, K.Strided { stride = row_stride }); (0.2, K.Fixed) ]
      ~stores:[ (0.6, K.Seq { stride = 4 }); (0.4, K.Strided { stride = row_stride }) ]
      ~data_kb ~code:768 ~regions:4 ~call_prob:0.06 ~trip:64 ~dep_p:0.35
      ~branches:mostly_predictable ()
  in
  let entropy =
    kernel ~name:(name ^ ".entropy") ~body:24
      ~mix:(mix ~load:0.28 ~store:0.10 ~branch:0.14 ())
      ~loads:[ (0.5, K.Random); (0.5, K.Seq { stride = 1 }) ]
      ~stores:[ (0.9, K.Seq { stride = 1 }); (0.1, K.Fixed) ]
      ~data_kb:(max 8 (data_kb / 24))
      ~code:256 ~regions:2 ~trip:32 ~branches:(data_dependent 0.45) ()
  in
  program ~name [ [ (0.7, block); (0.3, entropy) ] ]

let bitstream_codec ~name ?(data_kb = 1024) ?(table_kb = 64) ?(branch_bias = 0.45) () =
  let stream =
    kernel ~name:(name ^ ".stream") ~body:28
      ~mix:(mix ~load:0.27 ~store:0.11 ~branch:0.16 ())
      ~loads:[ (0.45, K.Seq { stride = 1 }); (0.45, K.Random); (0.10, K.Fixed) ]
      ~stores:[ (0.7, K.Seq { stride = 1 }); (0.3, K.Random) ]
      ~data_kb:table_kb ~code:512 ~regions:3 ~call_prob:0.05 ~trip:24 ~dep_p:0.5 ~carried:0.10
      ~branches:(data_dependent branch_bias) ~skip:3 ()
  in
  let model_update =
    kernel ~name:(name ^ ".model") ~body:20
      ~mix:(mix ~load:0.30 ~store:0.15 ~branch:0.12 ())
      ~loads:[ (0.8, K.Random); (0.2, K.Fixed) ]
      ~stores:[ (0.8, K.Random); (0.2, K.Fixed) ]
      ~data_kb ~code:256 ~regions:2 ~trip:16 ~branches:(irregular 0.5) ()
  in
  program ~name [ [ (0.65, stream); (0.35, model_update) ] ]

let table_crypto ~name ?(table_kb = 8) () =
  single ~name
    (kernel ~name ~body:32
       ~mix:(mix ~load:0.30 ~store:0.08 ~branch:0.05 ())
       ~loads:[ (0.7, K.Random); (0.2, K.Seq { stride = 4 }); (0.1, K.Fixed) ]
       ~stores:[ (0.8, K.Seq { stride = 4 }); (0.2, K.Fixed) ]
       ~data_kb:table_kb ~code:160 ~regions:1 ~call_prob:0.02 ~trip:128 ~dep_p:0.45
       ~carried:0.08 ~branches:predictable ())

let pointer_network ~name ?(data_kb = 512) ?(chase = 0.35) ?(branch_bias = 0.5) () =
  single ~name
    (kernel ~name ~body:26
       ~mix:(mix ~load:0.32 ~store:0.10 ~branch:0.15 ())
       ~loads:
         [ (chase, K.Chase); (0.35, K.Random); (Float.max 0.05 (0.65 -. chase), K.Seq { stride = 8 }) ]
       ~stores:[ (0.5, K.Random); (0.5, K.Fixed) ]
       ~data_kb ~code:640 ~regions:4 ~call_prob:0.08 ~trip:12 ~dep_p:0.45
       ~branches:(irregular branch_bias) ~skip:4 ())

let graph_optimizer ~name ?(data_mb = 32) ?(chase = 0.5) () =
  single ~name
    (kernel ~name ~body:24
       ~mix:(mix ~load:0.34 ~store:0.08 ~branch:0.12 ())
       ~loads:[ (chase, K.Chase); (1.0 -. chase, K.Random) ]
       ~stores:[ (0.7, K.Random); (0.3, K.Fixed) ]
       ~data_kb:(data_mb * 1024)
       ~code:512 ~regions:3 ~call_prob:0.04 ~trip:20 ~dep_p:0.5 ~carried:0.12
       ~branches:(irregular 0.45) ())

let interpreter ~name ?(data_mb = 8) ?(code_k = 12) ?(branch_bias = 0.5) () =
  let dispatch =
    kernel ~name:(name ^ ".dispatch") ~body:30
      ~mix:(mix ~load:0.28 ~store:0.12 ~branch:0.17 ())
      ~loads:[ (0.4, K.Random); (0.3, K.Chase); (0.3, K.Fixed) ]
      ~stores:[ (0.6, K.Random); (0.4, K.Fixed) ]
      ~data_kb:(data_mb * 1024)
      ~code:(code_k * 1024 / 2)
      ~regions:24 ~call_prob:0.25 ~trip:6 ~dep_p:0.45
      ~branches:(data_dependent branch_bias) ~skip:5 ()
  in
  let analysis =
    kernel ~name:(name ^ ".analysis") ~body:36
      ~mix:(mix ~load:0.25 ~store:0.10 ~branch:0.13 ())
      ~loads:[ (0.5, K.Random); (0.5, K.Seq { stride = 8 }) ]
      ~stores:[ (0.7, K.Seq { stride = 8 }); (0.3, K.Random) ]
      ~data_kb:(data_mb * 512)
      ~code:(code_k * 1024 / 2)
      ~regions:16 ~call_prob:0.18 ~trip:10 ~branches:(data_dependent (branch_bias +. 0.05)) ()
  in
  program ~name [ [ (0.6, dispatch); (0.4, analysis) ]; [ (0.3, dispatch); (0.7, analysis) ] ]

let oo_database ~name ?(data_mb = 12) () =
  single ~name
    (kernel ~name ~body:32
       ~mix:(mix ~load:0.30 ~store:0.13 ~branch:0.12 ())
       ~loads:[ (0.35, K.Chase); (0.40, K.Random); (0.25, K.Seq { stride = 8 }) ]
       ~stores:[ (0.5, K.Random); (0.5, K.Seq { stride = 8 }) ]
       ~data_kb:(data_mb * 1024)
       ~code:6144 ~regions:20 ~call_prob:0.20 ~trip:8 ~branches:(data_dependent 0.55) ())

let fp_stencil ~name ?(data_mb = 16) ?(fp = 0.38) ?(stride = 2048) () =
  single ~name
    (kernel ~name ~body:48
       ~mix:(mix ~load:0.30 ~store:0.12 ~branch:0.03 ~fp ())
       ~loads:[ (0.6, K.Seq { stride = 8 }); (0.4, K.Strided { stride }) ]
       ~stores:[ (0.7, K.Seq { stride = 8 }); (0.3, K.Strided { stride }) ]
       ~data_kb:(data_mb * 1024)
       ~code:256 ~regions:2 ~call_prob:0.02 ~trip:200 ~dep_p:0.2 ~carried:0.02
       ~branches:predictable ~fp_mul:0.45 ~fp_div:0.01 ())

let fp_dense ~name ?(data_kb = 2048) ?(fp = 0.35) ?(div = 0.02) () =
  let gemm =
    kernel ~name:(name ^ ".gemm") ~body:40
      ~mix:(mix ~load:0.28 ~store:0.08 ~branch:0.04 ~fp ())
      ~loads:[ (0.55, K.Seq { stride = 8 }); (0.45, K.Strided { stride = 512 }) ]
      ~stores:[ (0.9, K.Seq { stride = 8 }); (0.1, K.Fixed) ]
      ~data_kb ~code:320 ~regions:2 ~call_prob:0.03 ~trip:96 ~dep_p:0.22 ~carried:0.03
      ~branches:predictable ~fp_mul:0.5 ~fp_div:div ()
  in
  let reduce =
    kernel ~name:(name ^ ".reduce") ~body:20
      ~mix:(mix ~load:0.30 ~store:0.05 ~branch:0.06 ~fp:(fp *. 0.9) ())
      ~loads:[ (0.9, K.Seq { stride = 8 }); (0.1, K.Fixed) ]
      ~data_kb ~code:128 ~regions:1 ~trip:128 ~carried:0.30 ~branches:predictable
      ~fp_mul:0.4 ()
  in
  program ~name [ [ (0.8, gemm); (0.2, reduce) ] ]

let fp_stream ~name ?(data_mb = 4) () =
  single ~name
    (kernel ~name ~body:28
       ~mix:(mix ~load:0.32 ~store:0.06 ~branch:0.07 ~fp:0.34 ())
       ~loads:[ (0.95, K.Seq { stride = 8 }); (0.05, K.Fixed) ]
       ~stores:[ (0.9, K.Seq { stride = 8 }); (0.1, K.Fixed) ]
       ~data_kb:(data_mb * 1024)
       ~code:128 ~regions:1 ~call_prob:0.01 ~trip:512 ~dep_p:0.3 ~carried:0.20
       ~branches:predictable ~fp_mul:0.45 ())

let seq_search ~name ?(data_mb = 64) ?(hit_bias = 0.3) () =
  let scan =
    kernel ~name:(name ^ ".scan") ~body:24
      ~mix:(mix ~load:0.33 ~store:0.04 ~branch:0.15 ())
      ~loads:[ (0.7, K.Seq { stride = 4 }); (0.3, K.Random) ]
      ~stores:[ (1.0, K.Fixed) ]
      ~data_kb:(data_mb * 1024)
      ~code:512 ~regions:3 ~call_prob:0.05 ~trip:96 ~dep_p:0.45
      ~branches:[ (0.6, K.Biased { taken_prob = hit_bias }); (0.4, K.Loop_like { period = 16 }) ]
      ~skip:3 ()
  in
  let extend =
    kernel ~name:(name ^ ".extend") ~body:30
      ~mix:(mix ~load:0.28 ~store:0.10 ~branch:0.12 ())
      ~loads:[ (0.5, K.Random); (0.5, K.Seq { stride = 4 }) ]
      ~stores:[ (0.6, K.Seq { stride = 4 }); (0.4, K.Random) ]
      ~data_kb:(data_mb * 256)
      ~code:384 ~regions:2 ~trip:24 ~branches:(data_dependent 0.4) ()
  in
  program ~name [ [ (0.7, scan); (0.3, extend) ] ]

let dynamic_prog ~name ?(data_kb = 4096) ?(fp = 0.0) ?(carried = 0.25) () =
  single ~name
    (kernel ~name ~body:36
       ~mix:(mix ~load:0.30 ~store:0.12 ~branch:0.06 ~fp ())
       ~loads:
         [ (0.4, K.Seq { stride = 4 }); (0.4, K.Strided { stride = 2048 }); (0.2, K.Fixed) ]
       ~stores:[ (0.8, K.Seq { stride = 4 }); (0.2, K.Strided { stride = 2048 }) ]
       ~data_kb ~code:384 ~regions:2 ~call_prob:0.03 ~trip:128 ~dep_p:0.4 ~carried
       ~branches:mostly_predictable ~fp_mul:0.4 ())

let tree_search ~name ?(data_kb = 8192) ?(fp = 0.0) () =
  single ~name
    (kernel ~name ~body:28
       ~mix:(mix ~load:0.31 ~store:0.09 ~branch:0.14 ~fp ())
       ~loads:[ (0.45, K.Chase); (0.35, K.Random); (0.20, K.Fixed) ]
       ~stores:[ (0.6, K.Random); (0.4, K.Fixed) ]
       ~data_kb ~code:896 ~regions:5 ~call_prob:0.12 ~trip:10 ~dep_p:0.45 ~carried:0.10
       ~branches:(irregular 0.48) ~skip:4 ~fp_mul:0.4 ~fp_div:0.05 ())

let sort_kernel ~name ?(data_kb = 2048) () =
  single ~name
    (kernel ~name ~body:22
       ~mix:(mix ~load:0.30 ~store:0.14 ~branch:0.16 ())
       ~loads:[ (0.5, K.Random); (0.5, K.Seq { stride = 8 }) ]
       ~stores:[ (0.5, K.Random); (0.5, K.Seq { stride = 8 }) ]
       ~data_kb ~code:192 ~regions:1 ~call_prob:0.06 ~trip:20 ~dep_p:0.5
       ~branches:(irregular 0.5) ~skip:2 ())

let bit_kernel ~name ?(data_kb = 4) () =
  single ~name
    (kernel ~name ~body:18
       ~mix:(mix ~load:0.10 ~store:0.04 ~branch:0.10 ~imul:0.03 ())
       ~loads:[ (0.6, K.Fixed); (0.4, K.Seq { stride = 4 }) ]
       ~stores:[ (1.0, K.Fixed) ]
       ~data_kb ~code:128 ~regions:1 ~call_prob:0.02 ~trip:192 ~dep_p:0.55 ~carried:0.20
       ~branches:mostly_predictable ())

let speech_synth ~name ?(data_kb = 512) ?(fp = 0.22) () =
  single ~name
    (kernel ~name ~body:30
       ~mix:(mix ~load:0.28 ~store:0.10 ~branch:0.10 ~fp ())
       ~loads:[ (0.4, K.Seq { stride = 8 }); (0.35, K.Random); (0.25, K.Fixed) ]
       ~stores:[ (0.7, K.Seq { stride = 8 }); (0.3, K.Fixed) ]
       ~data_kb ~code:1024 ~regions:6 ~call_prob:0.10 ~trip:48 ~dep_p:0.35 ~carried:0.12
       ~branches:(data_dependent 0.55) ~fp_mul:0.45 ())

let raytracer ~name ?(data_mb = 6) () =
  single ~name
    (kernel ~name ~body:44
       ~mix:(mix ~load:0.27 ~store:0.08 ~branch:0.11 ~fp:0.28 ())
       ~loads:[ (0.3, K.Chase); (0.4, K.Random); (0.3, K.Seq { stride = 8 }) ]
       ~stores:[ (0.6, K.Random); (0.4, K.Seq { stride = 8 }) ]
       ~data_kb:(data_mb * 1024)
       ~code:2048 ~regions:10 ~call_prob:0.15 ~trip:12 ~dep_p:0.3
       ~branches:(data_dependent 0.5) ~fp_mul:0.5 ~fp_div:0.06 ())

let sw_render ~name ?(data_mb = 8) () =
  single ~name
    (kernel ~name ~body:34
       ~mix:(mix ~load:0.24 ~store:0.18 ~branch:0.08 ~fp:0.20 ())
       ~loads:[ (0.5, K.Seq { stride = 4 }); (0.3, K.Fixed); (0.2, K.Random) ]
       ~stores:[ (0.75, K.Seq { stride = 4 }); (0.25, K.Strided { stride = 4096 }) ]
       ~data_kb:(data_mb * 1024)
       ~code:1536 ~regions:8 ~call_prob:0.10 ~trip:40 ~dep_p:0.3
       ~branches:mostly_predictable ~fp_mul:0.5 ())
