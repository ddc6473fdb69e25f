module K = Mica_trace.Kernel
module Rng = Mica_util.Rng
module F = Families

type family = Analytics | Key_value | Media_stream

let families = [ Analytics; Key_value; Media_stream ]

let family_name = function Analytics -> "analytics" | Key_value -> "kv" | Media_stream -> "media"

let version = 1

let input_tag fam i =
  let key = Printf.sprintf "corpus-v%d/%s/%d" version (family_name fam) i in
  Printf.sprintf "%05d-%08Lx" i (Int64.logand (Rng.hash_string key) 0xFFFFFFFFL)

let member_id fam i =
  if i < 0 then invalid_arg "Corpus.member_id: negative index";
  Printf.sprintf "gen/%s/%s" (family_name fam) (input_tag fam i)

(* log-uniform integer in [lo, hi] *)
let log_int rng lo hi =
  let lo_l = log (float_of_int lo) and hi_l = log (float_of_int hi) in
  let v = exp (lo_l +. Rng.float rng (hi_l -. lo_l)) in
  max lo (min hi (int_of_float v))

let range rng lo hi = lo +. Rng.float rng (hi -. lo)

(* --- swept program models ------------------------------------------ *)

let analytics ~name rng =
  let data_kb = log_int rng 256 32768 in
  let random_frac = range rng 0.2 0.7 in
  let bias = range rng 0.3 0.7 in
  let fp = range rng 0.0 0.15 in
  let scan =
    F.kernel ~name:(name ^ ".scan") ~body:48
      ~mix:{ K.load = 0.30; store = 0.08; branch = 0.12; int_mul = 0.01; fp }
      ~loads:[ (0.8, K.Seq { stride = 8 }); (0.2, K.Fixed) ]
      ~stores:[ (0.9, K.Seq { stride = 8 }); (0.1, K.Fixed) ]
      ~data_kb ~trip:64
      ~branches:
        [ (0.7, K.Loop_like { period = 16 }); (0.3, K.Biased { taken_prob = bias }) ]
      ()
  in
  let aggregate =
    F.kernel ~name:(name ^ ".agg") ~body:56
      ~mix:{ K.load = 0.32; store = 0.14; branch = 0.14; int_mul = 0.02; fp = 0.0 }
      ~loads:
        [
          (random_frac, K.Random);
          (1.0 -. random_frac, K.Seq { stride = 8 });
        ]
      ~stores:[ (0.7, K.Random); (0.3, K.Fixed) ]
      ~data_kb ~trip:32
      ~branches:
        [
          (0.35, K.Biased { taken_prob = bias });
          (0.45, K.Loop_like { period = 12 });
          (0.20, K.History { depth = 4 });
        ]
      ()
  in
  F.program ~name [ [ (1.0, scan) ]; [ (0.4, scan); (0.6, aggregate) ] ]

let key_value ~name rng =
  let table_kb = log_int rng 512 65536 in
  let chase = range rng 0.2 0.6 in
  let bias = range rng 0.35 0.65 in
  let code = log_int rng 2000 20000 in
  let parse =
    F.kernel ~name:(name ^ ".parse") ~body:40
      ~mix:{ K.load = 0.26; store = 0.10; branch = 0.16; int_mul = 0.0; fp = 0.0 }
      ~loads:[ (0.7, K.Seq { stride = 1 }); (0.3, K.Fixed) ]
      ~stores:[ (0.8, K.Fixed); (0.2, K.Seq { stride = 1 }) ]
      ~data_kb:16 ~code ~regions:24 ~call_prob:0.05 ~trip:12
      ~branches:
        [ (0.5, K.Biased { taken_prob = bias }); (0.5, K.Loop_like { period = 8 }) ]
      ()
  in
  let lookup =
    F.kernel ~name:(name ^ ".lookup") ~body:52
      ~mix:{ K.load = 0.34; store = 0.08; branch = 0.13; int_mul = 0.0; fp = 0.0 }
      ~loads:
        [
          (chase, K.Chase);
          (0.3, K.Random);
          (Float.max 0.05 (0.7 -. chase), K.Seq { stride = 8 });
        ]
      ~stores:[ (0.6, K.Random); (0.4, K.Fixed) ]
      ~data_kb:table_kb ~code ~regions:24 ~call_prob:0.03 ~trip:8 ~carried:0.12
      ~branches:
        [
          (0.40, K.Biased { taken_prob = bias });
          (0.40, K.Loop_like { period = 10 });
          (0.20, K.History { depth = 6 });
        ]
      ()
  in
  F.program ~name [ [ (0.35, parse); (0.65, lookup) ] ]

let media_stream ~name rng =
  let data_kb = log_int rng 64 8192 in
  let fp = range rng 0.2 0.45 in
  let stride = 1 lsl Rng.int_in rng 3 7 in
  let decode =
    F.kernel ~name:(name ^ ".decode") ~body:64
      ~mix:{ K.load = 0.28; store = 0.12; branch = 0.09; int_mul = 0.04; fp = 0.0 }
      ~loads:[ (0.5, K.Strided { stride }); (0.4, K.Seq { stride = 4 }); (0.1, K.Fixed) ]
      ~stores:[ (0.6, K.Seq { stride = 4 }); (0.4, K.Strided { stride }) ]
      ~data_kb ~trip:128
      ~branches:[ (1.0, K.Loop_like { period = 16 }) ]
      ()
  in
  let filter =
    F.kernel ~name:(name ^ ".filter") ~body:72
      ~mix:{ K.load = 0.26; store = 0.10; branch = 0.07; int_mul = 0.0; fp }
      ~loads:[ (0.9, K.Seq { stride = 8 }); (0.1, K.Fixed) ]
      ~stores:[ (1.0, K.Seq { stride = 8 }) ]
      ~data_kb ~trip:256 ~dep_p:0.6 ~fp_mul:0.5
      ~branches:[ (1.0, K.Loop_like { period = 32 }) ]
      ()
  in
  F.program ~name [ [ (1.0, decode) ]; [ (0.3, decode); (0.7, filter) ] ]

let model fam ~name rng =
  match fam with
  | Analytics -> analytics ~name rng
  | Key_value -> key_value ~name rng
  | Media_stream -> media_stream ~name rng

let member fam i =
  let id = member_id fam i in
  (* the id seeds the sweep: equal ids are equal workloads, forever *)
  let rng = Rng.of_string id in
  let icount_millions = log_int rng 50 5000 in
  let program = model fam ~name:id rng in
  Workload.make ~suite:Suite.Generated ~program:(family_name fam) ~input:(input_tag fam i)
    ~icount_millions program

let members ~size =
  if size < 0 then invalid_arg "Corpus.members: negative size";
  let nfam = List.length families in
  let fams = Array.of_list families in
  List.init size (fun r -> member fams.(r mod nfam) (r / nfam))
