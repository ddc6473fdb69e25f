(* Sketch layer: fixed-memory streaming estimators.  The load-bearing
   contracts are the cardinality sketch's merge algebra and accuracy,
   the sampled reuse estimator against the exact Fenwick analyzer, the
   O(1)-in-trace-length state, and bit-determinism across chunk
   boundaries — the same laws [mica verify] enforces, here driven by
   random streams instead of the registry. *)

module Sk = Mica_sketch
module Card = Mica_sketch.Cardinality
module A = Mica_analysis
module W = Mica_workloads

open QCheck2

let bits = Int64.bits_of_float

let float_arrays_bits_equal a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

(* ---------------- cardinality ---------------- *)

let keys_gen = Gen.(list_size (int_range 0 400) (int_range 0 5_000))

let sketch_of keys =
  let t = Card.create ~registers:256 () in
  List.iter (Card.add t) keys;
  t

let prop_merge_assoc_comm (xs, ys, zs) =
  let a = sketch_of xs and b = sketch_of ys and c = sketch_of zs in
  Card.equal (Card.merge a (Card.merge b c)) (Card.merge (Card.merge a b) c)
  && Card.equal (Card.merge a b) (Card.merge b a)
  && Card.equal (Card.merge a a) a

let prop_merge_estimates_union (xs, ys) =
  let merged = Card.merge (sketch_of xs) (sketch_of ys) in
  Card.equal merged (sketch_of (xs @ ys))

let prop_estimate_near_exact xs =
  let t = Card.create ~registers:1024 () in
  let seen = Mica_util.Int_map.create () in
  List.iter
    (fun x ->
      Card.add t x;
      Mica_util.Int_map.add_if_absent seen x)
    xs;
  let exact = float_of_int (Mica_util.Int_map.length seen) in
  (* At these sizes (n <= 401 distinct keys over m = 1024 registers) the
     estimate is linear counting, whose standard error is
     sigma(n) = sqrt (m (e^(n/m) - n/m - 1)) / n (Whang et al., 1990):
     2.3% at n = 400.  The bound is 6 sigma plus 3 absolute, the floor for
     tiny sets, whose error is a handful of register collisions with a
     Poisson rather than a Gaussian tail. *)
  let m = float_of_int (Card.registers t) in
  let x = exact /. m in
  let sigma_abs = sqrt (m *. (exp x -. x -. 1.0)) in
  Float.abs (Card.estimate t -. exact) <= (6.0 *. sigma_abs) +. 3.0

(* ---------------- sampled reuse vs exact ---------------- *)

(* byte addresses over a 64 KiB footprint: 2048 distinct 32-byte blocks,
   well inside the default near table, so the estimator must track the
   exact analyzer closely *)
let addr_stream_gen = Gen.(list_size (int_range 50 600) (int_range 0 65_535))

let prop_reuse_cdf_matches_exact addrs =
  let cutoffs = A.Reuse.default_cutoffs in
  let exact = A.Reuse.create () in
  Mica_trace.Sink.feed_list (A.Reuse.sink exact)
    (List.map (fun addr -> Tutil.load ~dst:1 ~addr ()) addrs);
  let sk = Sk.Sampled_reuse.create ~cutoffs () in
  List.iter (Sk.Sampled_reuse.access sk) addrs;
  let want = A.Reuse.cdf exact cutoffs and got = Sk.Sampled_reuse.cdf sk in
  Sk.Sampled_reuse.accesses sk = A.Reuse.accesses exact
  && Array.for_all2 (fun w g -> Float.abs (w -. g) <= 0.08) want got

let prop_reuse_accesses_exact addrs =
  let sk = Sk.Sampled_reuse.create ~cutoffs:A.Reuse.default_cutoffs () in
  List.iter (Sk.Sampled_reuse.access sk) addrs;
  Sk.Sampled_reuse.accesses sk = List.length addrs

(* ---------------- chunk-boundary determinism ---------------- *)

let registry = W.Registry.all

let chunk_case_gen = Gen.(triple (int_range 0 1000) (int_range 500 2_500) (oneofl [ 1; 3; 17; 101 ]))

let prop_chunk_determinism (widx, icount, capacity) =
  let w = List.nth registry (widx mod List.length registry) in
  let collector, read = Mica_trace.Sink.collect ~limit:icount () in
  let (_ : int) =
    Mica_trace.Generator.run w.W.Workload.model ~icount ~sink:collector
  in
  let instrs = read () in
  let vector_at capacity =
    let sk = Sk.Sketch.create () in
    Mica_trace.Sink.feed_list ~capacity (Sk.Sketch.sink sk) instrs;
    Sk.Sketch.extended_vector sk
  in
  float_arrays_bits_equal (vector_at 4096) (vector_at capacity)

(* ---------------- fixed state units ---------------- *)

let test_state_constant_in_trace_length () =
  let w = W.Registry.find_exn "SPEC2000/mcf/ref" in
  let at icount = Sk.Sketch.analyze w.W.Workload.model ~icount in
  let short = at 5_000 and long = at 80_000 in
  Alcotest.(check int)
    "state bytes independent of trace length" (Sk.Sketch.state_bytes short)
    (Sk.Sketch.state_bytes long);
  Alcotest.(check int) "short instruction count" 5_000 (Sk.Sketch.instructions short);
  Alcotest.(check int) "long instruction count" 80_000 (Sk.Sketch.instructions long);
  Alcotest.(check bool)
    "state within plan budget" true
    (Sk.Sketch.state_bytes long <= (Sk.Sketch.the_plan long).Sk.Sketch.bytes)

let test_plan_monotone () =
  let p1 = Sk.Sketch.plan ~bytes:(1 lsl 18) () and p2 = Sk.Sketch.plan ~bytes:(1 lsl 21) () in
  Alcotest.(check bool) "ws registers grow" true (p2.Sk.Sketch.ws_registers >= p1.Sk.Sketch.ws_registers);
  Alcotest.(check bool) "ppm slots grow" true (p2.Sk.Sketch.ppm_slots >= p1.Sk.Sketch.ppm_slots);
  Alcotest.(check bool) "reuse slots grow" true
    (p2.Sk.Sketch.reuse_near_slots >= p1.Sk.Sketch.reuse_near_slots)

(* ---------------- stream windows ---------------- *)

let test_stream_windows () =
  let w = W.Registry.find_exn "MiBench/sha/large" in
  let t, snaps = Sk.Stream.run ~window:4_000 w.W.Workload.model ~icount:10_000 in
  Alcotest.(check int) "three windows (last partial)" 3 (Array.length snaps);
  Alcotest.(check int) "windows counter" 3 (Sk.Stream.windows t);
  Alcotest.(check int) "instructions" 10_000 (Sk.Stream.instructions t);
  Array.iteri
    (fun i s ->
      Alcotest.(check int) (Printf.sprintf "snapshot %d index" i) i s.Sk.Stream.index;
      Alcotest.(check int)
        (Printf.sprintf "snapshot %d start" i)
        (i * 4_000) s.Sk.Stream.start_instr)
    snaps;
  Alcotest.(check int) "last window short" 2_000 snaps.(2).Sk.Stream.instructions;
  (match Sk.Stream.decayed t with
  | Some d ->
    Alcotest.(check bool) "decayed matches last snapshot" true
      (float_arrays_bits_equal d snaps.(2).Sk.Stream.decayed)
  | None -> Alcotest.fail "decayed vector must exist after three windows");
  let again = Sk.Stream.finish t in
  Alcotest.(check int) "finish idempotent: same count" (Array.length snaps) (Array.length again);
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "finish idempotent: snapshot %d" i)
        true
        (float_arrays_bits_equal s.Sk.Stream.vector again.(i).Sk.Stream.vector))
    snaps

let test_stream_assign_and_purity () =
  let centroids = [| [| 0.0; 0.0 |]; [| 10.0; 10.0 |] |] in
  Alcotest.(check int) "near origin" 0 (Sk.Stream.assign ~centroids [| 1.0; -1.0 |]);
  Alcotest.(check int) "near far centroid" 1 (Sk.Stream.assign ~centroids [| 9.0; 8.0 |]);
  Alcotest.check Tutil.feq "relabeled clustering is pure" 1.0
    (Sk.Stream.purity ~labels:[| 0; 0; 1; 1 |] ~oracle:[| 5; 5; 2; 2 |]);
  Alcotest.check Tutil.feq "split cluster loses half" 0.5
    (Sk.Stream.purity ~labels:[| 0; 0; 0; 0 |] ~oracle:[| 1; 1; 2; 2 |]);
  Alcotest.check Tutil.feq "empty is zero" 0.0 (Sk.Stream.purity ~labels:[||] ~oracle:[||])

let suite =
  ( "sketch",
    [
      Tutil.qcheck_case "cardinality merge associative/commutative/idempotent"
        Gen.(triple keys_gen keys_gen keys_gen)
        prop_merge_assoc_comm;
      Tutil.qcheck_case "cardinality merge = union sketch"
        Gen.(pair keys_gen keys_gen)
        prop_merge_estimates_union;
      Tutil.qcheck_case "cardinality estimate near exact Int_map count" keys_gen
        prop_estimate_near_exact;
      Tutil.qcheck_case ~count:100 "sampled reuse cdf tracks exact analyzer" addr_stream_gen
        prop_reuse_cdf_matches_exact;
      Tutil.qcheck_case "sampled reuse counts accesses exactly" addr_stream_gen
        prop_reuse_accesses_exact;
      Tutil.qcheck_case ~count:40 "sketch bit-deterministic across chunk boundaries"
        chunk_case_gen prop_chunk_determinism;
      Alcotest.test_case "state bytes O(1) in trace length" `Quick
        test_state_constant_in_trace_length;
      Alcotest.test_case "plan monotone in budget" `Quick test_plan_monotone;
      Alcotest.test_case "stream windows and snapshots" `Quick test_stream_windows;
      Alcotest.test_case "stream assign/purity" `Quick test_stream_assign_and_purity;
    ] )
