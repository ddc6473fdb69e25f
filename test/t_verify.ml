(* The verification subsystem's own tests: deterministic violation cases for
   the invariant sink, qcheck properties driving the random kernel/program
   specs of T_fuzz through the sink and the reference oracles, the
   metamorphic laws, and pipeline cache staleness/corruption recovery. *)

module V = Mica_verify
module K = Mica_trace.Kernel
module P = Mica_trace.Program
module G = Mica_trace.Generator
module Instr = Mica_isa.Instr
module Opcode = Mica_isa.Opcode
module Pipeline = Mica_core.Pipeline
module Workload = Mica_workloads.Workload

let run_inv ?strict_defined_use ?max_violations instrs =
  let t = V.Invariant_sink.create ?strict_defined_use ?max_violations () in
  Tutil.run_sink (V.Invariant_sink.sink t) instrs;
  t

let rules t = List.map (fun v -> v.V.Invariant_sink.rule) (V.Invariant_sink.violations t)

let check_rules name expected t = Alcotest.(check (list string)) name expected (rules t)

(* ---------------- invariant sink: deterministic cases ---------------- *)

let test_inv_clean_trace () =
  (* a well-formed hand trace is clean even in strict mode *)
  let t =
    run_inv ~strict_defined_use:true
      [
        Tutil.alu ~pc:0x1000 ~dst:3 ();
        Tutil.alu ~pc:0x1004 ~src1:3 ~dst:4 ();
        Tutil.load ~pc:0x1008 ~src1:4 ~dst:5 ~addr:0x8000 ();
        Tutil.branch ~pc:0x100C ~src1:5 ~taken:true ~target:0x1000 ();
      ]
  in
  check_rules "no violations" [] t;
  Alcotest.(check int) "count" 4 (V.Invariant_sink.instructions t);
  Alcotest.(check bool) "ok" true (V.Invariant_sink.ok ~expected_icount:4 t)

let test_inv_defined_before_use () =
  let trace = [ Tutil.alu ~pc:0x1000 ~src1:7 ~dst:8 () ] in
  let strict = run_inv ~strict_defined_use:true trace in
  check_rules "strict flags live-in read" [ "reg-defined" ] strict;
  let lax = run_inv trace in
  check_rules "default allows live-ins" [] lax;
  Alcotest.(check int) "live-in counted" 1 (V.Invariant_sink.live_in_registers lax)

let test_inv_pc_chain () =
  let t = run_inv [ Tutil.alu ~pc:0x1000 (); Tutil.alu ~pc:0x2000 () ] in
  check_rules "chain break" [ "pc-chain" ] t

let test_inv_mem_addr () =
  let t = run_inv [ Instr.make ~pc:0x1000 ~op:Opcode.Load ~dst:1 ~addr:0 () ] in
  check_rules "load without address" [ "mem-addr" ] t;
  let t = run_inv [ Instr.make ~pc:0x1000 ~op:Opcode.Int_alu ~addr:0x40 () ] in
  check_rules "alu with address" [ "mem-addr" ] t

let test_inv_ctrl_target () =
  let t = run_inv [ Instr.make ~pc:0x1000 ~op:Opcode.Branch ~taken:true ~target:0 () ] in
  check_rules "taken branch without target" [ "ctrl-target" ] t;
  let t = run_inv [ Instr.make ~pc:0x1000 ~op:Opcode.Int_alu ~taken:true () ] in
  check_rules "taken alu" [ "ctrl-target" ] t

let test_inv_branch_target_consistency () =
  let t =
    run_inv
      [
        Tutil.branch ~pc:0x1000 ~taken:false ~target:0x2000 ();
        Tutil.alu ~pc:0x1004 ();
        Instr.make ~pc:0x1008 ~op:Opcode.Jump ~taken:true ~target:0x1000 ();
        Tutil.branch ~pc:0x1000 ~taken:true ~target:0x3000 ();
      ]
  in
  check_rules "retargeted static branch" [ "branch-target" ] t

let test_inv_reg_id () =
  let t = run_inv [ Tutil.alu ~pc:0x1000 ~src1:99 ~dst:301 () ] in
  check_rules "out-of-range ids" [ "reg-id"; "reg-id" ] t

let test_inv_icount () =
  let t = run_inv [ Tutil.alu ~pc:0x1000 () ] in
  match V.Invariant_sink.finish ~expected_icount:5 t with
  | [ v ] ->
    Alcotest.(check string) "icount rule" "icount" v.V.Invariant_sink.rule;
    Alcotest.(check bool) "not ok" false (V.Invariant_sink.ok ~expected_icount:5 t)
  | vs -> Alcotest.failf "expected exactly the icount violation, got %d" (List.length vs)

let test_inv_max_violations () =
  (* well-chained ALU stream where every instruction carries a stray address:
     exactly one violation each, recording capped *)
  let bad =
    List.init 100 (fun i -> Instr.make ~pc:(0x1000 + (4 * i)) ~op:Opcode.Int_alu ~addr:0x40 ())
  in
  let t = run_inv ~max_violations:5 bad in
  Alcotest.(check int) "recorded capped" 5 (List.length (V.Invariant_sink.violations t))

(* ---------------- invariant sink + oracles on random programs ---------------- *)

let prop_invariants_on_random_specs =
  Tutil.qcheck_case ~count:30 "random streams satisfy all invariants" T_fuzz.spec_gen
    (fun spec ->
      let t = V.Invariant_sink.create () in
      let n = G.run (T_fuzz.program_of_spec spec) ~icount:1_500 ~sink:(V.Invariant_sink.sink t) in
      n = 1_500 && V.Invariant_sink.ok ~expected_icount:1_500 t)

let prop_reference_agrees_on_random_specs =
  Tutil.qcheck_case ~count:12 "reference oracles agree on random specs" T_fuzz.spec_gen
    (fun spec -> V.Reference.check (T_fuzz.program_of_spec spec) ~icount:600 = [])

let prop_prefix_law_on_random_specs =
  Tutil.qcheck_case ~count:10 "prefix law holds on random specs" T_fuzz.spec_gen (fun spec ->
      (V.Differential.prefix_law (T_fuzz.program_of_spec spec) ~n:400 ~m:1_200)
        .V.Differential.ok)

(* ---------------- reference oracles: deterministic cases ---------------- *)

let golden_trio () =
  List.map Mica_workloads.Registry.find_exn
    [ "MiBench/sha/large"; "SPEC2000/mcf/ref"; "SPEC2000/swim/ref" ]

let test_reference_on_golden_workloads () =
  List.iter
    (fun (w : Workload.t) ->
      match V.Reference.check w.Workload.model ~icount:1_500 with
      | [] -> ()
      | m :: _ ->
        Alcotest.failf "%s: %s" (Workload.id w)
          (Format.asprintf "%a" V.Reference.pp_mismatch m))
    (golden_trio ())

let test_chunked_transport_matches_reference () =
  (* The chunked-transport law: the analyzer vector computed over the
     generator's own struct-of-arrays chunk delivery must agree with the
     naive per-instruction oracles recomputing all six families from the
     boxed instruction list.  Reference.check re-feeds a collected list;
     this goes through Analyzer.analyze so the production path — generator
     chunk fill, fanout, monomorphic chunk loops — is the thing compared. *)
  List.iter
    (fun (w : Workload.t) ->
      let icount = 1_500 in
      let got = Mica_analysis.Analyzer.analyze w.Workload.model ~icount in
      let instrs = G.preview w.Workload.model ~n:icount in
      let oracle = V.Reference.vector instrs in
      match V.Reference.compare_vectors ~got ~oracle with
      | [] -> ()
      | m :: _ ->
        Alcotest.failf "%s (chunked): %s" (Workload.id w)
          (Format.asprintf "%a" V.Reference.pp_mismatch m))
    (golden_trio ())

let test_reference_empty_trace () =
  let v = V.Reference.vector [] in
  Alcotest.(check int) "47 characteristics" Mica_analysis.Characteristics.count
    (Array.length v);
  Array.iter (fun x -> Alcotest.check Tutil.feq "all-zero on empty" 0.0 x) v

let test_reference_catches_drift () =
  (* a corrupted analyzer vector must be reported, with the right index *)
  let w = List.hd (golden_trio ()) in
  let collector, read = Mica_trace.Sink.collect ~limit:500 () in
  let (_ : int) = G.run w.Workload.model ~icount:500 ~sink:collector in
  let oracle = V.Reference.vector (read ()) in
  let drifted = Array.copy oracle in
  drifted.(0) <- drifted.(0) +. 0.25;
  match V.Reference.compare_vectors ~got:drifted ~oracle with
  | [ m ] -> Alcotest.(check int) "drift localized" 0 m.V.Reference.index
  | ms -> Alcotest.failf "expected one mismatch, got %d" (List.length ms)

(* ---------------- exact differential: the three tight kernels ----------------

   PPM, ILP and register traffic against their oracles at every PPM order
   and window size that exercises a distinct edge (order 0 has only the
   empty context, 16 the full history; windows 1-3 wrap on almost every
   instruction), compared by [Int64.bits_of_float]: both sides divide the
   same integer counts, so any difference is a counting bug. *)

let ppm_orders = [ 0; 1; 4; 8; 16 ]
let ilp_windows = [| 1; 2; 3; 32; 256 |]

let bits_mismatch what got oracle =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  if Array.length got = Array.length oracle && Array.for_all2 same got oracle then []
  else
    let show a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
    [ Printf.sprintf "%s: kernel [%s], oracle [%s]" what (show got) (show oracle) ]

(* A small chunk capacity carries every kernel's state across chunk
   boundaries as well. *)
let kernel_mismatches ?(capacity = 97) instrs =
  let module A = Mica_analysis in
  let ppm order =
    let t = A.Ppm.create ~order () in
    Tutil.run_sink ~capacity (A.Ppm.sink t) instrs;
    bits_mismatch (Printf.sprintf "ppm order %d" order) (A.Ppm.to_vector t)
      (V.Reference.ppm ~order instrs)
  in
  let ilp = A.Ilp.create ~windows:ilp_windows () in
  Tutil.run_sink ~capacity (A.Ilp.sink ilp) instrs;
  let reg = A.Regtraffic.create () in
  Tutil.run_sink ~capacity (A.Regtraffic.sink reg) instrs;
  List.concat_map ppm ppm_orders
  @ bits_mismatch "ilp" (A.Ilp.ipc ilp) (V.Reference.ilp ~windows:ilp_windows instrs)
  @ bits_mismatch "regtraffic"
      (A.Regtraffic.to_vector (A.Regtraffic.result reg))
      (V.Reference.regtraffic instrs)

let check_kernels what instrs =
  match kernel_mismatches instrs with
  | [] -> ()
  | m :: _ -> Alcotest.failf "%s: %s" what m

let test_kernels_exact_on_golden_workloads () =
  List.iter
    (fun (w : Workload.t) -> check_kernels (Workload.id w) (G.preview w.Workload.model ~n:1_500))
    (golden_trio ())

let prop_kernels_exact_on_random_specs =
  Tutil.qcheck_case ~count:10 "kernels exact on random specs" T_fuzz.spec_gen (fun spec ->
      kernel_mismatches (G.preview (T_fuzz.program_of_spec spec) ~n:700) = [])

(* Hand-built: [Reg.none] (-1), the zero register (31) and the last FP
   register (63) as sources and destinations, chains through 63 and
   through ordinary registers, and branches at two sites with different
   patterns; 300 instructions cross the first wrap of every window. *)
let hand_chunk () =
  List.init 300 (fun i ->
      let pc = 0x1000 + (4 * (i mod 50)) in
      match i mod 6 with
      | 0 -> Tutil.branch ~pc ~src1:63 ~taken:(i mod 4 = 0) ()
      | 1 -> Tutil.alu ~pc ~src1:31 ~src2:(-1) ~dst:63 ()
      | 2 -> Tutil.fp ~pc ~src1:63 ~src2:63 ~dst:(32 + (i mod 5)) ()
      | 3 -> Tutil.alu ~pc ~src1:(32 + (i mod 7)) ~src2:31 ~dst:31 ()
      | 4 -> Tutil.branch ~pc:(pc + 2) ~src1:(i mod 3) ~taken:(i mod 18 <> 4) ()
      | _ -> Tutil.alu ~pc ~src1:(-1) ~src2:(i mod 3) ~dst:(i mod 3) ())

let test_kernels_exact_on_hand_chunk () =
  check_kernels "hand chunk" (hand_chunk ());
  (* the same stream one instruction per chunk *)
  match kernel_mismatches ~capacity:1 (hand_chunk ()) with
  | [] -> ()
  | m :: _ -> Alcotest.failf "hand chunk, 1-element chunks: %s" m

(* ---------------- differential laws ---------------- *)

let test_differential_laws () =
  let p = Tutil.tiny_program "verify-laws" in
  Alcotest.(check bool) "seed determinism" true
    (V.Differential.seed_determinism p ~icount:2_000).V.Differential.ok;
  Alcotest.(check bool) "prefix law" true
    (V.Differential.prefix_law p ~n:700 ~m:2_000).V.Differential.ok

let test_differential_prefix_invalid () =
  let p = Tutil.tiny_program "verify-bad-prefix" in
  (try
     ignore (V.Differential.prefix_law p ~n:0 ~m:10);
     Alcotest.fail "n = 0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (V.Differential.prefix_law p ~n:20 ~m:10);
    Alcotest.fail "n > m accepted"
  with Invalid_argument _ -> ()

let test_differential_jobs_equality () =
  let ws = [ List.hd (golden_trio ()); List.nth (golden_trio ()) 1 ] in
  let o = V.Differential.jobs_equality ~jobs:3 ws ~icount:2_000 in
  if not o.V.Differential.ok then Alcotest.fail o.V.Differential.detail

(* The law's cache directory, with its checkpoints, is gone afterwards. *)
let test_differential_cache_roundtrip () =
  Tutil.with_temp_dir @@ fun tmp ->
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name tmp;
  let o =
    Fun.protect
      ~finally:(fun () -> Filename.set_temp_dir_name saved)
      (fun () -> V.Differential.cache_roundtrip [ List.hd (golden_trio ()) ] ~icount:1_000)
  in
  if not o.V.Differential.ok then Alcotest.fail o.V.Differential.detail;
  Alcotest.(check (array string)) "temp directory left empty" [||] (Sys.readdir tmp)

(* ---------------- selection/clustering kernel laws ----------------

   The fused fitness kernel must agree with the naive
   subset_distances + pearson reference *exactly* (same operations, same
   order); the batch evaluator's delta path may drift but only within the
   DESIGN.md §9 tolerance; and every pooled kernel must give bit-identical
   results at jobs = 1 and jobs = 4. *)

module Stats = Mica_stats
module Select = Mica_select
module Rng = Mica_util.Rng
module Pool = Mica_util.Pool

let delta_tol = 1e-9

let random_normalized rng ~rows ~cols =
  Stats.Normalize.zscore
    (Array.init rows (fun _ -> Array.init cols (fun _ -> Rng.gaussian rng ~mu:0.0 ~sigma:1.0)))

let random_subset rng ~cols =
  let g = Array.init cols (fun _ -> Rng.bool rng) in
  if not (Array.exists Fun.id g) then g.(Rng.int rng cols) <- true;
  let out = ref [] in
  for c = cols - 1 downto 0 do
    if g.(c) then out := c :: !out
  done;
  Array.of_list !out

(* Shapes around the column sweep's 1024-pair block: 300 and 990 pairs
   (below one block), 1035 (just above) and 4095 (three blocks and a
   partial one).  1024 is not a triangular number, so no row count gives
   exactly one block at jobs 1; at jobs 4, three of the four ranges that
   4095 pairs split into are exactly 1024 pairs. *)
let test_fused_fitness_matches_naive_reference () =
  let rng = Rng.create ~seed:0xF05EDL in
  let cols = 9 in
  let check_shape ~rows =
    let normalized = random_normalized rng ~rows ~cols in
    let fit = Select.Fitness.create normalized in
    let comp = Stats.Distance.condensed_squared_components normalized in
    let full = Stats.Distance.condensed normalized in
    let fail fmt = Alcotest.failf ("%d rows: " ^^ fmt) rows in
    Array.iteri
      (fun p d ->
        if d <> (Select.Fitness.full_distances fit).(p) then
          fail "full distance %d not bit-identical" p)
      full;
    let naive subset = Stats.Correlation.pearson (Stats.Distance.subset_distances comp subset) full in
    let all = Array.init cols Fun.id in
    let shuffled () =
      let a = Array.copy all in
      Rng.shuffle rng a;
      a
    in
    (* k = 1, odd k, a multiple of the sweep's four-column group, and
       k = all columns, in ascending and non-ascending order, then random
       subsets *)
    let fixed =
      [ [| Rng.int rng cols |]; [| 6; 1; 4 |]; [| 0; 2; 3; 5; 8 |]; [| 8; 3; 0; 5 |]; all;
        shuffled (); Array.of_list (List.rev (Array.to_list all)) ]
    in
    let subsets = fixed @ List.init 20 (fun _ -> random_subset rng ~cols) in
    List.iteri
      (fun trial subset ->
        let k = Array.length subset in
        let want = naive subset in
        let want_fitness = want *. (1.0 -. (float_of_int k /. float_of_int cols)) in
        if Select.Fitness.rho fit subset <> want then
          fail "trial %d (k=%d): fused rho not bit-identical to naive reference" trial k;
        if Select.Fitness.paper_fitness fit subset <> want_fitness then
          fail "trial %d (k=%d): fused fitness not bit-identical to naive reference" trial k;
        let naive_distances = Stats.Distance.subset_distances comp subset in
        Array.iteri
          (fun p d ->
            if d <> naive_distances.(p) then
              fail "trial %d (k=%d): distances_for pair %d not bit-identical" trial k p)
          (Select.Fitness.distances_for fit subset);
        (* the same subset as a rebuild job of the batch evaluator, at
           any pool size *)
        List.iter
          (fun jobs ->
            let got =
              Pool.with_pool ~jobs (fun pool ->
                  Select.Fitness.eval ~pool fit
                    [| { Select.Fitness.cols = subset; base = None; keep = None } |])
            in
            if got.(0) <> want then
              fail "trial %d (k=%d): eval rho not bit-identical at jobs %d" trial k jobs)
          [ 1; 4 ])
      subsets;
    List.iter
      (fun c ->
        match Select.Fitness.rho fit [| 0; c |] with
        | exception Invalid_argument _ -> ()
        | _ -> fail "column %d out of range was accepted" c)
      [ -1; cols ]
  in
  List.iter (fun rows -> check_shape ~rows) [ 25; 45; 46; 91 ]

let ascending members =
  let out = ref [] in
  for c = Array.length members - 1 downto 0 do
    if members.(c) then out := c :: !out
  done;
  Array.of_list !out

(* A 200-step add/remove walk in which every step is a one-column delta
   job off the previous step's sums, so the drift accumulates as it does
   along a GA lineage; a rebuild job clears it. *)
let test_subset_delta_within_tolerance () =
  let rng = Rng.create ~seed:0xDE17AL in
  let cols = 10 in
  let normalized = random_normalized rng ~rows:20 ~cols in
  let fit = Select.Fitness.create normalized in
  let members = Array.make cols false in
  Array.iter (fun c -> members.(c) <- true) (random_subset rng ~cols);
  let sums = Array.make (Select.Fitness.n_pairs fit) 0.0 in
  let eval ~base cols =
    (Select.Fitness.eval fit [| { Select.Fitness.cols; base; keep = Some sums } |]).(0)
  in
  ignore (eval ~base:None (ascending members) : float);
  for _ = 1 to 200 do
    let c = Rng.int rng cols in
    let step =
      if members.(c) && Array.length (ascending members) > 1 then begin
        members.(c) <- false;
        [| lnot c |]
      end
      else if not members.(c) then begin
        members.(c) <- true;
        [| c |]
      end
      else [||]
    in
    let via_delta = eval ~base:(Some sums) step in
    let exact = Select.Fitness.rho fit (ascending members) in
    if Float.abs (via_delta -. exact) > delta_tol then
      Alcotest.failf "delta drift %g exceeds %g" (Float.abs (via_delta -. exact)) delta_tol
  done;
  let exact = Select.Fitness.rho fit (ascending members) in
  if eval ~base:None (ascending members) <> exact then
    Alcotest.fail "rebuilt rho not bit-identical to the fused recompute"

(* The delta path clamps a sum that rounding drove below zero.  Pair
   (0, 1) has components 1, 2^-54 and 2^-60: summed in order they round
   to 1.0, and taking columns 0 and 1 back out leaves -2^-54, whose
   unclamped root (NaN) used to zero the whole rho.  The exact rho of
   column 2 alone is 0.974. *)
let test_delta_clamps_negative_sums () =
  let normalized =
    [|
      [| 0.0; 0.0; 0.0 |];
      [| 1.0; ldexp 1.0 (-27); ldexp 1.0 (-30) |];
      [| 0.5; 1.0; 1.5 |];
      [| 2.0; 0.5; 3.0 |];
    |]
  in
  let fit = Select.Fitness.create normalized in
  let sums = Array.make (Select.Fitness.n_pairs fit) 0.0 in
  ignore
    (Select.Fitness.eval fit
       [| { Select.Fitness.cols = [| 0; 1; 2 |]; base = None; keep = Some sums } |]);
  if sums.(0) -. 1.0 -. ldexp 1.0 (-54) >= 0.0 then
    Alcotest.fail "fixture no longer drives the pair (0, 1) sum below zero";
  let exact = Select.Fitness.rho fit [| 2 |] in
  Alcotest.(check (float 1e-3)) "exact rho" 0.974 exact;
  let via_delta =
    (Select.Fitness.eval fit
       [| { Select.Fitness.cols = [| lnot 0; lnot 1 |]; base = Some sums; keep = None } |]).(0)
  in
  if Float.abs (via_delta -. exact) > delta_tol then
    Alcotest.failf "delta rho %.17g, exact %.17g" via_delta exact

(* [Fitness.eval] against a per-genome reference: for a rebuild job the
   naive in-order sums, for a delta job the parent's sums and then one
   +/- pass per column in order, as one-genome-at-a-time evaluation did;
   then the clamped roots and [Correlation.pearson].  rho and the kept
   sums must agree by bits for batches of 1 to 9 mixed rebuild and
   mixed-sign delta jobs (across the 4-wide Pearson groups), on pair
   counts below, just above and well past the 1024-pair block, at jobs 1
   and 4. *)
let test_batch_eval_matches_reference () =
  let rng = Rng.create ~seed:0xBA7C4L in
  let cols = 11 in
  let bits = Int64.bits_of_float in
  let check_shape ~rows =
    let normalized = random_normalized rng ~rows ~cols in
    let fit = Select.Fitness.create normalized in
    let comp = Stats.Distance.condensed_squared_components normalized in
    let full = Stats.Distance.condensed normalized in
    let n = Array.length full in
    let reference ~base signed =
      let sums = match base with Some b -> Array.copy b | None -> Array.make n 0.0 in
      Array.iter
        (fun c ->
          for p = 0 to n - 1 do
            sums.(p) <-
              (if c >= 0 then sums.(p) +. comp.(p).(c) else sums.(p) -. comp.(p).(lnot c))
          done)
        signed;
      let dist = Array.map (fun s -> sqrt (Float.max 0.0 s)) sums in
      (sums, Stats.Correlation.pearson dist full)
    in
    let job () =
      let parent = random_subset rng ~cols in
      if Rng.bool rng then (parent, None)
      else begin
        let member = Array.make cols false in
        Array.iter (fun c -> member.(c) <- true) parent;
        let flip = Array.make cols false in
        for _ = 0 to Rng.int rng 5 do
          flip.(Rng.int rng cols) <- true
        done;
        let signed =
          List.filter_map
            (fun c -> if flip.(c) then Some (if member.(c) then lnot c else c) else None)
            (List.init cols Fun.id)
        in
        (Array.of_list signed, Some (fst (reference ~base:None parent)))
      end
    in
    for size = 1 to 9 do
      let specs = Array.init size (fun _ -> job ()) in
      let want = Array.map (fun (signed, base) -> reference ~base signed) specs in
      let check ~pool jobs =
        let keeps = Array.map (fun _ -> Array.make n Float.nan) specs in
        let got =
          Select.Fitness.eval ~pool fit
            (Array.mapi
               (fun u (cols, base) -> { Select.Fitness.cols; base; keep = Some keeps.(u) })
               specs)
        in
        Array.iteri
          (fun u (sums, rho) ->
            let fail what =
              Alcotest.failf "%d pairs, batch of %d, job %d, jobs %d: %s" n size u jobs what
            in
            if bits got.(u) <> bits rho then fail "rho not bit-identical";
            Array.iteri (fun p s -> if bits keeps.(u).(p) <> bits s then fail "sums differ") sums)
          want
      in
      check ~pool:Pool.sequential 1;
      (* pool blocks run concurrently only when their workers overlap in
         time, so a block that wrote another block's scratch shows only
         in some runs: repeat *)
      Pool.with_pool ~jobs:4 (fun pool ->
          for _ = 1 to 8 do
            check ~pool 4
          done)
    done
  in
  List.iter (fun rows -> check_shape ~rows) [ 25; 46; 91 ];
  (* the sweep reads columns, sums and scratch unchecked: [eval] must
     refuse anything out of shape *)
  let fit = Select.Fitness.create (random_normalized rng ~rows:6 ~cols) in
  let other = Select.Fitness.create (random_normalized rng ~rows:7 ~cols) in
  let job cols = { Select.Fitness.cols; base = None; keep = None } in
  List.iter
    (fun (what, f) ->
      match f () with
      | exception Invalid_argument _ -> ()
      | (_ : float array) -> Alcotest.failf "%s was accepted" what)
    [
      ("column past the end", fun () -> Select.Fitness.eval fit [| job [| cols |] |]);
      ("removed column past the end", fun () -> Select.Fitness.eval fit [| job [| lnot cols |] |]);
      ( "short base",
        fun () -> Select.Fitness.eval fit [| { (job [| 0 |]) with base = Some [| 0.0 |] } |] );
      ( "scratch too small",
        fun () ->
          Select.Fitness.eval ~scratch:(Select.Fitness.scratch fit 1) fit
            [| job [| 0 |]; job [| 1 |] |] );
      ( "scratch of another fitness",
        fun () ->
          Select.Fitness.eval ~scratch:(Select.Fitness.scratch other 1) fit [| job [| 0 |] |] );
    ]

let test_ce_leave_one_out_matches_naive () =
  let rng = Rng.create ~seed:0xCE100L in
  let cols = 9 in
  let normalized = random_normalized rng ~rows:22 ~cols in
  let fit = Select.Fitness.create normalized in
  let comp = Stats.Distance.condensed_squared_components normalized in
  let full = Stats.Distance.condensed normalized in
  for _ = 1 to 20 do
    let subset = random_subset rng ~cols in
    if Array.length subset >= 2 then
      Array.iter
        (fun (c, got) ->
          let without = Array.of_list (List.filter (( <> ) c) (Array.to_list subset)) in
          let naive =
            Stats.Correlation.pearson (Stats.Distance.subset_distances comp without) full
          in
          if Float.abs (got -. naive) > delta_tol then
            Alcotest.failf "leave-one-out of %d drifts %g from naive reference" c
              (Float.abs (got -. naive)))
        (Select.Correlation_elimination.leave_one_out fit subset)
  done

let test_ce_matches_naive_elimination () =
  let rng = Rng.create ~seed:0xCE2L in
  let cols = 8 in
  let data = Array.init 20 (fun _ -> Array.init cols (fun _ -> Rng.gaussian rng ~mu:0.0 ~sigma:1.0)) in
  let normalized = Stats.Normalize.zscore data in
  let fit = Select.Fitness.create normalized in
  let comp = Stats.Distance.condensed_squared_components normalized in
  let full = Stats.Distance.condensed normalized in
  (* naive reference elimination: same avg |r| rule, rho re-derived from
     scratch each step *)
  let corr = Stats.Matrix.correlation_matrix data in
  let alive = Array.make cols true in
  let naive_steps = ref [] in
  for _ = 1 to cols - 1 do
    let best = ref (-1) and best_avg = ref neg_infinity in
    for i = 0 to cols - 1 do
      if alive.(i) then begin
        let acc = ref 0.0 and cnt = ref 0 in
        for j = 0 to cols - 1 do
          if alive.(j) && j <> i then begin
            acc := !acc +. Float.abs corr.(i).(j);
            incr cnt
          end
        done;
        let avg = if !cnt = 0 then 0.0 else !acc /. float_of_int !cnt in
        if avg > !best_avg then begin
          best_avg := avg;
          best := i
        end
      end
    done;
    alive.(!best) <- false;
    let remaining = ref [] in
    for i = cols - 1 downto 0 do
      if alive.(i) then remaining := i :: !remaining
    done;
    let remaining = Array.of_list !remaining in
    let rho = Stats.Correlation.pearson (Stats.Distance.subset_distances comp remaining) full in
    naive_steps := (!best, remaining, rho) :: !naive_steps
  done;
  let naive_steps = List.rev !naive_steps in
  let check label steps =
    List.iter2
      (fun (nr, nrem, nrho) (s : Select.Correlation_elimination.step) ->
        Alcotest.(check int) (label ^ ": same removal") nr s.Select.Correlation_elimination.removed;
        Alcotest.(check (array int)) (label ^ ": same remaining") nrem
          s.Select.Correlation_elimination.remaining;
        if nrho <> s.Select.Correlation_elimination.rho then
          Alcotest.failf "%s: step rho %.17g, naive reference %.17g" label
            s.Select.Correlation_elimination.rho nrho)
      naive_steps steps
  in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          check
            (Printf.sprintf "jobs %d" jobs)
            (Select.Correlation_elimination.run ~pool ~data fit)))
    [ 1; 4 ]

(* On the committed baseline dataset every step's rho is its subset's
   exact rho.  Running sums carried from step to step drift below zero
   there and read 0.000 for k <= 5, where the exact values are 0.400,
   0.303, 0.131, -0.042 and -0.014. *)
let test_ce_steps_exact_on_baseline () =
  let ds = Mica_core.Dataset.of_csv Tutil.baseline_csv in
  let fit = Select.Fitness.create (Mica_core.Space.of_dataset ds).Mica_core.Space.normalized in
  let steps = Select.Correlation_elimination.run ~data:ds.Mica_core.Dataset.data fit in
  Alcotest.(check int) "steps" 46 (List.length steps);
  List.iter
    (fun (s : Select.Correlation_elimination.step) ->
      let exact = Select.Fitness.rho fit s.Select.Correlation_elimination.remaining in
      if Int64.bits_of_float s.Select.Correlation_elimination.rho <> Int64.bits_of_float exact
      then
        Alcotest.failf "k = %d: step rho %.17g, exact %.17g"
          (Array.length s.Select.Correlation_elimination.remaining)
          s.Select.Correlation_elimination.rho exact)
    steps

let test_selection_jobs_invariance () =
  let rng = Rng.create ~seed:0x10B5L in
  let cols = 8 in
  let data = Array.init 18 (fun _ -> Array.init cols (fun _ -> Rng.gaussian rng ~mu:0.0 ~sigma:1.0)) in
  let normalized = Stats.Normalize.zscore data in
  let fit = Select.Fitness.create normalized in
  let config =
    { Select.Genetic.default_config with
      Select.Genetic.population = 12; max_generations = 12; stall_generations = 6 }
  in
  let at jobs f = Pool.with_pool ~jobs f in
  let ga1 = at 1 (fun pool -> Select.Genetic.run ~config ~pool ~rng:(Rng.create ~seed:7L) fit) in
  let ga4 = at 4 (fun pool -> Select.Genetic.run ~config ~pool ~rng:(Rng.create ~seed:7L) fit) in
  Alcotest.(check (array int)) "GA selection jobs-invariant" ga1.Select.Genetic.selected
    ga4.Select.Genetic.selected;
  if ga1.Select.Genetic.fitness <> ga4.Select.Genetic.fitness then
    Alcotest.fail "GA fitness not bit-identical across jobs";
  if ga1.Select.Genetic.best_history <> ga4.Select.Genetic.best_history then
    Alcotest.fail "GA history not bit-identical across jobs";
  let ce1 = at 1 (fun pool -> Select.Correlation_elimination.run ~pool ~data fit) in
  let ce4 = at 4 (fun pool -> Select.Correlation_elimination.run ~pool ~data fit) in
  if ce1 <> ce4 then Alcotest.fail "CE steps not bit-identical across jobs";
  let subset = Array.init cols Fun.id in
  let loo1 = at 1 (fun pool -> Select.Correlation_elimination.leave_one_out ~pool fit subset) in
  let loo4 = at 4 (fun pool -> Select.Correlation_elimination.leave_one_out ~pool fit subset) in
  if loo1 <> loo4 then Alcotest.fail "leave-one-out not bit-identical across jobs"

let test_clustering_jobs_invariance () =
  let rng = Rng.create ~seed:0xC105L in
  let m =
    Array.init 24 (fun i ->
        let cx = if i < 12 then -.3.0 else 3.0 in
        Array.init 3 (fun _ -> cx +. Rng.gaussian rng ~mu:0.0 ~sigma:0.5))
  in
  let at jobs f = Pool.with_pool ~jobs f in
  let km j =
    at j (fun pool -> Stats.Kmeans.fit ~restarts:4 ~pool ~rng:(Rng.create ~seed:3L) ~k:2 m)
  in
  let k1 = km 1 and k4 = km 4 in
  Alcotest.(check (array int)) "kmeans assignments jobs-invariant"
    k1.Stats.Kmeans.assignments k4.Stats.Kmeans.assignments;
  if k1.Stats.Kmeans.inertia <> k4.Stats.Kmeans.inertia then
    Alcotest.fail "kmeans inertia not bit-identical across jobs";
  let sweep j =
    at j (fun pool ->
        Array.map
          (fun (k, _, s) -> (k, s))
          (Stats.Bic.sweep ~k_min:1 ~k_max:5 ~restarts:2 ~pool ~rng:(Rng.create ~seed:5L) m))
  in
  if sweep 1 <> sweep 4 then Alcotest.fail "BIC sweep not bit-identical across jobs";
  let boot j =
    at j (fun pool ->
        let xs = Array.init 40 (fun i -> float_of_int i) in
        Stats.Bootstrap.interval ~replicates:60 ~pool ~rng:(Rng.create ~seed:9L) ~n:40
          (fun sample ->
            Stats.Descriptive.mean (Array.map (fun i -> xs.(i)) sample)))
  in
  if boot 1 <> boot 4 then Alcotest.fail "bootstrap interval not bit-identical across jobs"

(* k-means' nearest-centroid search against a naive argmin over
   [Distance.squared_euclidean], first index winning a tie.  Duplicate
   rows and points symmetric about the centroids make exact ties: with
   every row identical, all centroids coincide and every point ties
   between them. *)
let test_kmeans_ties_match_naive_argmin () =
  let ring = [| [| 1.0; 0.0 |]; [| -1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 0.0; -1.0 |]; [| 0.0; 0.0 |] |] in
  let cases =
    [
      ("identical rows", Array.init 6 (fun _ -> [| 0.5; -2.0; 3.0 |]));
      ("symmetric ring with duplicates", Array.concat [ ring; ring; [| [| 0.0; 0.0 |] |] ]);
    ]
  in
  List.iter
    (fun (label, m) ->
      List.iter
        (fun (k, jobs) ->
          let res =
            Pool.with_pool ~jobs (fun pool ->
                Stats.Kmeans.fit ~restarts:3 ~pool ~rng:(Rng.create ~seed:0x71E5L) ~k m)
          in
          let inertia = ref 0.0 in
          Array.iteri
            (fun i x ->
              let best = ref 0 and best_d = ref infinity in
              Array.iteri
                (fun c centroid ->
                  let d = Stats.Distance.squared_euclidean centroid x in
                  if d < !best_d then begin
                    best_d := d;
                    best := c
                  end)
                res.Stats.Kmeans.centroids;
              if res.Stats.Kmeans.assignments.(i) <> !best then
                Alcotest.failf "%s, k=%d, jobs %d: point %d assigned %d, naive argmin %d" label k
                  jobs i res.Stats.Kmeans.assignments.(i) !best;
              inertia := !inertia +. !best_d)
            m;
          if Int64.bits_of_float res.Stats.Kmeans.inertia <> Int64.bits_of_float !inertia then
            Alcotest.failf "%s, k=%d, jobs %d: inertia %h, naive %h" label k jobs
              res.Stats.Kmeans.inertia !inertia)
        [ (1, 1); (2, 1); (3, 1); (4, 1); (2, 4); (4, 4) ])
    cases

(* ---------------- exact k-means differential ---------------- *)

(* [Stats.Kmeans] as it was before its four-lane kernels: one centroid and
   one point at a time, and a full nearest-centroid rescan after every
   exit.  It also records what the cases below must reach: each lane of a
   four-centroid group, and a group boundary, taking an exact tie (which
   the first index wins), an empty cluster reseeded, and a [max_iters]
   exit whose rescan moved a point. *)
module Ref_kmeans = struct
  let tie_lanes = Array.make 4 0
  let cross_group_ties = ref 0
  let reseeds = ref 0
  let stale_exits = ref 0

  let reset () =
    Array.fill tie_lanes 0 4 0;
    cross_group_ties := 0;
    reseeds := 0;
    stale_exits := 0

  let sq_dist a b =
    let acc = ref 0.0 in
    for i = 0 to Array.length a - 1 do
      let d = a.(i) -. b.(i) in
      acc := !acc +. (d *. d)
    done;
    !acc

  let nearest centroids x =
    let best = ref 0 and best_d = ref infinity in
    Array.iteri
      (fun c centroid ->
        let d = sq_dist centroid x in
        if d < !best_d then begin
          best_d := d;
          best := c
        end
        else if d = !best_d then begin
          tie_lanes.(c mod 4) <- tie_lanes.(c mod 4) + 1;
          if c / 4 <> !best / 4 then incr cross_group_ties
        end)
      centroids;
    (!best, !best_d)

  let seed rng k m =
    let n = Array.length m in
    let centroids = Array.make k m.(0) in
    centroids.(0) <- Array.copy m.(Rng.int rng n);
    let d2 = Array.map (fun x -> sq_dist x centroids.(0)) m in
    for c = 1 to k - 1 do
      let total = Array.fold_left ( +. ) 0.0 d2 in
      let chosen =
        if total <= 0.0 then Rng.int rng n
        else begin
          let r = Rng.float rng total in
          let acc = ref 0.0 and pick = ref (-1) in
          Array.iteri
            (fun i d ->
              if !pick < 0 then begin
                acc := !acc +. d;
                if r < !acc then pick := i
              end)
            d2;
          if !pick < 0 then n - 1 else !pick
        end
      in
      centroids.(c) <- Array.copy m.(chosen);
      Array.iteri
        (fun i x ->
          let d = sq_dist x centroids.(c) in
          if d < d2.(i) then d2.(i) <- d)
        m
    done;
    centroids

  let lloyd ~max_iters m centroids =
    let n = Array.length m and k = Array.length centroids in
    let dims = Array.length m.(0) in
    let assignments = Array.make n (-1) in
    let iterations = ref 0 and changed = ref true in
    while !changed && !iterations < max_iters do
      incr iterations;
      changed := false;
      Array.iteri
        (fun i x ->
          let c, _ = nearest centroids x in
          if c <> assignments.(i) then begin
            assignments.(i) <- c;
            changed := true
          end)
        m;
      let sums = Array.make_matrix k dims 0.0 and counts = Array.make k 0 in
      Array.iteri
        (fun i x ->
          let c = assignments.(i) in
          counts.(c) <- counts.(c) + 1;
          Array.iteri (fun j v -> sums.(c).(j) <- sums.(c).(j) +. v) x)
        m;
      for c = 0 to k - 1 do
        if counts.(c) > 0 then
          Array.iteri (fun j s -> centroids.(c).(j) <- s /. float_of_int counts.(c)) sums.(c)
        else begin
          incr reseeds;
          let far = ref 0 and far_d = ref neg_infinity in
          Array.iteri
            (fun i x ->
              let _, d = nearest centroids x in
              if d > !far_d then begin
                far_d := d;
                far := i
              end)
            m;
          centroids.(c) <- Array.copy m.(!far);
          changed := true
        end
      done
    done;
    let last = Array.copy assignments in
    let inertia = ref 0.0 in
    Array.iteri
      (fun i x ->
        let c, d = nearest centroids x in
        assignments.(i) <- c;
        inertia := !inertia +. d)
      m;
    if !changed && last <> assignments then incr stale_exits;
    (assignments, !inertia, !iterations)

  let fit ?(max_iters = 100) ?(restarts = 1) ~rng ~k m =
    let rngs = Array.init (max 1 restarts) (fun _ -> Rng.split rng) in
    let results =
      Array.map
        (fun rng ->
          let centroids = seed rng k m in
          let assignments, inertia, iterations = lloyd ~max_iters m centroids in
          { Stats.Kmeans.k; assignments; centroids; inertia; iterations })
        rngs
    in
    Array.fold_left
      (fun best (r : Stats.Kmeans.result) -> if r.inertia < best.Stats.Kmeans.inertia then r else best)
      results.(0) results

  let sweep ~k_max ~restarts ~rng m =
    let k_max = min k_max (Array.length m) in
    let rngs = Array.init k_max (fun _ -> Rng.split rng) in
    Array.mapi
      (fun i rng ->
        let res = fit ~restarts ~rng ~k:(i + 1) m in
        (i + 1, res, Stats.Bic.score m res))
      rngs
end

let same_kmeans label (want : Stats.Kmeans.result) (got : Stats.Kmeans.result) =
  let bits = Int64.bits_of_float in
  Alcotest.(check int) (label ^ ": k") want.k got.k;
  Alcotest.(check (array int)) (label ^ ": assignments") want.assignments got.assignments;
  Alcotest.(check (array (array int64)))
    (label ^ ": centroid bits")
    (Array.map (Array.map bits) want.centroids)
    (Array.map (Array.map bits) got.centroids);
  Alcotest.(check int64) (label ^ ": inertia bits") (bits want.inertia) (bits got.inertia);
  Alcotest.(check int) (label ^ ": iterations") want.iterations got.iterations

(* Three datasets: [dups] repeats three points, so once K passes three,
   seeding picks coinciding centroids, nearest-centroid searches tie
   across lanes and groups, and the emptied clusters are reseeded until
   [max_iters]; [five] repeats five points; [blobs] is 37 noisy points
   (not a multiple of four, so seeding's last points go one at a time)
   in 5 dimensions.  K runs over every residue mod 4, below four
   included, and the blobs are also stopped after one and two
   iterations. *)
let test_kmeans_matches_sequential_reference () =
  Ref_kmeans.reset ();
  let bases = [| [| 0.0; 0.0; 0.0 |]; [| 1.0; 2.0; 3.0 |]; [| -2.0; 0.5; 1.0 |] |] in
  let dups = Array.init 22 (fun i -> Array.copy bases.(i * 7 mod 3)) in
  let five =
    Array.init 30 (fun i -> [| float_of_int (i mod 5); float_of_int (i * 3 mod 5) /. 2.0 |])
  in
  let rng = Rng.create ~seed:0xB10BL in
  let blobs =
    Array.init 37 (fun i ->
        Array.init 5 (fun j ->
            float_of_int ((i mod 4 * 3) + j) +. Rng.gaussian rng ~mu:0.0 ~sigma:1.5))
  in
  let fits =
    List.concat
      [
        List.init 9 (fun k -> ("dups", dups, k + 1, 100));
        List.init 12 (fun k -> ("five", five, k + 1, 100));
        List.init 13 (fun k -> ("blobs", blobs, k + 1, 100));
        List.concat_map (fun k -> [ ("blobs", blobs, k, 1); ("blobs", blobs, k, 2) ]) [ 4; 5; 6; 7; 9 ];
      ]
  in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          List.iter
            (fun (name, m, k, max_iters) ->
              let seed = Int64.of_int ((k * 97) + max_iters) in
              let label = Printf.sprintf "%s k=%d max_iters=%d jobs %d" name k max_iters jobs in
              same_kmeans label
                (Ref_kmeans.fit ~max_iters ~restarts:3 ~rng:(Rng.create ~seed) ~k m)
                (Stats.Kmeans.fit ~max_iters ~restarts:3 ~pool ~rng:(Rng.create ~seed) ~k m))
            fits;
          List.iter
            (fun (name, m) ->
              let want = Ref_kmeans.sweep ~k_max:12 ~restarts:2 ~rng:(Rng.create ~seed:0x5EEDL) m in
              let got =
                Stats.Bic.sweep ~k_max:12 ~restarts:2 ~pool ~rng:(Rng.create ~seed:0x5EEDL) m
              in
              Alcotest.(check int) (name ^ ": sweep length") (Array.length want) (Array.length got);
              Array.iteri
                (fun i (k, res, score) ->
                  let gk, gres, gscore = got.(i) in
                  let label = Printf.sprintf "%s sweep k=%d jobs %d" name k jobs in
                  Alcotest.(check int) (label ^ ": K") k gk;
                  same_kmeans label res gres;
                  Alcotest.(check int64) (label ^ ": BIC bits") (Int64.bits_of_float score)
                    (Int64.bits_of_float gscore))
                want)
            [ ("dups", dups); ("five", five); ("blobs", blobs) ]))
    [ 1; 4 ];
  Array.iteri
    (fun lane n -> if n = 0 then Alcotest.failf "no exact tie fell in lane %d" lane)
    Ref_kmeans.tie_lanes;
  if !Ref_kmeans.cross_group_ties = 0 then Alcotest.fail "no exact tie crossed a group";
  if !Ref_kmeans.reseeds = 0 then Alcotest.fail "no empty cluster was reseeded";
  if !Ref_kmeans.stale_exits = 0 then Alcotest.fail "no max_iters exit moved a point"

(* ---------------- pipeline cache staleness and corruption ---------------- *)

let cache_config dir =
  { Pipeline.default_config with Pipeline.icount = 1_000; cache_dir = Some dir;
    progress = false; jobs = 1 }

let cache_file dir kind = Filename.concat dir (Printf.sprintf "%s-%s-1000.csv" kind Pipeline.model_version)

let test_cache_hit_is_consumed () =
  (* precondition for the staleness tests: a valid current-version cache row
     is actually read back, not recomputed *)
  Tutil.with_temp_dir (fun dir ->
      let w = List.hd (golden_trio ()) in
      let config = cache_config dir in
      let (_ : Mica_core.Dataset.t) = Pipeline.mica_dataset ~config [ w ] in
      let path = cache_file dir "mica" in
      Alcotest.(check bool) "cache written" true (Sys.file_exists path);
      (* poison characteristic 1 of the cached row with a recognizable value *)
      let ds = Mica_core.Dataset.of_csv path in
      ds.Mica_core.Dataset.data.(0).(0) <- 42.0;
      Mica_core.Dataset.to_csv ds path;
      let reread = Pipeline.mica_dataset ~config [ w ] in
      Alcotest.check Tutil.feq "poisoned row consumed" 42.0
        reread.Mica_core.Dataset.data.(0).(0))

let test_cache_stale_version_invalidated () =
  Tutil.with_temp_dir (fun dir ->
      let w = List.hd (golden_trio ()) in
      let config = cache_config dir in
      let fresh = Pipeline.mica_dataset ~config:{ config with Pipeline.cache_dir = None } [ w ] in
      (* plant a poisoned cache under a *previous* model version: the version
         is part of the cache key, so it must be ignored and recomputed *)
      let (_ : Mica_core.Dataset.t) = Pipeline.mica_dataset ~config [ w ] in
      let current = cache_file dir "mica" in
      let ds = Mica_core.Dataset.of_csv current in
      ds.Mica_core.Dataset.data.(0).(0) <- 42.0;
      Mica_core.Dataset.to_csv ds (Filename.concat dir "mica-v0-1000.csv");
      Sys.remove current;
      let got = Pipeline.mica_dataset ~config [ w ] in
      Alcotest.check Tutil.feq "stale row ignored" fresh.Mica_core.Dataset.data.(0).(0)
        got.Mica_core.Dataset.data.(0).(0);
      Alcotest.(check bool) "current-version cache rewritten" true (Sys.file_exists current))

let test_cache_corrupt_recomputed () =
  Tutil.with_temp_dir (fun dir ->
      let w = List.hd (golden_trio ()) in
      let config = cache_config dir in
      let fresh = Pipeline.mica_dataset ~config:{ config with Pipeline.cache_dir = None } [ w ] in
      let write path text =
        let oc = open_out path in
        output_string oc text;
        close_out oc
      in
      write (cache_file dir "mica") "this is not , a valid\ncsv cache \"file";
      write (cache_file dir "hpc") "name,x\n";
      let got = Pipeline.mica_dataset ~config [ w ] in
      Alcotest.check Tutil.feq "recomputed over corrupt cache"
        fresh.Mica_core.Dataset.data.(0).(0) got.Mica_core.Dataset.data.(0).(0))

let test_cache_truncated_recomputed () =
  Tutil.with_temp_dir (fun dir ->
      let w = List.hd (golden_trio ()) in
      let config = cache_config dir in
      let (_ : Mica_core.Dataset.t) = Pipeline.mica_dataset ~config [ w ] in
      let path = cache_file dir "mica" in
      (* chop the file mid-row, as a crashed writer would leave it *)
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub contents 0 (len / 2));
      close_out oc;
      let fresh = Pipeline.mica_dataset ~config:{ config with Pipeline.cache_dir = None } [ w ] in
      let got = Pipeline.mica_dataset ~config [ w ] in
      Alcotest.check Tutil.feq "recomputed over truncated cache"
        fresh.Mica_core.Dataset.data.(0).(0) got.Mica_core.Dataset.data.(0).(0))

(* ---------------- supervised pool and crash-safe caches ---------------- *)

module Fault = Mica_util.Fault
module Run_report = Mica_core.Run_report

let plan_exn spec =
  match Fault.parse spec with
  | Ok p -> p
  | Error msg -> Alcotest.failf "plan %S rejected: %s" spec msg

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Acceptance differential: with faults disabled, supervised execution is
   bit-identical to [Pool.run] over the real characterization body, at
   jobs=1 and jobs=4. *)
let test_run_results_matches_run_differential () =
  let workloads = Array.of_list (golden_trio ()) in
  let config = { (cache_config "/nonexistent") with Pipeline.cache_dir = None } in
  let body i = Pipeline.characterize config workloads.(i) in
  let via_run jobs =
    Pool.with_pool ~jobs (fun pool ->
        let out = Array.make (Array.length workloads) None in
        Pool.run pool (Array.length workloads) (fun i -> out.(i) <- Some (body i));
        Array.map Option.get out)
  in
  let via_results jobs =
    Pool.with_pool ~jobs (fun pool ->
        Array.map
          (fun (o : _ Pool.outcome) ->
            match o.Pool.result with
            | Ok v -> v
            | Error _ -> Alcotest.fail "unexpected failure without faults")
          (Pool.run_results pool (Array.length workloads) body))
  in
  List.iter
    (fun jobs ->
      if via_run jobs <> via_results jobs then
        Alcotest.failf "run_results differs from run at jobs=%d" jobs)
    [ 1; 4 ];
  if via_results 1 <> via_results 4 then
    Alcotest.fail "run_results not bit-identical across jobs"

let test_cache_checksum_quarantine () =
  Tutil.with_temp_dir (fun dir ->
      let w = List.hd (golden_trio ()) in
      let config = cache_config dir in
      let fresh = Pipeline.mica_dataset ~config [ w ] in
      let path = cache_file dir "mica" in
      (* flip one digit inside the committed body, keeping the CSV shape
         valid: only the checksum can catch this *)
      let contents = read_file path in
      let pos = String.length contents - 5 in
      let flipped = if contents.[pos] = '1' then '2' else '1' in
      let oc = open_out_bin path in
      output_string oc (String.sub contents 0 pos);
      output_char oc flipped;
      output_string oc (String.sub contents (pos + 1) (String.length contents - pos - 1));
      close_out oc;
      let got = Pipeline.mica_dataset ~config [ w ] in
      Alcotest.check Tutil.feq "recomputed, not silently consumed"
        fresh.Mica_core.Dataset.data.(0).(0) got.Mica_core.Dataset.data.(0).(0);
      Alcotest.(check bool) "corrupt file quarantined" true
        (Sys.file_exists (path ^ ".quarantined"));
      Alcotest.(check bool) "fresh cache rewritten" true (Sys.file_exists path))

(* Killed-mid-batch resume: fail the main cache commit (and workload 0's
   checkpoint) with an injected cache.write fault, leaving only the other
   workloads' checkpoints on disk — the state a kill after two of three
   workloads leaves behind.  The rerun must resume from checkpoints and
   commit caches byte-identical to an uninterrupted run. *)
let test_crash_resume_bit_identical () =
  let trio = golden_trio () in
  Tutil.with_temp_dir (fun ref_dir ->
      Tutil.with_temp_dir (fun dir ->
          let reference =
            let config = cache_config ref_dir in
            let mica, hpc, _ = Pipeline.datasets_report ~config trio in
            ignore mica;
            ignore hpc;
            (read_file (cache_file ref_dir "mica"), read_file (cache_file ref_dir "hpc"))
          in
          let config = cache_config dir in
          (* interrupted run: the main cache save runs at ambient task 0,
             so cache.write=1@0 kills it (plus task 0's checkpoint) *)
          Fault.with_plan
            (Some (plan_exn "seed=1,cache.write=1@0"))
            (fun () ->
              let _, _, report = Pipeline.datasets_report ~config trio in
              Alcotest.(check int) "interrupted run computed everything" 3
                (Run_report.computed report));
          Alcotest.(check bool) "main cache not committed" false
            (Sys.file_exists (cache_file dir "mica"));
          let ckpt_dir = Filename.concat dir "checkpoints" in
          Alcotest.(check int) "two checkpoints survive the interruption" 2
            (Array.length (Sys.readdir ckpt_dir));
          (* resumed run *)
          let _, _, report = Pipeline.datasets_report ~config trio in
          Alcotest.(check int) "resumed from checkpoints" 2 (Run_report.resumed report);
          Alcotest.(check int) "recomputed the lost workload" 1 (Run_report.computed report);
          Alcotest.(check (list string)) "checkpoints cleaned up" []
            (Array.to_list (Sys.readdir ckpt_dir));
          Alcotest.(check string) "mica cache bit-identical to uninterrupted run"
            (fst reference)
            (read_file (cache_file dir "mica"));
          Alcotest.(check string) "hpc cache bit-identical to uninterrupted run"
            (snd reference)
            (read_file (cache_file dir "hpc"))))

(* Graceful degradation: one permanently failing workload must not cost the
   others their rows, and the report must name it with a backtrace. *)
let test_failing_workload_degrades_gracefully () =
  Tutil.with_temp_dir (fun dir ->
      let trio = golden_trio () in
      let failing_id = Workload.id (List.nth trio 1) in
      let config = { (cache_config dir) with Pipeline.retries = 1 } in
      Fault.with_plan
        (Some (plan_exn "seed=2,trace.gen=1@1"))
        (fun () ->
          let mica, hpc, report = Pipeline.datasets_report ~config trio in
          Alcotest.(check int) "survivors emitted" 2 (Mica_core.Dataset.rows mica);
          Alcotest.(check int) "hpc rows match" 2 (Mica_core.Dataset.rows hpc);
          Alcotest.(check bool) "failed row absent" true
            (Mica_core.Dataset.row_index mica failing_id = None);
          match Run_report.failures report with
          | [ { Run_report.id; status = Failed { attempts; error; backtrace }; _ } ] ->
            Alcotest.(check string) "failure names the workload" failing_id id;
            Alcotest.(check int) "budget consumed" 2 attempts;
            Alcotest.(check bool) "error mentions the injection" true
              (String.length error > 0);
            Alcotest.(check bool) "backtrace captured" true (String.length backtrace > 0)
          | other -> Alcotest.failf "expected exactly one failure, got %d" (List.length other));
      (* strict [datasets] must refuse the same run loudly *)
      Fault.with_plan
        (Some (plan_exn "seed=2,trace.gen=1@1"))
        (fun () ->
          match Pipeline.datasets ~config:{ config with Pipeline.cache_dir = None } trio with
          | _ -> Alcotest.fail "datasets must raise on a failed workload"
          | exception Failure msg ->
            Alcotest.(check bool) "message names the workload" true
              (let re = failing_id in
               let len = String.length re in
               let n = String.length msg in
               let rec scan i = i + len <= n && (String.sub msg i len = re || scan (i + 1)) in
               scan 0)))

(* ---------------- observability inertness ----------------

   The DESIGN.md §11 contract: probes observe, they never feed back.  The
   differentials below run the real kernels with metrics fully enabled and
   compare the results structurally against a metrics-off run — any
   divergence, at any [jobs], is a probe leaking into pipeline logic. *)

module Obs = Mica_obs.Obs

let with_metrics on f =
  Obs.reset ();
  Obs.set_enabled on;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let test_metrics_inert_characterization () =
  let trio = golden_trio () in
  let run ~jobs ~metrics =
    with_metrics metrics (fun () ->
        Pipeline.datasets
          ~config:
            { Pipeline.default_config with Pipeline.icount = 1_000; cache_dir = None;
              progress = false; jobs }
          trio)
  in
  List.iter
    (fun jobs ->
      let off = run ~jobs ~metrics:false in
      let on = run ~jobs ~metrics:true in
      if off <> on then
        Alcotest.failf "characterization not bit-identical metrics on/off at jobs=%d" jobs;
      (* and the instrumented run did actually record something *)
      ignore on)
    [ 1; 4 ];
  (* sanity: the enabled run above exercised real probes — prove a fresh
     instrumented run produces non-empty readings, so the differential is
     not vacuously comparing two uninstrumented paths *)
  with_metrics true (fun () ->
      let (_ : Mica_core.Dataset.t * Mica_core.Dataset.t) =
        Pipeline.datasets
          ~config:
            { Pipeline.default_config with Pipeline.icount = 1_000; cache_dir = None;
              progress = false; jobs = 1 }
          [ List.hd trio ]
      in
      let snap = Obs.snapshot () in
      Alcotest.(check bool) "spans recorded" true (snap.Obs.spans <> []);
      match List.assoc_opt "trace.instrs" snap.Obs.metrics with
      | Some (Obs.Counter v) -> Alcotest.(check bool) "instr counter advanced" true (v > 0.0)
      | _ -> Alcotest.fail "trace.instrs counter missing")

let test_metrics_inert_selection_and_clustering () =
  let rng = Rng.create ~seed:0x0B5E1L in
  let cols = 8 in
  let data =
    Array.init 18 (fun _ -> Array.init cols (fun _ -> Rng.gaussian rng ~mu:0.0 ~sigma:1.0))
  in
  let normalized = Stats.Normalize.zscore data in
  let fit = Select.Fitness.create normalized in
  let config =
    { Select.Genetic.default_config with
      Select.Genetic.population = 12; max_generations = 12; stall_generations = 6 }
  in
  let points =
    Array.init 24 (fun i ->
        let cx = if i < 12 then -3.0 else 3.0 in
        Array.init 3 (fun _ -> cx +. Rng.gaussian rng ~mu:0.0 ~sigma:0.5))
  in
  let path_splits = ref [] in
  List.iter
    (fun jobs ->
      let ga metrics =
        with_metrics metrics (fun () ->
            let r =
              Pool.with_pool ~jobs (fun pool ->
                  Select.Genetic.run ~config ~pool ~rng:(Rng.create ~seed:7L) fit)
            in
            let counter name =
              match List.assoc_opt name (Obs.snapshot ()).Obs.metrics with
              | Some (Obs.Counter v) -> v
              | _ -> Float.nan
            in
            (r, (counter "ga.rebuild_evals", counter "ga.delta_evals")))
      in
      let ga_off, _ = ga false and ga_on, (rebuild, delta) = ga true in
      (* the per-path counters split exactly the evaluations the run reports *)
      if rebuild +. delta <> float_of_int ga_on.Select.Genetic.evaluations then
        Alcotest.failf "GA path counters %g + %g <> %d evaluations at jobs=%d" rebuild delta
          ga_on.Select.Genetic.evaluations jobs;
      path_splits := (rebuild, delta) :: !path_splits;
      Alcotest.(check (array int))
        (Printf.sprintf "GA selection inert at jobs=%d" jobs)
        ga_off.Select.Genetic.selected ga_on.Select.Genetic.selected;
      if ga_off.Select.Genetic.fitness <> ga_on.Select.Genetic.fitness then
        Alcotest.failf "GA fitness not bit-identical metrics on/off at jobs=%d" jobs;
      if ga_off.Select.Genetic.best_history <> ga_on.Select.Genetic.best_history then
        Alcotest.failf "GA history not bit-identical metrics on/off at jobs=%d" jobs;
      let km metrics =
        with_metrics metrics (fun () ->
            Pool.with_pool ~jobs (fun pool ->
                Stats.Kmeans.fit ~restarts:4 ~pool ~rng:(Rng.create ~seed:3L) ~k:2 points))
      in
      let km_off = km false and km_on = km true in
      Alcotest.(check (array int))
        (Printf.sprintf "kmeans assignments inert at jobs=%d" jobs)
        km_off.Stats.Kmeans.assignments km_on.Stats.Kmeans.assignments;
      if km_off.Stats.Kmeans.inertia <> km_on.Stats.Kmeans.inertia then
        Alcotest.failf "kmeans inertia not bit-identical metrics on/off at jobs=%d" jobs;
      let sweep metrics =
        with_metrics metrics (fun () ->
            Pool.with_pool ~jobs (fun pool ->
                Array.map
                  (fun (k, _, s) -> (k, s))
                  (Stats.Bic.sweep ~k_min:1 ~k_max:5 ~restarts:2 ~pool
                     ~rng:(Rng.create ~seed:5L) points)))
      in
      if sweep false <> sweep true then
        Alcotest.failf "BIC sweep not bit-identical metrics on/off at jobs=%d" jobs)
    [ 1; 4 ];
  match !path_splits with
  | [ at4; at1 ] -> if at1 <> at4 then Alcotest.fail "GA path counters differ across jobs"
  | _ -> assert false

(* Span-tree well-formedness under the fault-injection matrix: every
   injection point, driven through the supervised pipeline, must leave
   every domain's event journal as a balanced bracket sequence — the
   injected exceptions unwind through [Obs.span]'s finalizer, so a fault
   can truncate work but never leave a span open or cross spans over. *)
let test_span_tree_under_fault_matrix () =
  let trio = golden_trio () in
  let config =
    { Pipeline.default_config with Pipeline.icount = 1_000; cache_dir = None;
      progress = false; jobs = 2; retries = 1 }
  in
  List.iter
    (fun point ->
      let spec = Printf.sprintf "seed=41,%s=0.35" (Fault.point_name point) in
      Obs.reset ();
      Obs.set_enabled true;
      Obs.set_record_events true;
      Fun.protect
        ~finally:(fun () ->
          Obs.set_enabled false;
          Obs.set_record_events false;
          Obs.reset ())
        (fun () ->
          Fault.with_plan
            (Some (plan_exn spec))
            (fun () ->
              let _, _, (_ : Run_report.t) = Pipeline.datasets_report ~config trio in
              ());
          let total = ref 0 in
          List.iter
            (fun (sid, evs) ->
              total := !total + List.length evs;
              let stack = ref [] in
              List.iter
                (fun e ->
                  if e.Obs.ev_enter then stack := e.Obs.ev_name :: !stack
                  else
                    match !stack with
                    | top :: rest when top = e.Obs.ev_name -> stack := rest
                    | top :: _ ->
                      Alcotest.failf "%s: store %d exits %S while %S is open" spec sid
                        e.Obs.ev_name top
                    | [] ->
                      Alcotest.failf "%s: store %d exits %S with no span open" spec sid
                        e.Obs.ev_name)
                evs;
              if !stack <> [] then
                Alcotest.failf "%s: store %d left %d spans open" spec sid
                  (List.length !stack))
            (Obs.events ());
          if !total = 0 then Alcotest.failf "%s: no events recorded" spec))
    Fault.all_points

(* ---------------- suite ---------------- *)

let test_suite_smoke () =
  let report =
    V.Suite.run ~level:V.Suite.Quick
      ~workloads:[ List.hd (golden_trio ()) ]
      ~invariant_icount:2_000 ~reference_icount:500 ~differential_icount:1_000 ()
  in
  Alcotest.(check bool) "suite passes" true (V.Suite.passed report);
  (* one workload: invariants + reference + 2 per-workload laws + 2 global,
     plus the 5 sketch laws, the 2 single-workload serve laws and the 5
     workload-independent scale laws *)
  Alcotest.(check int) "check count" 18 (List.length report.V.Suite.checks);
  Alcotest.(check bool) "scale layer present" true
    (List.exists (fun c -> c.V.Suite.layer = "scale") report.V.Suite.checks);
  Alcotest.(check bool) "sketch layer present" true
    (List.exists (fun c -> c.V.Suite.layer = "sketch") report.V.Suite.checks);
  Alcotest.(check bool) "render mentions failures line" true
    (String.length (V.Suite.render report) > 0)

let suite =
  ( "verify",
    [
      Alcotest.test_case "invariants: clean trace" `Quick test_inv_clean_trace;
      Alcotest.test_case "invariants: defined before use" `Quick test_inv_defined_before_use;
      Alcotest.test_case "invariants: pc chain" `Quick test_inv_pc_chain;
      Alcotest.test_case "invariants: mem addr" `Quick test_inv_mem_addr;
      Alcotest.test_case "invariants: ctrl target" `Quick test_inv_ctrl_target;
      Alcotest.test_case "invariants: branch target" `Quick test_inv_branch_target_consistency;
      Alcotest.test_case "invariants: reg id" `Quick test_inv_reg_id;
      Alcotest.test_case "invariants: icount" `Quick test_inv_icount;
      Alcotest.test_case "invariants: max violations" `Quick test_inv_max_violations;
      prop_invariants_on_random_specs;
      prop_reference_agrees_on_random_specs;
      prop_prefix_law_on_random_specs;
      Alcotest.test_case "reference: golden workloads" `Quick test_reference_on_golden_workloads;
      Alcotest.test_case "reference: chunked transport" `Quick
        test_chunked_transport_matches_reference;
      Alcotest.test_case "kernels: exact on golden workloads" `Quick
        test_kernels_exact_on_golden_workloads;
      prop_kernels_exact_on_random_specs;
      Alcotest.test_case "kernels: exact on hand chunk" `Quick test_kernels_exact_on_hand_chunk;
      Alcotest.test_case "reference: empty trace" `Quick test_reference_empty_trace;
      Alcotest.test_case "reference: catches drift" `Quick test_reference_catches_drift;
      Alcotest.test_case "differential: laws" `Quick test_differential_laws;
      Alcotest.test_case "differential: prefix invalid" `Quick test_differential_prefix_invalid;
      Alcotest.test_case "differential: jobs equality" `Quick test_differential_jobs_equality;
      Alcotest.test_case "differential: cache roundtrip" `Quick test_differential_cache_roundtrip;
      Alcotest.test_case "kernels: fused fitness vs naive" `Quick
        test_fused_fitness_matches_naive_reference;
      Alcotest.test_case "kernels: subset delta tolerance" `Quick
        test_subset_delta_within_tolerance;
      Alcotest.test_case "kernels: delta clamps negative sums" `Quick
        test_delta_clamps_negative_sums;
      Alcotest.test_case "kernels: batch eval vs per-genome reference" `Quick
        test_batch_eval_matches_reference;
      Alcotest.test_case "kernels: leave-one-out vs naive" `Quick
        test_ce_leave_one_out_matches_naive;
      Alcotest.test_case "kernels: CE vs naive elimination" `Quick
        test_ce_matches_naive_elimination;
      Alcotest.test_case "kernels: CE steps exact on baseline" `Quick
        test_ce_steps_exact_on_baseline;
      Alcotest.test_case "kernels: selection jobs invariance" `Quick
        test_selection_jobs_invariance;
      Alcotest.test_case "kernels: clustering jobs invariance" `Quick
        test_clustering_jobs_invariance;
      Alcotest.test_case "kernels: k-means ties vs naive argmin" `Quick
        test_kmeans_ties_match_naive_argmin;
      Alcotest.test_case "kernels: k-means vs sequential reference" `Quick
        test_kmeans_matches_sequential_reference;
      Alcotest.test_case "cache: hit consumed" `Quick test_cache_hit_is_consumed;
      Alcotest.test_case "cache: stale version invalidated" `Quick
        test_cache_stale_version_invalidated;
      Alcotest.test_case "cache: corrupt recomputed" `Quick test_cache_corrupt_recomputed;
      Alcotest.test_case "cache: truncated recomputed" `Quick test_cache_truncated_recomputed;
      Alcotest.test_case "supervised: run_results vs run differential" `Quick
        test_run_results_matches_run_differential;
      Alcotest.test_case "cache: checksum quarantine" `Quick test_cache_checksum_quarantine;
      Alcotest.test_case "cache: crash-resume bit-identical" `Quick
        test_crash_resume_bit_identical;
      Alcotest.test_case "supervised: failing workload degrades" `Quick
        test_failing_workload_degrades_gracefully;
      Alcotest.test_case "obs: characterization inert" `Quick
        test_metrics_inert_characterization;
      Alcotest.test_case "obs: selection/clustering inert" `Quick
        test_metrics_inert_selection_and_clustering;
      Alcotest.test_case "obs: span tree under faults" `Quick
        test_span_tree_under_fault_matrix;
      Alcotest.test_case "suite smoke" `Quick test_suite_smoke;
    ] )
