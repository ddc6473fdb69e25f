module Rng = Mica_util.Rng

let test_determinism () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_different_seeds () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_of_string_stable () =
  let a = Rng.of_string "bzip2" and b = Rng.of_string "bzip2" in
  Alcotest.(check int64) "name-derived seeds equal" (Rng.bits64 a) (Rng.bits64 b);
  let c = Rng.of_string "blast" in
  Alcotest.(check bool) "different names differ" true (Rng.bits64 a <> Rng.bits64 c)

let test_copy_and_split () =
  let a = Rng.create ~seed:7L in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  let a = Rng.create ~seed:7L in
  let child = Rng.split a in
  (* the child must not replay the parent's stream *)
  let parent_next = Rng.bits64 a and child_next = Rng.bits64 child in
  Alcotest.(check bool) "split independent" true (parent_next <> child_next)

let test_int_bounds () =
  let rng = Rng.create ~seed:3L in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "Rng.int out of range"
  done

let test_int_covers () =
  let rng = Rng.create ~seed:5L in
  let seen = Array.make 8 false in
  for _ = 1 to 1_000 do
    seen.(Rng.int rng 8) <- true
  done;
  Alcotest.(check bool) "all residues reached" true (Array.for_all Fun.id seen)

let test_int_in () =
  let rng = Rng.create ~seed:11L in
  for _ = 1 to 1_000 do
    let v = Rng.int_in rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.fail "int_in out of range"
  done

let test_float_range () =
  let rng = Rng.create ~seed:13L in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "float out of range"
  done

let test_bernoulli_extremes () =
  let rng = Rng.create ~seed:17L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng ~p:0.0);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng ~p:1.0)
  done

let test_bernoulli_rate () =
  let rng = Rng.create ~seed:19L in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_geometric () =
  let rng = Rng.create ~seed:23L in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    let v = Rng.geometric rng ~p:0.5 in
    if v < 0 then Alcotest.fail "geometric negative";
    sum := !sum + v
  done;
  (* mean of geometric(0.5) counting failures is (1-p)/p = 1 *)
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 1" true (abs_float (mean -. 1.0) < 0.1);
  Alcotest.(check int) "p=1 is always 0" 0 (Rng.geometric rng ~p:1.0)

let test_gaussian_moments () =
  let rng = Rng.create ~seed:29L in
  let n = 50_000 in
  let acc = Mica_stats.Descriptive.running_create () in
  for _ = 1 to n do
    Mica_stats.Descriptive.running_add acc (Rng.gaussian rng ~mu:3.0 ~sigma:2.0)
  done;
  Alcotest.(check bool) "mean near 3"
    true
    (abs_float (Mica_stats.Descriptive.running_mean acc -. 3.0) < 0.1);
  Alcotest.(check bool) "stddev near 2"
    true
    (abs_float (Mica_stats.Descriptive.running_stddev acc -. 2.0) < 0.1)

let test_exponential_mean () =
  let rng = Rng.create ~seed:31L in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:4.0
  done;
  Alcotest.(check bool) "mean near 4" true (abs_float ((!sum /. float_of_int n) -. 4.0) < 0.2)

let test_zipf_support_and_skew () =
  let rng = Rng.create ~seed:37L in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let v = Rng.zipf rng ~n:10 ~s:1.2 in
    if v < 0 || v >= 10 then Alcotest.fail "zipf out of range";
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true (counts.(0) > counts.(4));
  Alcotest.(check bool) "rank 0 beats rank 9" true (counts.(0) > counts.(9))

let test_zipf_harmonic_case () =
  let rng = Rng.create ~seed:41L in
  for _ = 1 to 1_000 do
    let v = Rng.zipf rng ~n:5 ~s:1.0 in
    if v < 0 || v >= 5 then Alcotest.fail "zipf s=1 out of range"
  done

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:43L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 Fun.id) sorted

let test_pick_weighted () =
  let rng = Rng.create ~seed:47L in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.pick_weighted rng [| (0.9, "a"); (0.1, "b"); (0.0, "c") |] in
    Hashtbl.replace counts v (1 + Option.value (Hashtbl.find_opt counts v) ~default:0)
  done;
  let get k = Option.value (Hashtbl.find_opt counts k) ~default:0 in
  Alcotest.(check int) "zero-weight never chosen" 0 (get "c");
  Alcotest.(check bool) "weights respected" true (get "a" > 7 * get "b")

(* The definition every pinned trace was generated with: sum the weights
   left to right from 0.0, draw [float total], return the first choice
   whose running sum exceeds the draw, or the last one. *)
let reference_pick rng choices =
  let total = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 choices in
  let r = Rng.float rng total in
  let n = Array.length choices in
  let rec go i acc =
    if i = n - 1 then snd choices.(i)
    else
      let acc = acc +. fst choices.(i) in
      if r < acc then snd choices.(i) else go (i + 1) acc
  in
  go 0 0.0

let test_pick_weighted_exact () =
  let a = Rng.create ~seed:53L and b = Rng.create ~seed:53L in
  let sets =
    [|
      [| (1.0, 0) |];
      [| (0.5, 0); (0.3, 1); (0.2, 2) |];
      [| (0.1, 0); (2.5, 1); (0.0, 2); (1e-3, 3); (7.0, 4) |];
      [| (0.0, 0); (1.0, 1); (0.0, 2) |];
    |]
  in
  for i = 1 to 20_000 do
    let c = sets.(i mod Array.length sets) in
    let x = Rng.pick_weighted a c and y = reference_pick b c in
    if x <> y then Alcotest.failf "draw %d: picked %d, reference %d" i x y
  done;
  Alcotest.(check int64) "same state afterwards" (Rng.bits64 b) (Rng.bits64 a);
  let c = sets.(2) in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    ignore (Rng.pick_weighted a c : int)
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 100.0 then Alcotest.failf "%.0f minor words over 100000 picks" words

(* The definitions every pinned trace was generated with, written from raw
   64-bit draws: [int] rejects draws at or above [max_int / n * n] and
   reduces the rest mod [n]; [bernoulli] compares one [float 1.0] draw with
   [p]; [geometric] inverts the CDF with [log (1 - p)] taken per call. *)
let reference_int rng n =
  let bound = max_int / n * n in
  let rec go () =
    let v = Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) 2) in
    if v < bound then v mod n else go ()
  in
  go ()

let reference_unit rng =
  Int64.to_float (Int64.shift_right_logical (Rng.bits64 rng) 11) *. 0x1.0p-53

let reference_bernoulli rng p =
  if p <= 0. then false else if p >= 1. then true else reference_unit rng < p

let reference_geometric rng p =
  if p >= 1. then 0
  else
    let u = 1.0 -. reference_unit rng in
    int_of_float (Float.of_int 0 +. floor (log u /. log (1. -. p)))

let test_draws_exact_and_allocation_free () =
  let a = Rng.create ~seed:59L and b = Rng.create ~seed:59L in
  (* bounds near max_int / 2 reject almost half their draws *)
  let bounds = [| 1; 2; 3; 7; 1000; (max_int / 2) + 2; (max_int / 3) + 1; max_int |] in
  let probs = [| 0.0; 1e-300; 0.1; 0.35; 0.9; 1.0 -. epsilon_float; 1.0 |] in
  for i = 1 to 20_000 do
    let n = bounds.(i mod Array.length bounds) and p = probs.(i mod Array.length probs) in
    let x = Rng.int a n and y = reference_int b n in
    if x <> y then Alcotest.failf "int %d, draw %d: %d, reference %d" n i x y;
    let x = Rng.bernoulli a ~p and y = reference_bernoulli b p in
    if x <> y then Alcotest.failf "bernoulli %h, draw %d: %b, reference %b" p i x y;
    if p > 0. then begin
      let x = Rng.geometric a ~p and y = reference_geometric b p in
      if x <> y then Alcotest.failf "geometric %h, draw %d: %d, reference %d" p i x y;
      let x = Rng.geometric_log a ~log_q:(log (1. -. p)) and y = reference_geometric b p in
      if x <> y then Alcotest.failf "geometric_log %h, draw %d: %d, reference %d" p i x y
    end
  done;
  Alcotest.(check int64) "same state afterwards" (Rng.bits64 b) (Rng.bits64 a);
  (* boxed once here, as a caller keeping it in a record would hold it *)
  let log_q = Sys.opaque_identity (log (1. -. 0.35)) in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    ignore (Rng.int a 1000 : int);
    ignore (Rng.bernoulli a ~p:0.35 : bool);
    ignore (Rng.geometric a ~p:0.35 : int);
    ignore (Rng.geometric_log a ~log_q : int)
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 100.0 then Alcotest.failf "%.0f minor words over 100000 rounds of draws" words

let test_shuffle_ints () =
  let a = Rng.create ~seed:61L and b = Rng.create ~seed:61L in
  let whole = Array.init 40 Fun.id in
  let part = Array.sub whole 7 25 in
  Rng.shuffle_ints a whole ~pos:7 ~len:25;
  Rng.shuffle b part;
  Alcotest.(check (array int)) "same permutation as shuffling the range alone" part
    (Array.sub whole 7 25);
  Alcotest.(check (array int)) "outside the range untouched"
    (Array.append (Array.init 7 Fun.id) (Array.init 8 (fun i -> 32 + i)))
    (Array.append (Array.sub whole 0 7) (Array.sub whole 32 8));
  Alcotest.(check int64) "same draws" (Rng.bits64 b) (Rng.bits64 a);
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "range %d+%d" pos len)
        (Invalid_argument "Rng.shuffle_ints")
        (fun () -> Rng.shuffle_ints a whole ~pos ~len))
    [ (-1, 3); (0, 41); (38, 3); (2, -1) ]

let test_hash_string () =
  Alcotest.(check bool) "distinct strings hash apart"
    true
    (Rng.hash_string "foo" <> Rng.hash_string "bar");
  Alcotest.(check int64) "hash is stable" (Rng.hash_string "foo") (Rng.hash_string "foo")

let prop_int_bound =
  Tutil.qcheck_case "Rng.int always in [0,n)"
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let prop_geometric_non_negative =
  Tutil.qcheck_case "geometric is non-negative"
    QCheck2.Gen.(pair (float_range 0.01 1.0) (int_bound 10_000))
    (fun (p, seed) ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      Rng.geometric rng ~p >= 0)

(* The production generator stores its 256-bit state as untagged 32-bit
   halves to keep the hot path allocation-free; this reference is the
   plain boxed-int64 xoshiro256** transcribed from Blackman & Vigna.  The
   two must agree bit for bit on every draw. *)
module Ref_xoshiro = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let splitmix64 state =
    let z = Int64.add !state 0x9E3779B97F4A7C15L in
    state := z;
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed =
    let st = ref seed in
    let s0 = splitmix64 st in
    let s1 = splitmix64 st in
    let s2 = splitmix64 st in
    let s3 = splitmix64 st in
    { s0; s1; s2; s3 }

  let bits64 t =
    let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
    let tmp = Int64.shift_left t.s1 17 in
    t.s2 <- Int64.logxor t.s2 t.s0;
    t.s3 <- Int64.logxor t.s3 t.s1;
    t.s1 <- Int64.logxor t.s1 t.s2;
    t.s0 <- Int64.logxor t.s0 t.s3;
    t.s2 <- Int64.logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result
end

let test_matches_int64_reference () =
  List.iter
    (fun seed ->
      let a = Rng.create ~seed and b = Ref_xoshiro.create seed in
      for i = 0 to 9_999 do
        let x = Rng.bits64 a and y = Ref_xoshiro.bits64 b in
        if not (Int64.equal x y) then
          Alcotest.failf "seed %Ld diverges from reference at draw %d: %Lx <> %Lx" seed i x y
      done)
    [ 0L; 1L; 42L; 0xDEADBEEFL; Int64.min_int; Int64.max_int; -1L ]

let suite =
  ( "rng",
    [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "different seeds" `Quick test_different_seeds;
      Alcotest.test_case "of_string stable" `Quick test_of_string_stable;
      Alcotest.test_case "copy and split" `Quick test_copy_and_split;
      Alcotest.test_case "int bounds" `Quick test_int_bounds;
      Alcotest.test_case "int covers residues" `Quick test_int_covers;
      Alcotest.test_case "int_in bounds" `Quick test_int_in;
      Alcotest.test_case "float range" `Quick test_float_range;
      Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
      Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
      Alcotest.test_case "geometric" `Quick test_geometric;
      Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
      Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
      Alcotest.test_case "zipf support and skew" `Quick test_zipf_support_and_skew;
      Alcotest.test_case "zipf harmonic case" `Quick test_zipf_harmonic_case;
      Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
      Alcotest.test_case "pick_weighted" `Quick test_pick_weighted;
      Alcotest.test_case "pick_weighted exact and allocation-free" `Quick
        test_pick_weighted_exact;
      Alcotest.test_case "int, bernoulli, geometric exact and allocation-free" `Quick
        test_draws_exact_and_allocation_free;
      Alcotest.test_case "shuffle_ints" `Quick test_shuffle_ints;
      Alcotest.test_case "hash_string" `Quick test_hash_string;
      Alcotest.test_case "matches boxed int64 reference" `Quick test_matches_int64_reference;
      prop_int_bound;
      prop_geometric_non_negative;
    ] )
