(* xoshiro256** with SplitMix64 seeding.  See Blackman & Vigna,
   "Scrambled linear pseudorandom number generators".

   The 256-bit state lives in eight untagged [int] fields, each holding one
   32-bit half of a state word.  Plain [int64] state would box a fresh
   Int64 for every field store and most intermediates on the non-flambda
   compiler, which puts ~15 minor words on every draw — and the trace
   generator draws on the hot path.  The step function only ever multiplies
   by the constants 5 and 9, so full 64-bit arithmetic reduces to
   shift-and-add on (hi, lo) pairs and the split-word form is bit-exact
   with the reference implementation (asserted by the pinned golden
   vectors in the test suite). *)

type t = {
  mutable s0h : int;
  mutable s0l : int;
  mutable s1h : int;
  mutable s1l : int;
  mutable s2h : int;
  mutable s2l : int;
  mutable s3h : int;
  mutable s3l : int;
  (* 64-bit output of the last step, as (hi, lo); scratch fields so [step]
     can hand both halves back without allocating a pair *)
  mutable rh : int;
  mutable rl : int;
}

let mask32 = 0xFFFFFFFF

(* SplitMix64 step: used only for seeding and [split], so boxed [int64]
   arithmetic is fine here. *)
let splitmix64 state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hi64 x = Int64.to_int (Int64.shift_right_logical x 32)
let lo64 x = Int64.to_int (Int64.logand x 0xFFFFFFFFL)

let create ~seed =
  let st = ref seed in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  {
    s0h = hi64 s0;
    s0l = lo64 s0;
    s1h = hi64 s1;
    s1l = lo64 s1;
    s2h = hi64 s2;
    s2l = lo64 s2;
    s3h = hi64 s3;
    s3l = lo64 s3;
    rh = 0;
    rl = 0;
  }

let hash_string s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let of_string s = create ~seed:(hash_string s)

(* One xoshiro256** step on split words.  64-bit ops on (hi, lo):
   - xor and shifts act componentwise with carry across the halves;
   - rotl by k < 32 moves each half's top k bits into the other's bottom;
   - rotl by 32 + k swaps the halves first;
   - mul by a small constant c is exact: lo * c fits far below 2^62, its
     bits above 32 carry into hi, and truncation mod 2^64 is the mask. *)
let step t =
  let s1h = t.s1h and s1l = t.s1l in
  (* m = s1 * 5 *)
  let p = s1l * 5 in
  let ml = p land mask32 in
  let mh = ((s1h * 5) + (p lsr 32)) land mask32 in
  (* r = rotl m 7 *)
  let rh = ((mh lsl 7) lor (ml lsr 25)) land mask32 in
  let rl = ((ml lsl 7) lor (mh lsr 25)) land mask32 in
  (* result = r * 9 *)
  let q = rl * 9 in
  t.rl <- q land mask32;
  t.rh <- ((rh * 9) + (q lsr 32)) land mask32;
  (* tmp = s1 lsl 17 *)
  let th = ((s1h lsl 17) lor (s1l lsr 15)) land mask32 in
  let tl = (s1l lsl 17) land mask32 in
  let s2h = t.s2h lxor t.s0h and s2l = t.s2l lxor t.s0l in
  let s3h = t.s3h lxor s1h and s3l = t.s3l lxor s1l in
  let s1h = s1h lxor s2h and s1l = s1l lxor s2l in
  let s0h = t.s0h lxor s3h and s0l = t.s0l lxor s3l in
  let s2h = s2h lxor th and s2l = s2l lxor tl in
  (* s3 = rotl s3 45 = rotl (swapped halves) 13 *)
  let n3h = ((s3l lsl 13) lor (s3h lsr 19)) land mask32 in
  let n3l = ((s3h lsl 13) lor (s3l lsr 19)) land mask32 in
  t.s3h <- n3h;
  t.s3l <- n3l;
  t.s0h <- s0h;
  t.s0l <- s0l;
  t.s1h <- s1h;
  t.s1l <- s1l;
  t.s2h <- s2h;
  t.s2l <- s2l

let bits64 t =
  step t;
  Int64.logor (Int64.shift_left (Int64.of_int t.rh) 32) (Int64.of_int t.rl)

let split t = create ~seed:(bits64 t)

let copy t =
  {
    s0h = t.s0h;
    s0l = t.s0l;
    s1h = t.s1h;
    s1l = t.s1l;
    s2h = t.s2h;
    s2l = t.s2l;
    s3h = t.s3h;
    s3l = t.s3l;
    rh = t.rh;
    rl = t.rl;
  }

(* Non-negative 62-bit int from the high bits. *)
let bits_int t =
  step t;
  (t.rh lsl 30) lor (t.rl lsr 2)

let rec int_reject t n bound =
  let v = bits_int t in
  if v < bound then v mod n else int_reject t n bound

let int t n =
  assert (n > 0);
  (* Rejection to avoid modulo bias. *)
  let bound = 0x3FFF_FFFF_FFFF_FFFF / n * n in
  int_reject t n bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 uniform mantissa bits: bits64 lsr 11, i.e. rh:21 over rl:21..31. *)
  step t;
  let v = float_of_int ((t.rh lsl 21) lor (t.rl lsr 11)) in
  x *. (v *. 0x1.0p-53)

let bool t =
  step t;
  t.rh land 0x80000000 <> 0

let bernoulli t ~p =
  if p <= 0. then false
  else if p >= 1. then true
  else float t 1.0 < p

let geometric t ~p =
  assert (p > 0. && p <= 1.);
  if p >= 1. then 0
  else
    let u = 1.0 -. float t 1.0 in
    (* inverse CDF; [u] in (0,1] so log is finite *)
    int_of_float (Float.of_int 0 +. floor (log u /. log (1. -. p)))

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let exponential t ~mean =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0. then u else nonzero ()
  in
  -.mean *. log (nonzero ())

(* Zipf sampling by rejection (Devroye); exact for s > 0, fast for small n too. *)
let zipf t ~n ~s =
  assert (n > 0);
  if n = 1 then 0
  else begin
    let nf = float_of_int n in
    if abs_float (s -. 1.0) < 1e-9 then begin
      (* harmonic case: invert H(x) = ln(1+x) approximately, then reject *)
      let hn = log (nf +. 1.0) in
      let rec go () =
        let u = float t 1.0 in
        let x = exp (u *. hn) -. 1.0 in
        let k = int_of_float x in
        if k < n then k else go ()
      in
      go ()
    end
    else begin
      let one_minus_s = 1.0 -. s in
      (* CDF of the continuous envelope over [0, n] *)
      let hx x = ((x +. 1.0) ** one_minus_s -. 1.0) /. one_minus_s in
      let hn = hx nf in
      let rec go () =
        let u = float t 1.0 *. hn in
        let x = ((u *. one_minus_s) +. 1.0) ** (1.0 /. one_minus_s) -. 1.0 in
        let k = int_of_float x in
        if k >= 0 && k < n then begin
          (* acceptance: ratio of true pmf to envelope slice; the envelope is
             within a constant factor so accept with ratio test *)
          let pk = (float_of_int k +. 1.0) ** -.s in
          let env = hx (float_of_int k +. 1.0) -. hx (float_of_int k) in
          if float t 1.0 *. env <= pk then k else go ()
        end
        else go ()
      in
      go ()
    end
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let rec pick_weighted_from choices r i acc =
  if i = Array.length choices - 1 then snd choices.(i)
  else
    let w, x = choices.(i) in
    let acc = acc +. w in
    if r < acc then x else pick_weighted_from choices r (i + 1) acc

(* The weights' sum in array order from 0.0, the same float as a left fold,
   without the fold's per-call closure. *)
let total_weight (choices : (float * _) array) =
  let total = ref 0.0 in
  for i = 0 to Array.length choices - 1 do
    total := !total +. fst choices.(i)
  done;
  !total

let pick_weighted t choices =
  let total = total_weight choices in
  assert (total > 0.);
  let r = float t total in
  pick_weighted_from choices r 0 0.0
