(* xoshiro256** with SplitMix64 seeding.  See Blackman & Vigna,
   "Scrambled linear pseudorandom number generators".

   The 256-bit state lives in a 40-byte buffer as four native 64-bit
   words, followed by the output of the last step.  The [%caml_bytes_*64u]
   primitives read and write those words unboxed, so the step function is
   plain 64-bit arithmetic in registers.  A record of [int64] fields would
   box a fresh Int64 on every field store on the non-flambda compiler (~15
   minor words per draw), and the trace generator draws on the hot path.
   The stream is bit-exact with the reference implementation (asserted by
   the pinned golden vectors in the test suite). *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* byte offsets of the state words and of the last output *)
let w0 = 0
let w1 = 8
let w2 = 16
let w3 = 24
let out = 32

(* SplitMix64 step: used only for seeding and [split], so boxed [int64]
   arithmetic is fine here. *)
let splitmix64 state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed =
  let st = ref seed in
  let t = Bytes.make 40 '\000' in
  List.iter (fun w -> set64 t w (splitmix64 st)) [ w0; w1; w2; w3 ];
  t

let hash_string s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let of_string s = create ~seed:(hash_string s)

(* One xoshiro256** step; its output goes to [out].  Every intermediate is
   a let-bound [int64] consumed only by [Int64] primitives, which the
   compiler keeps unboxed. *)
let step t =
  let s0 = get64 t w0 and s1 = get64 t w1 and s2 = get64 t w2 and s3 = get64 t w3 in
  (* result = rotl (s1 * 5) 7 * 9 *)
  let m = Int64.mul s1 5L in
  let r = Int64.logor (Int64.shift_left m 7) (Int64.shift_right_logical m 57) in
  set64 t out (Int64.mul r 9L);
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 tmp in
  (* s3 = rotl s3 45 *)
  let s3 = Int64.logor (Int64.shift_left s3 45) (Int64.shift_right_logical s3 19) in
  set64 t w0 s0;
  set64 t w1 s1;
  set64 t w2 s2;
  set64 t w3 s3

let bits64 t =
  step t;
  get64 t out

let split t = create ~seed:(bits64 t)

let copy = Bytes.copy

(* Non-negative 62-bit int from the high bits. *)
let bits_int t =
  step t;
  Int64.to_int (Int64.shift_right_logical (get64 t out) 2)

(* Rejection to avoid modulo bias: a draw [v] is kept when it lies below
   the largest multiple of [n] that fits in [0, max_int], that is when
   [v / n < max_int / n].  With [r = v mod n] that is [v - r + n <= max_int],
   so the bound costs no division of its own; written [v - r <= max_int - n]
   it cannot overflow. *)
let rec int_reject t n =
  let v = bits_int t in
  let r = v mod n in
  if v - r <= max_int - n then r else int_reject t n

let int t n =
  assert (n > 0);
  int_reject t n

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

(* A uniform float in [0, 1) from 53 mantissa bits: bits64 lsr 11.
   Inlined, so callers get it unboxed; a call would box the result (2
   minor words per draw). *)
let[@inline] unit_float t =
  step t;
  Int64.to_float (Int64.shift_right_logical (get64 t out) 11) *. 0x1.0p-53

let float t x = x *. unit_float t

let bool t =
  step t;
  get64 t out < 0L

(* [unit_float t] is the same float as [float t 1.0]: multiplying by 1.0
   is exact. *)
let bernoulli t ~p =
  if p <= 0. then false
  else if p >= 1. then true
  else unit_float t < p

(* [log_q = log (1 - p)] is [neg_infinity] exactly when [p = 1]: then the
   first trial succeeds and nothing is drawn. *)
let[@inline] geometric_log t ~log_q =
  if log_q = Float.neg_infinity then 0
  else
    let u = 1.0 -. unit_float t in
    (* inverse CDF; [u] in (0,1] so log is finite *)
    int_of_float (floor (log u /. log_q))

let geometric t ~p =
  assert (p > 0. && p <= 1.);
  geometric_log t ~log_q:(log (1. -. p))

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

(* [shuffle]'s loop again, monomorphic: a store into an ['a array] goes
   through the write barrier ([caml_modify]), a store into an [int array]
   is a plain move. *)
let shuffle_ints t (a : int array) ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length a - len then invalid_arg "Rng.shuffle_ints";
  for i = len - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(pos + i) in
    a.(pos + i) <- a.(pos + j);
    a.(pos + j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

(* One pass sums the weights in array order from 0.0 (the same float as a
   left fold), one draw, then one scan that stops at the first running
   sum above the draw, or at the last choice.  The float refs never
   escape, so they stay unboxed and a call allocates nothing. *)
let pick_weighted t (choices : (float * _) array) =
  let n = Array.length choices in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. fst choices.(i)
  done;
  assert (!total > 0.);
  let r = !total *. unit_float t in
  let i = ref 0 and acc = ref 0.0 in
  while
    !i < n - 1
    && begin
         acc := !acc +. fst choices.(!i);
         not (r < !acc)
       end
  do
    incr i
  done;
  snd choices.(!i)
