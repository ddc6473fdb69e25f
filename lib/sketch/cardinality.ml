(* Probabilistic cardinality: HyperLogLog registers with the standard
   linear-counting hybrid for the small-range regime.

   The exact working-set tables ([Mica_util.Int_map] used as a set) grow
   with the number of distinct blocks — the dominant memory term of a
   long-trace characterization.  This sketch holds one byte per register,
   fixed at creation: [add] is a hash, a shift and a byte max, and the
   estimate is read out in O(m).

   Determinism: the hash is a fixed-key multiply-xorshift finalizer whose
   key is drawn once from [Mica_util.Rng] at module initialization (a
   constant seed, so every process computes the same key).  The register
   array is a pure function of the *set* of keys added — register updates
   are maxes, so estimates are independent of insertion order and of how
   the stream was chunked. *)

(* One fixed key for the whole process, derived from the library's seeded
   generator rather than hard-coded, so the sketch family shares the
   repo-wide "all randomness flows from Rng" discipline. *)
let hash_key =
  Int64.to_int (Mica_util.Rng.bits64 (Mica_util.Rng.create ~seed:0x5ce7c4a9L)) land max_int

(* Keyed multiply-xorshift finalizer in native int arithmetic — Int64 ops
   here would box on every call, and this hash runs several times per
   instruction across the sketch family.  Two rounds of odd-constant
   multiply (wrapping mod 2^63) and xor-shift mix both the high and low
   bits; [land max_int] clears the sign after each overflow. *)
let[@inline] hash key =
  let z = (key + hash_key) land max_int in
  let z = (z lxor (z lsr 31)) * 0x2545F4914F6CDD1D land max_int in
  let z = (z lxor (z lsr 29)) * 0x3C79AC492BA7B653 land max_int in
  z lxor (z lsr 32)

type t = {
  p : int;  (* log2 of the register count *)
  m : int;  (* register count *)
  regs : Bytes.t;
}

let create ?(registers = 1024) () =
  if registers < 16 then invalid_arg "Cardinality.create: need at least 16 registers";
  if registers land (registers - 1) <> 0 then
    invalid_arg "Cardinality.create: registers must be a power of two";
  let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
  { p = log2 registers 0; m = registers; regs = Bytes.make registers '\000' }

let registers t = t.m
let state_bytes t = t.m

let reset t = Bytes.fill t.regs 0 t.m '\000'

(* rank of the remaining hash bits: position of the lowest set bit, plus
   one, capped by the number of usable bits.  62 - p bits survive above
   the register index. *)
let[@inline] rank ~p w =
  let bits = 62 - p in
  if w = 0 then bits + 1
  else begin
    let r = ref 1 in
    let w = ref w in
    while !w land 1 = 0 do
      incr r;
      w := !w lsr 1
    done;
    min !r (bits + 1)
  end

let add t key =
  let h = hash key in
  let idx = h land (t.m - 1) in
  let r = rank ~p:t.p (h lsr t.p) in
  if r > Char.code (Bytes.unsafe_get t.regs idx) then
    Bytes.unsafe_set t.regs idx (Char.unsafe_chr r)

let alpha m =
  if m <= 16 then 0.673
  else if m <= 32 then 0.697
  else if m <= 64 then 0.709
  else 0.7213 /. (1.0 +. (1.079 /. float_of_int m))

let estimate t =
  let m = float_of_int t.m in
  let sum = ref 0.0 and zeros = ref 0 in
  for i = 0 to t.m - 1 do
    let r = Char.code (Bytes.unsafe_get t.regs i) in
    if r = 0 then incr zeros;
    sum := !sum +. (1.0 /. float_of_int (1 lsl r))
  done;
  let raw = alpha t.m *. m *. m /. !sum in
  (* small-range regime: linear counting over the zero registers is far
     more accurate than the raw harmonic-mean estimate *)
  if raw <= 2.5 *. m && !zeros > 0 then m *. log (m /. float_of_int !zeros) else raw
