(* Open-addressing hash map from non-negative ints to ints.

   The streaming analyzers probe per-pc and per-context tables on every
   branch or memory access; the generic [Hashtbl] spends most of that in
   [caml_hash] and bucket-list walks, and boxes a [Some] per [find_opt].
   This table hashes with one multiply, probes linearly in one flat array,
   and neither allocates nor boxes on any lookup or update.  Results are
   representation-independent — it is an exact map, so swapping it for
   [Hashtbl] changes no analyzer output. *)

type t = {
  mutable keys : int array;  (* -1 marks an empty slot *)
  mutable vals : int array;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable shift : int;  (* 62 - log2 capacity: selects the hash's top bits *)
  mutable size : int;
}

(* Fibonacci hashing: the top bits of [key * phi] are well mixed even for
   sequential keys, and [land max_int] clears the sign so the shift always
   lands in [0, capacity). *)
let[@inline] slot_of_key shift key = ((key * 0x2545F4914F6CDD1D) land max_int) lsr shift

let rec ceil_pow2 n c = if c >= n then c else ceil_pow2 n (c * 2)

let create ?(initial = 16) () =
  let cap = ceil_pow2 (max 8 initial) 8 in
  let shift = ref 62 and c = ref cap in
  while !c > 1 do
    decr shift;
    c := !c lsr 1
  done;
  { keys = Array.make cap (-1); vals = Array.make cap 0; mask = cap - 1; shift = !shift; size = 0 }

let length t = t.size

(* Linear probe for [key]: returns the slot holding it, or the empty slot
   where it would be inserted.  The load factor stays below 1/2, so an
   empty slot is always reachable and [unsafe_get] stays in bounds under
   the mask. *)
let rec probe keys mask key i =
  let k = Array.unsafe_get keys i in
  if k = key || k = -1 then i else probe keys mask key ((i + 1) land mask)

(* A negative key is never bound.  It must not reach [probe]: the probe
   stops at the first empty slot, whose marker -1 would match key -1. *)
let find t key ~default =
  if key < 0 then default
  else
    let i = probe t.keys t.mask key (slot_of_key t.shift key) in
    if Array.unsafe_get t.keys i = key then Array.unsafe_get t.vals i else default

let mem t key =
  key >= 0
  &&
  let i = probe t.keys t.mask key (slot_of_key t.shift key) in
  Array.unsafe_get t.keys i = key

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = (t.mask + 1) * 2 in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  t.shift <- t.shift - 1;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = probe t.keys t.mask k (slot_of_key t.shift k) in
        Array.unsafe_set t.keys j k;
        Array.unsafe_set t.vals j (Array.unsafe_get old_vals i)
      end)
    old_keys

(* Insert [key] at empty slot [i], keeping the load factor under 1/2. *)
let insert_at t i key v =
  Array.unsafe_set t.keys i key;
  Array.unsafe_set t.vals i v;
  t.size <- t.size + 1;
  if t.size * 2 > t.mask then grow t

let set t key v =
  if key < 0 then invalid_arg "Int_map.set: negative key";
  let i = probe t.keys t.mask key (slot_of_key t.shift key) in
  if Array.unsafe_get t.keys i = key then Array.unsafe_set t.vals i v else insert_at t i key v

let bump t key delta =
  if key < 0 then invalid_arg "Int_map.bump: negative key";
  let i = probe t.keys t.mask key (slot_of_key t.shift key) in
  if Array.unsafe_get t.keys i = key then
    Array.unsafe_set t.vals i (Array.unsafe_get t.vals i + delta)
  else insert_at t i key delta

let add_if_absent t key =
  if key < 0 then invalid_arg "Int_map.add_if_absent: negative key";
  let i = probe t.keys t.mask key (slot_of_key t.shift key) in
  if Array.unsafe_get t.keys i <> key then insert_at t i key 0

(* Backward-shift deletion.  [hole] has just been vacated; walk the rest of
   its probe cluster from [j] and pull back every key whose home slot is not
   cyclically inside [(hole, j]], since a probe for it starts at or before
   [hole] and would otherwise stop at the hole.  No tombstone is left, so a
   map that binds and unbinds keys forever never degrades its probes. *)
let rec shift_back t hole j =
  let k = Array.unsafe_get t.keys j in
  if k = -1 then Array.unsafe_set t.keys hole (-1)
  else
    let next = (j + 1) land t.mask in
    if (j - slot_of_key t.shift k) land t.mask >= (j - hole) land t.mask then begin
      Array.unsafe_set t.keys hole k;
      Array.unsafe_set t.vals hole (Array.unsafe_get t.vals j);
      shift_back t j next
    end
    else shift_back t hole next

let remove t key =
  if key >= 0 then begin
    let i = probe t.keys t.mask key (slot_of_key t.shift key) in
    if Array.unsafe_get t.keys i = key then begin
      t.size <- t.size - 1;
      shift_back t i ((i + 1) land t.mask)
    end
  end

let iter t f =
  Array.iteri (fun i k -> if k >= 0 then f k (Array.unsafe_get t.vals i)) t.keys
