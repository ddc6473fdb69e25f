(* Reuse-distance estimation in fixed memory: a near/far hybrid.

   The exact [Mica_analysis.Reuse] keeps one table entry and one Fenwick
   mark per distinct block ever touched — state (and allocation) grows
   with the trace.  This estimator bounds both with two fixed structures:

   NEAR — a direct-mapped recency table over ALL blocks.  Each slot holds
   a block and its last access position; a Fenwick tree marks resident
   positions.  A re-access that finds its block resident counts the
   marks since its previous position: the intervening distinct blocks
   still resident.  That count undercounts the true distance d, because
   collisions evict residents (E[marks] = n(1-e^-d/n)), so it is
   debiased by occupancy inversion, d = -n ln(1-marks/n), and recorded
   with weight 1.  Short distances, which
   dominate the reuse CDF and are carried by few hot blocks that uniform
   block-sampling would miss, are therefore measured at full weight.

   FAR — the sampled tail.  A block is sampled iff the low bits of its
   fixed hash are zero; sampled blocks get exact last-position tracking
   in an open-addressing table with its own Fenwick clock.  When a
   sampled block's access was NOT a near hit (distance beyond the near
   horizon, or cold), its distance is taken from the lower-variance of
   two estimates — rate-scaled sampled-block marks from the far clock
   (noise ~ sqrt(d * rate)), or the occupancy inversion of the near
   marks since the entry's stored near-clock anchor (noise ~ sqrt(n)
   while the near table is unsaturated) — and recorded with weight
   [rate]; a sampled first access records an estimated cold miss with
   weight [rate].  Every
   access thus contributes through exactly one path, so the recorded
   weights estimate the full access stream.

   Two mechanisms keep the far side O(1):
   - adaptive rate doubling (Wegman-style): when the sampled set would
     exceed capacity, the rate doubles and blocks failing the new mask
     are dropped.  Masks are nested, so a surviving block was never
     dropped — a far-table miss is a genuine first access.
   - position compaction (both sides): when a position clock reaches its
     Fenwick capacity, live positions are renumbered 1..n in order.
     Distances are mark counts between positions, which order-preserving
     renumbering leaves intact.

   Placement flows through {!Cardinality.hash}, so results are
   bit-deterministic and invariant under chunking and worker counts. *)

type t = {
  block_shift : int;
  (* near: direct-mapped recency table over all blocks *)
  nsize : int;  (* slots, power of two *)
  nkeys : int array;  (* -1 marks an empty slot *)
  npos : int array;
  ntree : int array;
  nfen_cap : int;  (* 4 * nsize *)
  mutable ntime : int;
  mutable nresident : int;
  (* far: exact tracking of the hash-sampled blocks *)
  fcap : int;  (* max sampled blocks *)
  ftsize : int;  (* open-addressing table size, 2 * fcap *)
  fkeys : int array;
  fpos : int array;
  fnear : int array;  (* near-clock anchor of each entry's last access *)
  mutable fresident : int;
  mutable rate : int;  (* power of two; sample iff hash land (rate-1) = 0 *)
  ftree : int array;
  ffen_cap : int;
  mutable ftime : int;
  (* weighted histogram and scalars *)
  cutoffs : int array;
  counts : float array;  (* one overflow bucket past the cutoffs *)
  (* float accumulators live in an unboxed array: mutable float fields in
     this mixed record would box on every store, once per access *)
  facc : float array;  (* 0 = weighted sum of log2 (distance+1);
                          1 = total finite weight; 2 = estimated cold *)
  mutable accesses : int;  (* exact: every access is observed *)
}

let create ?(block_bytes = 32) ?(near_slots = 4096) ?(capacity = 1024) ~cutoffs () =
  if block_bytes <= 0 || block_bytes land (block_bytes - 1) <> 0 then
    invalid_arg "Sampled_reuse.create: block_bytes must be a positive power of two";
  if near_slots < 16 then invalid_arg "Sampled_reuse.create: near_slots must be at least 16";
  if capacity < 16 then invalid_arg "Sampled_reuse.create: capacity must be at least 16";
  let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
  let rec ceil_pow2 n c = if c >= n then c else ceil_pow2 n (c * 2) in
  let nsize = ceil_pow2 near_slots 16 in
  let fcap = ceil_pow2 capacity 16 in
  let ftsize = 2 * fcap in
  {
    block_shift = log2 block_bytes 0;
    nsize;
    nkeys = Array.make nsize (-1);
    npos = Array.make nsize 0;
    ntree = Array.make ((4 * nsize) + 1) 0;
    nfen_cap = 4 * nsize;
    ntime = 0;
    nresident = 0;
    fcap;
    ftsize;
    fkeys = Array.make ftsize (-1);
    fpos = Array.make ftsize 0;
    fnear = Array.make ftsize 0;
    fresident = 0;
    rate = 1;
    ftree = Array.make ((4 * fcap) + 1) 0;
    ffen_cap = 4 * fcap;
    ftime = 0;
    cutoffs;
    counts = Array.make (Array.length cutoffs + 1) 0.0;
    facc = Array.make 3 0.0;
    accesses = 0;
  }

(* Fenwick primitives over a caller-supplied tree. *)
let fen_add tree cap i delta =
  let i = ref i in
  while !i <= cap do
    tree.(!i) <- tree.(!i) + delta;
    i := !i + (!i land - !i)
  done

let fen_prefix tree cap i =
  let acc = ref 0 and i = ref (min i cap) in
  while !i > 0 do
    acc := !acc + tree.(!i);
    i := !i - (!i land - !i)
  done;
  !acc

(* [weight] arrives as an int (the sampling rate): a float parameter
   would be boxed at every non-inlined call, and this runs per access. *)
let record t d ~weight =
  let cutoffs = t.cutoffs in
  let n = Array.length cutoffs in
  let b = ref 0 in
  while !b < n && d > Array.unsafe_get cutoffs !b do
    incr b
  done;
  let w = float_of_int weight in
  t.counts.(!b) <- t.counts.(!b) +. w;
  t.facc.(0) <- t.facc.(0) +. (w *. (log (float_of_int (d + 1)) /. log 2.0));
  t.facc.(1) <- t.facc.(1) +. w

(* Renumber live positions 1..n in order and rebuild a Fenwick tree.
   No sorting (and no allocation): each live position's mark is still in
   the tree, so its new position is its rank — [prefix pos], 1-based
   because its own mark is included. *)
let compact_positions ~keys ~pos ~tree ~cap ~size ~live:_ =
  let n = ref 0 in
  for i = 0 to size - 1 do
    if Array.unsafe_get keys i >= 0 then begin
      pos.(i) <- fen_prefix tree cap pos.(i);
      incr n
    end
  done;
  Array.fill tree 0 (cap + 1) 0;
  for i = 0 to size - 1 do
    if Array.unsafe_get keys i >= 0 then fen_add tree cap pos.(i) 1
  done;
  !n

let ncompact t =
  (* The far table anchors each entry to the near clock; renumber those
     anchors with the old tree before it is rebuilt.  An anchor whose
     mark was evicted maps to the rank of the preceding live mark, which
     leaves every marks-in-interval count intact. *)
  for i = 0 to t.ftsize - 1 do
    if Array.unsafe_get t.fkeys i >= 0 then
      t.fnear.(i) <- fen_prefix t.ntree t.nfen_cap t.fnear.(i)
  done;
  t.ntime <-
    compact_positions ~keys:t.nkeys ~pos:t.npos ~tree:t.ntree ~cap:t.nfen_cap ~size:t.nsize
      ~live:t.nresident

let fcompact t =
  t.ftime <-
    compact_positions ~keys:t.fkeys ~pos:t.fpos ~tree:t.ftree ~cap:t.ffen_cap ~size:t.ftsize
      ~live:t.fresident

(* Far-table linear probing; load factor stays at or below 1/2. *)
let rec fprobe t key i =
  let k = Array.unsafe_get t.fkeys i in
  if k = key || k = -1 then i else fprobe t key ((i + 1) land (t.ftsize - 1))

let[@inline] fslot t h key = fprobe t key (h land (t.ftsize - 1))

(* Double the sampling rate until the sampled set fits strictly under
   capacity, dropping blocks that fail the new mask and rebuilding the
   probe sequence without them. *)
let rec tighten t =
  t.rate <- t.rate * 2;
  let mask = t.rate - 1 in
  let keys' = Array.make t.fresident 0
  and pos' = Array.make t.fresident 0
  and near' = Array.make t.fresident 0 in
  let n = ref 0 in
  for i = 0 to t.ftsize - 1 do
    let k = Array.unsafe_get t.fkeys i in
    if k >= 0 then begin
      if Cardinality.hash k land mask = 0 then begin
        keys'.(!n) <- k;
        pos'.(!n) <- t.fpos.(i);
        near'.(!n) <- t.fnear.(i);
        incr n
      end
      else fen_add t.ftree t.ffen_cap t.fpos.(i) (-1)
    end
  done;
  Array.fill t.fkeys 0 t.ftsize (-1);
  t.fresident <- !n;
  for j = 0 to !n - 1 do
    let i = fslot t (Cardinality.hash keys'.(j)) keys'.(j) in
    t.fkeys.(i) <- keys'.(j);
    t.fpos.(i) <- pos'.(j);
    t.fnear.(i) <- near'.(j)
  done;
  if t.fresident >= t.fcap then tighten t

let access t addr =
  t.accesses <- t.accesses + 1;
  let block = addr lsr t.block_shift in
  let h = Cardinality.hash block in
  (* near side: every block *)
  if t.ntime >= t.nfen_cap then ncompact t;
  t.ntime <- t.ntime + 1;
  let ni = h land (t.nsize - 1) in
  let near_hit = Array.unsafe_get t.nkeys ni = block in
  if near_hit then begin
    let p = Array.unsafe_get t.npos ni in
    let marks =
      fen_prefix t.ntree t.nfen_cap (t.ntime - 1) - fen_prefix t.ntree t.nfen_cap p
    in
    (* Occupancy inversion: [marks] counts the intervening distinct
       blocks still resident, which undercounts the true distance d —
       later blocks collide earlier ones out, so E[marks] = n(1-e^-d/n).
       Inverting debiases distances comparable to the table size; for
       marks << n it reduces to d = marks.  (All-float locals: unboxed,
       so this stays allocation-free.) *)
    let n = float_of_int t.nsize in
    let d =
      int_of_float (Float.round (-.n *. Float.log1p (-.(float_of_int marks /. n))))
    in
    record t d ~weight:1;
    fen_add t.ntree t.nfen_cap p (-1)
  end
  else begin
    let old = Array.unsafe_get t.nkeys ni in
    if old >= 0 then fen_add t.ntree t.nfen_cap (Array.unsafe_get t.npos ni) (-1)
    else t.nresident <- t.nresident + 1;
    Array.unsafe_set t.nkeys ni block
  end;
  fen_add t.ntree t.nfen_cap t.ntime 1;
  Array.unsafe_set t.npos ni t.ntime;
  (* far side: sampled blocks only *)
  if h land (t.rate - 1) = 0 then begin
    if t.ftime >= t.ffen_cap then fcompact t;
    t.ftime <- t.ftime + 1;
    let i = fslot t h block in
    if Array.unsafe_get t.fkeys i = block then begin
      let p = Array.unsafe_get t.fpos i in
      if not near_hit then begin
        (* Two estimates of the same distance, by expected variance:
           - far clock: sampled intervening blocks times the rate —
             unbiased at any range, noise ~ sqrt(d * rate);
           - near clock + occupancy inversion: intervening blocks still
             near-resident, noise ~ sqrt(n * f / (1-f)) for coverage
             f — much tighter while the near table is not saturated.
           Pick whichever is tighter; at rate 1 the far clock is exact. *)
        let fmarks =
          fen_prefix t.ftree t.ffen_cap (t.ftime - 1) - fen_prefix t.ftree t.ffen_cap p
        in
        let d_far = fmarks * t.rate in
        let nmarks =
          fen_prefix t.ntree t.nfen_cap (t.ntime - 1)
          - fen_prefix t.ntree t.nfen_cap (Array.unsafe_get t.fnear i)
        in
        let n = float_of_int t.nsize in
        let f = float_of_int nmarks /. n in
        let var_occ = n *. f /. Float.max (1.0 -. f) 0.02 in
        let var_far = float_of_int d_far *. float_of_int (t.rate - 1) in
        let d =
          (* past 98% coverage the inversion is numerically wild — the
             far clock takes over well before that in practice *)
          if f > 0.98 || var_far <= var_occ then d_far
          else int_of_float (Float.round (-.n *. Float.log1p (-.f)))
        in
        record t d ~weight:t.rate
      end;
      fen_add t.ftree t.ffen_cap p (-1)
    end
    else begin
      (* masks are nested, so a miss is a true first access — which also
         means the near side cannot have hit *)
      Array.unsafe_set t.fkeys i block;
      t.fresident <- t.fresident + 1;
      t.facc.(2) <- t.facc.(2) +. float_of_int t.rate
    end;
    fen_add t.ftree t.ffen_cap t.ftime 1;
    Array.unsafe_set t.fpos i t.ftime;
    Array.unsafe_set t.fnear i t.ntime;
    if t.fresident >= t.fcap then tighten t
  end

let accesses t = t.accesses
let cold_estimate t = t.facc.(2)

let cdf t =
  let denom = float_of_int (max 1 t.accesses) in
  let out = Array.make (Array.length t.cutoffs) 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i _ ->
      acc := !acc +. t.counts.(i);
      out.(i) <- !acc /. denom)
    out;
  out

let mean_log2 t = if t.facc.(1) = 0.0 then 0.0 else t.facc.(0) /. t.facc.(1)

let reset t =
  Array.fill t.nkeys 0 t.nsize (-1);
  Array.fill t.npos 0 t.nsize 0;
  Array.fill t.ntree 0 (t.nfen_cap + 1) 0;
  t.ntime <- 0;
  t.nresident <- 0;
  Array.fill t.fkeys 0 t.ftsize (-1);
  Array.fill t.fpos 0 t.ftsize 0;
  Array.fill t.fnear 0 t.ftsize 0;
  Array.fill t.ftree 0 (t.ffen_cap + 1) 0;
  t.fresident <- 0;
  t.rate <- 1;
  t.ftime <- 0;
  Array.fill t.counts 0 (Array.length t.counts) 0.0;
  Array.fill t.facc 0 3 0.0;
  t.accesses <- 0

let state_bytes t =
  (8 * 2 * t.nsize) + (8 * (t.nfen_cap + 1))
  + (8 * 3 * t.ftsize)
  + (8 * (t.ffen_cap + 1))
  + (8 * (Array.length t.counts + Array.length t.cutoffs))
