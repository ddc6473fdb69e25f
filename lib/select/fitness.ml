module Stats = Mica_stats
module Pool = Mica_util.Pool

(* The squared-difference components live in one flat buffer, stored
   characteristic-major: component c of pair p is [flat.(c * n_pairs + p)],
   so each characteristic's column is one contiguous [n_pairs]-float run
   (59 KB at 122 workloads).  A single-column update ([Subset.add],
   [remove], [rho_without]) is then one sequential sweep, and a subset
   sum is a cache-blocked sweep: a block of pairs stays in L1 while the
   subset's columns are added to it one after another.  The full-space
   side of the correlation never changes, so its mean and centered sum of
   squares are computed once at [create].

   Bit-exactness contract: every pair's sum starts from 0.0 and receives
   the subset's columns in the caller's order — the same IEEE operation
   sequence as the naive [Distance.subset_distances], whatever the block
   boundaries or the pool split, because interleaving the updates of
   different pairs cannot change any one pair's rounding.  Pearson
   accumulations visit pairs in condensed order, which makes
   [rho]/[paper_fitness] bit-identical to the naive reference
   [Correlation.pearson (Distance.subset_distances components subset) full]
   — the differential suite checks this with exact equality.  Only the
   {!Subset} delta path (sum +/- column) is allowed to drift, and only
   within the tolerance documented in DESIGN.md §9. *)

type t = {
  flat : float array;  (* chars x pairs squared diffs, characteristic-major *)
  full : float array;  (* full-space distances, condensed order *)
  full_mean : float;
  full_ss : float;  (* sum over pairs of (full - full_mean)^2 *)
  n_chars : int;
  n_pairs : int;
  scratch : float array;  (* subset-distance buffer for single-domain use *)
}

type ctx = { fit : t; buf : float array }

let create normalized =
  let rows, cols = Stats.Matrix.dims normalized in
  if rows < 2 then invalid_arg "Fitness.create: need at least 2 observations";
  let n_pairs = rows * (rows - 1) / 2 in
  let flat = Array.make (cols * n_pairs) 0.0 in
  let full = Array.make n_pairs 0.0 in
  (* one pass: fill the components and derive the full distance as the
     sqrt of its running sum, in the same column order as the naive
     [Distance.condensed], so [full] is bit-identical to it *)
  let k = ref 0 in
  for i = 0 to rows - 1 do
    let a = normalized.(i) in
    for j = i + 1 to rows - 1 do
      let b = normalized.(j) in
      let sum = ref 0.0 in
      for c = 0 to cols - 1 do
        let d = Array.unsafe_get a c -. Array.unsafe_get b c in
        let sq = d *. d in
        Array.unsafe_set flat ((c * n_pairs) + !k) sq;
        sum := !sum +. sq
      done;
      full.(!k) <- sqrt !sum;
      incr k
    done
  done;
  let full_mean = Stats.Descriptive.mean full in
  let full_ss = ref 0.0 in
  for p = 0 to n_pairs - 1 do
    let dy = full.(p) -. full_mean in
    full_ss := !full_ss +. (dy *. dy)
  done;
  {
    flat;
    full;
    full_mean;
    full_ss = !full_ss;
    n_chars = cols;
    n_pairs;
    scratch = Array.make n_pairs 0.0;
  }

let n_characteristics t = t.n_chars
let n_pairs t = t.n_pairs
let full_distances t = t.full

(* Pairs per block of the column sweep: 8 KiB of sums, which stay in L1
   while every subset column streams its matching 8 KiB slice past them. *)
let block = 1024

(* The sweep reads [flat] unchecked, and a column index is a row offset
   into it, so a caller's subset is validated once per evaluation. *)
let check_cols t subset =
  for i = 0 to Array.length subset - 1 do
    let c = Array.unsafe_get subset i in
    if c < 0 || c >= t.n_chars then invalid_arg "Fitness: subset column out of range"
  done

(* [dst.(p) <- sum of the subset's columns at p] for p in [lo, hi], each
   sum from 0.0 in subset order; with [root], each finished block is
   replaced by its square roots while it is still in cache.  Columns go
   in four at a time, as [(((s + a) + b) + c) + d]: the same left-to-right
   additions as one at a time, with a quarter of the loads and stores of
   the partial sums. *)
let sweep_columns t subset ~root dst lo hi =
  let flat = t.flat and n = t.n_pairs and k = Array.length subset in
  let b0 = ref lo in
  while !b0 <= hi do
    let b1 = min hi (!b0 + block - 1) in
    Array.fill dst !b0 (b1 - !b0 + 1) 0.0;
    let ci = ref 0 in
    while !ci + 4 <= k do
      let a = Array.unsafe_get subset !ci * n
      and b = Array.unsafe_get subset (!ci + 1) * n
      and c = Array.unsafe_get subset (!ci + 2) * n
      and d = Array.unsafe_get subset (!ci + 3) * n in
      for p = !b0 to b1 do
        Array.unsafe_set dst p
          (Array.unsafe_get dst p +. Array.unsafe_get flat (a + p)
          +. Array.unsafe_get flat (b + p)
          +. Array.unsafe_get flat (c + p)
          +. Array.unsafe_get flat (d + p))
      done;
      ci := !ci + 4
    done;
    for j = !ci to k - 1 do
      let base = Array.unsafe_get subset j * n in
      for p = !b0 to b1 do
        Array.unsafe_set dst p (Array.unsafe_get dst p +. Array.unsafe_get flat (base + p))
      done
    done;
    if root then
      for p = !b0 to b1 do
        Array.unsafe_set dst p (sqrt (Array.unsafe_get dst p))
      done;
    b0 := b1 + 1
  done

let subset_distance_into t buf subset =
  check_cols t subset;
  sweep_columns t subset ~root:true buf 0 (t.n_pairs - 1)

let distances_for t subset =
  let out = Array.make t.n_pairs 0.0 in
  subset_distance_into t out subset;
  out

(* Pearson of the distances in [buf] against the precomputed full-space
   moments; op-for-op the tail of [Correlation.pearson buf full]. *)
let pearson_of_buf t buf =
  let mx = Stats.Descriptive.mean buf in
  let my = t.full_mean in
  let sxy = ref 0.0 and sxx = ref 0.0 in
  for p = 0 to t.n_pairs - 1 do
    let dx = Array.unsafe_get buf p -. mx in
    let dy = Array.unsafe_get t.full p -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx)
  done;
  let denom = sqrt (!sxx *. t.full_ss) in
  if denom > 0.0 then !sxy /. denom else 0.0

let context t = { fit = t; buf = Array.make t.n_pairs 0.0 }

let rho_with ctx subset =
  if Array.length subset = 0 then 0.0
  else begin
    subset_distance_into ctx.fit ctx.buf subset;
    pearson_of_buf ctx.fit ctx.buf
  end

let scale t n = 1.0 -. (float_of_int n /. float_of_int t.n_chars)

let fitness_with ctx subset =
  let n = Array.length subset in
  if n = 0 then 0.0 else rho_with ctx subset *. scale ctx.fit n

let rho t subset = if Array.length subset = 0 then 0.0 else rho_with { fit = t; buf = t.scratch } subset

let paper_fitness t subset =
  let n = Array.length subset in
  if n = 0 then 0.0 else rho t subset *. scale t n

(* ---------------- incremental subset state ---------------- *)

module Subset = struct
  type fitness = t

  type t = {
    fit : fitness;
    sums : float array;  (* per-pair sum of squared diffs over the members *)
    members : bool array;
    mutable count : int;
    buf : float array;  (* distance buffer for [rho] *)
  }

  let make fit =
    {
      fit;
      sums = Array.make fit.n_pairs 0.0;
      members = Array.make fit.n_chars false;
      count = 0;
      buf = Array.make fit.n_pairs 0.0;
    }

  let copy s =
    {
      fit = s.fit;
      sums = Array.copy s.sums;
      members = Array.copy s.members;
      count = s.count;
      buf = Array.make s.fit.n_pairs 0.0;
    }

  let cardinal s = s.count
  let mem s c = s.members.(c)

  let cols s =
    let out = Array.make s.count 0 in
    let k = ref 0 in
    Array.iteri
      (fun c m ->
        if m then begin
          out.(!k) <- c;
          incr k
        end)
      s.members;
    out

  (* The elementwise phases below (sums update, distance fill) are
     parallelized by splitting the pair index range: every slot is written
     independently, so the result is bit-identical at any [jobs]. *)

  let add ?(pool = Pool.sequential) s c =
    if not s.members.(c) then begin
      s.members.(c) <- true;
      s.count <- s.count + 1;
      let flat = s.fit.flat and base = c * s.fit.n_pairs and sums = s.sums in
      Pool.run_blocks pool s.fit.n_pairs (fun _ lo hi ->
          for p = lo to hi do
            Array.unsafe_set sums p (Array.unsafe_get sums p +. Array.unsafe_get flat (base + p))
          done)
    end

  let remove ?(pool = Pool.sequential) s c =
    if s.members.(c) then begin
      s.members.(c) <- false;
      s.count <- s.count - 1;
      let flat = s.fit.flat and base = c * s.fit.n_pairs and sums = s.sums in
      Pool.run_blocks pool s.fit.n_pairs (fun _ lo hi ->
          for p = lo to hi do
            Array.unsafe_set sums p (Array.unsafe_get sums p -. Array.unsafe_get flat (base + p))
          done)
    end

  (* Recompute [sums] from scratch in ascending column order.  Resets any
     floating-point drift the +/- delta updates accumulated; after
     [rebuild], [rho] is bit-identical to the fused full recompute. *)
  let rebuild ?(pool = Pool.sequential) s =
    let subset = cols s in
    Pool.run_blocks pool s.fit.n_pairs (fun _ lo hi ->
        sweep_columns s.fit subset ~root:false s.sums lo hi)

  let set_cols ?pool s subset =
    Array.fill s.members 0 s.fit.n_chars false;
    s.count <- 0;
    Array.iter
      (fun c ->
        if c < 0 || c >= s.fit.n_chars then
          invalid_arg "Fitness.Subset.set_cols: column out of range";
        if not s.members.(c) then begin
          s.members.(c) <- true;
          s.count <- s.count + 1
        end)
      subset;
    rebuild ?pool s

  let of_cols ?pool fit subset =
    let s = make fit in
    set_cols ?pool s subset;
    s

  (* Copy the membership and running sums between two states over the same
     fitness; [dst]'s distance buffer is untouched.  O(pairs), no
     allocation — the GA uses this to seed a child's state from its
     parent's before applying the mutation deltas. *)
  let blit ~src ~dst =
    if src.fit != dst.fit then invalid_arg "Fitness.Subset.blit: different fitness";
    Array.blit src.sums 0 dst.sums 0 src.fit.n_pairs;
    Array.blit src.members 0 dst.members 0 src.fit.n_chars;
    dst.count <- src.count

  let rho ?(pool = Pool.sequential) s =
    if s.count = 0 then 0.0
    else begin
      let sums = s.sums and buf = s.buf in
      Pool.run_blocks pool s.fit.n_pairs (fun _ lo hi ->
          for p = lo to hi do
            Array.unsafe_set buf p (sqrt (Array.unsafe_get sums p))
          done);
      pearson_of_buf s.fit buf
    end

  let fitness ?pool s = if s.count = 0 then 0.0 else rho ?pool s *. scale s.fit s.count

  (* Leave-one-out: rho of the current subset without column [c], as
     [sqrt (sums - column c)] in O(pairs) — the incremental step that
     turns a full candidate sweep from O(k^2 pairs) into O(k pairs). *)
  let rho_without ?(pool = Pool.sequential) ?buf s c =
    if not s.members.(c) then rho ~pool s
    else if s.count = 1 then 0.0
    else begin
      let buf = match buf with Some b -> b | None -> s.buf in
      let sums = s.sums and flat = s.fit.flat and base = c * s.fit.n_pairs in
      Pool.run_blocks pool s.fit.n_pairs (fun _ lo hi ->
          for p = lo to hi do
            Array.unsafe_set buf p
              (sqrt (Float.max 0.0 (Array.unsafe_get sums p -. Array.unsafe_get flat (base + p))))
          done);
      pearson_of_buf s.fit buf
    end
end
