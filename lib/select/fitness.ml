module Stats = Mica_stats
module Pool = Mica_util.Pool

(* The squared-difference components are stored characteristic-major:
   component c of pair p is [columns.(c).(p)], so each characteristic's
   column is one contiguous [n_pairs]-float array (59 KB at 122
   workloads).  One more column, [columns.(n_chars)], is all 0.0: the sweep
   pads a short last group of columns with it, and a rebuilt sum starts
   from it.  The full-space side of the correlation never changes, so its
   centered distances and centered sum of squares are computed once at
   [create].

   Bit-exactness contract: every pair's sum starts from 0.0 (or from a
   parent's sums, on the delta path) and receives the subset's columns in
   the caller's order — the same IEEE operation sequence as the naive
   [Distance.subset_distances], whatever the block boundaries, the batch
   or the pool split, because interleaving the updates of different
   pairs, or of different subsets, cannot change any one pair's rounding.
   The mean and the Pearson accumulations visit pairs in condensed order,
   which makes [rho]/[paper_fitness] and every rebuild job of [eval]
   bit-identical to the naive reference
   [Correlation.pearson (Distance.subset_distances components subset) full]
   — the differential suite checks this with exact equality.  Only the
   delta path (parent's sums +/- columns) drifts from an in-order
   recompute, within the tolerance documented in DESIGN.md §9. *)

type t = {
  columns : float array array;  (* chars + 1 columns of pairs; the last is 0.0 *)
  full : float array;  (* full-space distances, condensed order *)
  full_centered : float array;  (* full - mean full, pair by pair *)
  full_ss : float;  (* sum over pairs of (full - mean full)^2 *)
  n_chars : int;
  n_pairs : int;
  row : float array;  (* distance row of the single-domain [rho] *)
}

let create normalized =
  let rows, cols = Stats.Matrix.dims normalized in
  if rows < 2 then invalid_arg "Fitness.create: need at least 2 observations";
  let n_pairs = rows * (rows - 1) / 2 in
  let columns = Array.init (cols + 1) (fun _ -> Array.make n_pairs 0.0) in
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
        Array.unsafe_set (Array.unsafe_get columns c) !k sq;
        sum := !sum +. sq
      done;
      full.(!k) <- sqrt !sum;
      incr k
    done
  done;
  let full_mean = Stats.Descriptive.mean full in
  let full_centered = Array.make n_pairs 0.0 in
  let full_ss = ref 0.0 in
  for p = 0 to n_pairs - 1 do
    let dy = full.(p) -. full_mean in
    full_centered.(p) <- dy;
    full_ss := !full_ss +. (dy *. dy)
  done;
  {
    columns;
    full;
    full_centered;
    full_ss = !full_ss;
    n_chars = cols;
    n_pairs;
    row = Array.make n_pairs 0.0;
  }

let n_characteristics t = t.n_chars
let n_pairs t = t.n_pairs
let full_distances t = t.full

(* ---------------- the batch kernel ---------------- *)

type job = { cols : int array; base : float array option; keep : float array option }

(* Pairs per block of the sweep: 8 KiB of partial sums, which stay in L1
   while the job's columns stream their matching 8 KiB slices past them;
   the slices themselves stay in L2 from one job of the batch to the
   next. *)
let block = 1024

(* A signed column: [c >= 0] adds column c, [lnot c] subtracts it.  A
   subtracted column goes in as [s + (-1.0 *. x)], which is bit-identical
   to [s - x]. *)
let column t c = Array.unsafe_get t.columns (if c >= 0 then c else lnot c)
let sign c = float_of_int (if c >= 0 then 1 else -1)

(* [row.(p) <- src.(p) +/- a +/- b +/- c +/- d] for p in [b0, b1]: four
   columns left to right, as [(((s + a) + b) + c) + d].  An all-added
   group skips the multiplies. *)
let group4 t src row ca cb cc cd b0 b1 =
  let a = column t ca and b = column t cb and c = column t cc and d = column t cd in
  if ca >= 0 && cb >= 0 && cc >= 0 && cd >= 0 then
    for p = b0 to b1 do
      Array.unsafe_set row p
        (Array.unsafe_get src p +. Array.unsafe_get a p +. Array.unsafe_get b p
        +. Array.unsafe_get c p +. Array.unsafe_get d p)
    done
  else begin
    let sa = sign ca and sb = sign cb and sc = sign cc and sd = sign cd in
    for p = b0 to b1 do
      Array.unsafe_set row p
        (Array.unsafe_get src p
        +. (sa *. Array.unsafe_get a p)
        +. (sb *. Array.unsafe_get b p)
        +. (sc *. Array.unsafe_get c p)
        +. (sd *. Array.unsafe_get d p))
    done
  end

(* The last group of four: each finished sum also goes to [keep], its
   clamped square root [sqrt (Float.max 0.0 s)] to [row], and that root
   onto the job's running sum [acc.(u)], in pair order.  Padding with the
   zero column adds +0.0, which leaves every sum unchanged: a sum is never
   -0.0, since its columns are squares and [x - x] rounds to +0.0. *)
let last4 t src keep row ca cb cc cd b0 b1 acc u =
  let a = column t ca and b = column t cb and c = column t cc and d = column t cd in
  let sa = sign ca and sb = sign cb and sc = sign cc and sd = sign cd in
  let sum = ref (Array.unsafe_get acc u) in
  for p = b0 to b1 do
    let s =
      Array.unsafe_get src p
      +. (sa *. Array.unsafe_get a p)
      +. (sb *. Array.unsafe_get b p)
      +. (sc *. Array.unsafe_get c p)
      +. (sd *. Array.unsafe_get d p)
    in
    Array.unsafe_set keep p s;
    let r = sqrt (if s <= 0.0 then 0.0 else s) in
    Array.unsafe_set row p r;
    sum := !sum +. r
  done;
  Array.unsafe_set acc u !sum

(* One job over pairs [b0, b1]: full groups of four into [row], then the
   last group (up to four columns, padded with the zero column).  A job
   with no [keep] writes its sums to [row], where the roots overwrite
   them. *)
let sweep_block t job row acc u b0 b1 =
  let z = t.n_chars in
  let cols = job.cols in
  let k = Array.length cols in
  let src = ref (match job.base with Some b -> b | None -> t.columns.(z)) in
  let last = if k = 0 then 0 else (k - 1) / 4 * 4 in
  let g = ref 0 in
  while !g < last do
    group4 t !src row cols.(!g) cols.(!g + 1) cols.(!g + 2) cols.(!g + 3) b0 b1;
    src := row;
    g := !g + 4
  done;
  let keep = match job.keep with Some s -> s | None -> row in
  last4 t !src keep row
    (if last < k then cols.(last) else z)
    (if last + 1 < k then cols.(last + 1) else z)
    (if last + 2 < k then cols.(last + 2) else z)
    (if last + 3 < k then cols.(last + 3) else z)
    b0 b1 acc u

(* Jobs [lo, hi], block-major: every job takes its turn on a block of
   pairs before the sweep moves to the next block.  [acc.(u)] ends as the
   sum of job u's distances in pair order. *)
let sweep t jobs rows acc lo hi =
  let n = t.n_pairs in
  let b0 = ref 0 in
  while !b0 < n do
    let b1 = min (n - 1) (!b0 + block - 1) in
    for u = lo to hi do
      sweep_block t jobs.(u) rows.(u) acc u !b0 b1
    done;
    b0 := b1 + 1
  done

(* Pearson of job u's distances against the full ones, from its mean:
   op-for-op the tail of [Correlation.pearson row full], since
   [full_centered.(p)] is the same [full.(p) -. mean full]. *)
let finish t out u sxy sxx =
  let denom = sqrt (sxx *. t.full_ss) in
  out.(u) <- (if denom > 0.0 then sxy /. denom else 0.0)

let pearson1 t rows mean out u =
  let fc = t.full_centered and r = rows.(u) and m = mean.(u) in
  let sxy = ref 0.0 and sxx = ref 0.0 in
  for p = 0 to t.n_pairs - 1 do
    let dx = Array.unsafe_get r p -. m in
    sxy := !sxy +. (dx *. Array.unsafe_get fc p);
    sxx := !sxx +. (dx *. dx)
  done;
  finish t out u !sxy !sxx

(* Jobs u .. u + 3 in one sweep: eight independent accumulators, so the
   four dependency chains overlap instead of waiting on each other. *)
let pearson4 t rows mean out u =
  let fc = t.full_centered in
  let r0 = rows.(u) and r1 = rows.(u + 1) and r2 = rows.(u + 2) and r3 = rows.(u + 3) in
  let m0 = mean.(u) and m1 = mean.(u + 1) and m2 = mean.(u + 2) and m3 = mean.(u + 3) in
  let xy0 = ref 0.0 and xx0 = ref 0.0 and xy1 = ref 0.0 and xx1 = ref 0.0 in
  let xy2 = ref 0.0 and xx2 = ref 0.0 and xy3 = ref 0.0 and xx3 = ref 0.0 in
  for p = 0 to t.n_pairs - 1 do
    let dy = Array.unsafe_get fc p in
    let d0 = Array.unsafe_get r0 p -. m0 in
    xy0 := !xy0 +. (d0 *. dy);
    xx0 := !xx0 +. (d0 *. d0);
    let d1 = Array.unsafe_get r1 p -. m1 in
    xy1 := !xy1 +. (d1 *. dy);
    xx1 := !xx1 +. (d1 *. d1);
    let d2 = Array.unsafe_get r2 p -. m2 in
    xy2 := !xy2 +. (d2 *. dy);
    xx2 := !xx2 +. (d2 *. d2);
    let d3 = Array.unsafe_get r3 p -. m3 in
    xy3 := !xy3 +. (d3 *. dy);
    xx3 := !xx3 +. (d3 *. d3)
  done;
  finish t out u !xy0 !xx0;
  finish t out (u + 1) !xy1 !xx1;
  finish t out (u + 2) !xy2 !xx2;
  finish t out (u + 3) !xy3 !xx3

(* rho of every job through distance rows [rows.(u)]; each pool block
   owns its jobs' rows, accumulators and results. *)
let run_jobs pool t rows jobs =
  let m = Array.length jobs in
  let mean = Array.make m 0.0 and out = Array.make m 0.0 in
  Pool.run_blocks pool m (fun _ lo hi ->
      sweep t jobs rows mean lo hi;
      for u = lo to hi do
        mean.(u) <- mean.(u) /. float_of_int t.n_pairs
      done;
      let u = ref lo in
      while !u + 3 <= hi do
        pearson4 t rows mean out !u;
        u := !u + 4
      done;
      for u = !u to hi do
        pearson1 t rows mean out u
      done);
  out

(* The sweep reads columns, bases and keeps unchecked, so every column,
   signed or not, is validated once per evaluation. *)
let check_cols t subset =
  Array.iter
    (fun c -> if c < 0 || c >= t.n_chars then invalid_arg "Fitness: subset column out of range")
    subset

let check_job t job =
  Array.iter
    (fun c ->
      let c = if c >= 0 then c else lnot c in
      if c >= t.n_chars then invalid_arg "Fitness.eval: column out of range")
    job.cols;
  let fits = function Some a -> Array.length a = t.n_pairs | None -> true in
  if not (fits job.base && fits job.keep) then invalid_arg "Fitness.eval: sums of the wrong length"

type scratch = float array array

let scratch t m = Array.init m (fun _ -> Array.create_float t.n_pairs)

let eval ?(pool = Pool.sequential) ?scratch t jobs =
  Array.iter (check_job t) jobs;
  let rows =
    match scratch with
    | Some rows ->
      if Array.length rows < Array.length jobs then invalid_arg "Fitness.eval: scratch too small";
      if Array.exists (fun r -> Array.length r <> t.n_pairs) rows then
        invalid_arg "Fitness.eval: scratch from another fitness";
      rows
    | None -> Array.init (Array.length jobs) (fun _ -> Array.create_float t.n_pairs)
  in
  run_jobs pool t rows jobs

(* ---------------- single subsets ---------------- *)

let distances_for t subset =
  check_cols t subset;
  let out = Array.create_float t.n_pairs in
  sweep t [| { cols = subset; base = None; keep = None } |] [| out |] [| 0.0 |] 0 0;
  out

let rho t subset =
  check_cols t subset;
  (run_jobs Pool.sequential t [| t.row |] [| { cols = subset; base = None; keep = None } |]).(0)

let of_rho t ~size rho =
  if size = 0 then 0.0 else rho *. (1.0 -. (float_of_int size /. float_of_int t.n_chars))

let paper_fitness t subset = of_rho t ~size:(Array.length subset) (rho t subset)
