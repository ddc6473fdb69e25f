(* Left-to-right, same order as [Array.fold_left ( +. ) 0.0] — but as a
   direct loop so the accumulator stays unboxed (fold_left's closure boxes
   every intermediate float, which dominated the selection kernels'
   allocation profile). *)
let sum xs =
  let acc = ref 0.0 in
  for i = 0 to Array.length xs - 1 do
    acc := !acc +. Array.unsafe_get xs i
  done;
  !acc

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else sum xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = ref 0.0 in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int n
  end

let stddev xs = sqrt (variance xs)

let min_max xs =
  assert (Array.length xs > 0);
  Array.fold_left
    (fun (lo, hi) x -> ((if x < lo then x else lo), if x > hi then x else hi))
    (xs.(0), xs.(0))
    xs

let percentile xs p =
  assert (Array.length xs > 0);
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = p *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  let lo = max 0 (min (n - 1) lo) and hi = max 0 (min (n - 1) hi) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

(* ---------------- run-to-run variance summary ----------------

   The aggregator behind [mica variance]: single Welford pass over the
   finite samples only (non-finite inputs are dropped, not propagated —
   the cache loader's finite-value guard, applied to measurements), so a
   NaN wall-time from a corrupt metrics snapshot degrades one sample
   instead of poisoning the whole report. *)

type summary = { count : int; mean_v : float; stddev_v : float; cv : float }

let summarize xs =
  let n = ref 0 in
  let m = ref 0.0 in
  let m2 = ref 0.0 in
  Array.iter
    (fun x ->
      if Float.is_finite x then begin
        incr n;
        let delta = x -. !m in
        m := !m +. (delta /. float_of_int !n);
        m2 := !m2 +. (delta *. (x -. !m))
      end)
    xs;
  let count = !n in
  let mean_v = if count = 0 then 0.0 else !m in
  let stddev_v = if count < 2 then 0.0 else sqrt (Float.max 0.0 !m2 /. float_of_int count) in
  let cv =
    if stddev_v = 0.0 then 0.0
    else if mean_v = 0.0 then Float.infinity
    else stddev_v /. Float.abs mean_v
  in
  { count; mean_v; stddev_v; cv }
