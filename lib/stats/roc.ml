type point = { threshold : float; tpr : float; fpr : float }
type curve = { points : point array; auc : float }

let positives ~ref_distances ~frac =
  let _, max_d = Descriptive.min_max ref_distances in
  let threshold = frac *. max_d in
  Array.map (fun d -> d > threshold) ref_distances

(* ---------------- descending radix sort ---------------- *)

(* An LSD radix sort of the scores' IEEE bits, 11 bits a pass.  Of a
   non-negative score's 64 bits the sign is 0, so the other 63 fit an
   OCaml int and order the scores as they order unsigned; complemented,
   they sort a descending order ascending.  A negative score keeps its 63
   magnitude bits, which ascend as the value descends, and one stable
   pass after the others puts the negatives behind the rest.

   Only how equal scores group reaches the curve: a point is a group's
   score and its running counts, and the counts do not depend on the
   order inside a group.  Equal scores have equal bits, so they end up
   adjacent, as they did under a comparison sort.  The one exception is
   +0.0 and -0.0, which are equal with different bits: they still end up
   adjacent (the last non-negative, the first negative), but which of the
   two names the group's threshold depends on the sort.  The scores this
   repository passes are distances, square roots of sums of squares,
   never -0.0.  A NaN equals nothing, not even itself, so no group
   could ever consume it; it is rejected. *)

let digit_bits = 11
let radix = 1 lsl digit_bits
let passes = (63 + digit_bits - 1) / digit_bits

type sorter = {
  mutable keys : int array;
  mutable keys' : int array;
  mutable order : int array;  (* after [sort], scores by descending value *)
  mutable order' : int array;
  counts : int array;  (* one histogram per pass *)
}

let sorter n =
  {
    keys = Array.make n 0;
    keys' = Array.make n 0;
    order = Array.make n 0;
    order' = Array.make n 0;
    counts = Array.make (passes * radix) 0;
  }

let sort t scores =
  let n = Array.length scores in
  let counts = t.counts in
  Array.fill counts 0 (Array.length counts) 0;
  let negatives = ref 0 in
  for i = 0 to n - 1 do
    let x = Array.unsafe_get scores i in
    if Float.is_nan x then invalid_arg (Printf.sprintf "Roc.curve: score %d is NaN" i);
    let bits = Int64.to_int (Int64.bits_of_float x) in
    let key =
      if Float.sign_bit x then begin
        incr negatives;
        bits
      end
      else lnot bits
    in
    Array.unsafe_set t.keys i key;
    Array.unsafe_set t.order i i;
    for p = 0 to passes - 1 do
      let slot = (p * radix) + ((key lsr (p * digit_bits)) land (radix - 1)) in
      Array.unsafe_set counts slot (Array.unsafe_get counts slot + 1)
    done
  done;
  for p = 0 to passes - 1 do
    let shift = p * digit_bits and base = p * radix in
    (* a pass whose digit every key shares would move nothing *)
    if n > 0 && counts.(base + ((t.keys.(0) lsr shift) land (radix - 1))) < n then begin
      (* histogram -> each digit's first output slot *)
      let next = ref 0 in
      for d = base to base + radix - 1 do
        let c = Array.unsafe_get counts d in
        Array.unsafe_set counts d !next;
        next := !next + c
      done;
      let keys = t.keys and order = t.order and keys' = t.keys' and order' = t.order' in
      for i = 0 to n - 1 do
        let key = Array.unsafe_get keys i in
        let slot = base + ((key lsr shift) land (radix - 1)) in
        let at = Array.unsafe_get counts slot in
        Array.unsafe_set counts slot (at + 1);
        Array.unsafe_set keys' at key;
        Array.unsafe_set order' at (Array.unsafe_get order i)
      done;
      t.keys <- keys';
      t.keys' <- keys;
      t.order <- order';
      t.order' <- order
    end
  done;
  if !negatives > 0 then begin
    let order = t.order and order' = t.order' in
    let front = ref 0 and back = ref (n - !negatives) in
    for i = 0 to n - 1 do
      let j = Array.unsafe_get order i in
      if Float.sign_bit (Array.unsafe_get scores j) then begin
        Array.unsafe_set order' !back j;
        incr back
      end
      else begin
        Array.unsafe_set order' !front j;
        incr front
      end
    done;
    t.order <- order';
    t.order' <- order
  end

(* ---------------- curves ---------------- *)

let curve_with t ~labels ~scores =
  let n = Array.length labels in
  if n <> Array.length scores then invalid_arg "Roc.curve: length mismatch";
  let total_pos = Array.fold_left (fun acc l -> if l then acc + 1 else acc) 0 labels in
  let total_neg = n - total_pos in
  if total_pos = 0 || total_neg = 0 then invalid_arg "Roc.curve: need both classes";
  (* descending scores; a threshold at each distinct score *)
  sort t scores;
  let order = t.order in
  let groups = ref 1 in
  for i = 1 to n - 1 do
    if scores.(order.(i)) <> scores.(order.(i - 1)) then incr groups
  done;
  let origin = { threshold = infinity; tpr = 0.0; fpr = 0.0 } in
  let points = Array.make (!groups + 1) origin in
  let fpos = float_of_int total_pos and fneg = float_of_int total_neg in
  let tp = ref 0 and fp = ref 0 and i = ref 0 and g = ref 1 in
  (* trapezoidal AUC over (fpr, tpr), point by point in curve order *)
  let auc = ref 0.0 in
  while !i < n do
    let s = scores.(order.(!i)) in
    (* consume all pairs sharing this score *)
    while !i < n && scores.(order.(!i)) = s do
      if labels.(order.(!i)) then incr tp else incr fp;
      incr i
    done;
    let a = points.(!g - 1) in
    let b = { threshold = s; tpr = float_of_int !tp /. fpos; fpr = float_of_int !fp /. fneg } in
    points.(!g) <- b;
    auc := !auc +. ((b.fpr -. a.fpr) *. (a.tpr +. b.tpr) /. 2.0);
    incr g
  done;
  { points; auc = !auc }

let curve ~labels ~scores = curve_with (sorter (Array.length scores)) ~labels ~scores

let curves ~labels scores =
  let t = sorter (Array.length labels) in
  List.map (fun scores -> curve_with t ~labels ~scores) scores
