module Rng = Mica_util.Rng
module Pool = Mica_util.Pool
module Obs = Mica_obs.Obs

(* Bumped on the main domain from the per-restart results, after the pool
   fan-out returns, so readings are identical at any [jobs]. *)
let m_restarts = Obs.counter "kmeans.restarts"
let m_iterations = Obs.counter "kmeans.iterations"

type result = {
  k : int;
  assignments : int array;
  centroids : Matrix.t;
  inertia : float;
  iterations : int;
}

(* Squared Euclidean distance, op-for-op [Distance.squared_euclidean a b]
   (same element order, same [acc +. d *. d] fold).  Without flambda a
   call into [Distance] returns its float boxed (12 M minor words over
   Fig 6's BIC sweep); this local copy is inlined instead.  [fit] has
   checked that every row has the same length, which makes the unchecked
   reads safe. *)
let[@inline] sq_dist a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = Array.unsafe_get a i -. Array.unsafe_get b i in
    acc := !acc +. (d *. d)
  done;
  !acc

(* Index of the centroid nearest [x], the first on a tie; its squared
   distance is left in [d.(0)].  A flat float array carries the distance
   back unboxed, so the assignment, inertia and reseed loops allocate
   nothing per point.

   Four centroids per pass: [x.(j)] is loaded once for four independent
   sums, so four 4-cycle add chains overlap instead of running back to
   back.  Each sum starts from 0.0 and takes
   [centroid.(j) -. x.(j)] squared in element order, exactly as
   [sq_dist centroid x] does, so it is that distance to the bit.  The
   four are then compared in index order with the strict [<], which is
   the one-at-a-time scan's sequence of comparisons: the result, ties
   included, is unchanged.  The last [k mod 4] centroids go one at a
   time. *)
let nearest d centroids x =
  let k = Array.length centroids and dims = Array.length x in
  let best = ref 0 and best_d = ref infinity in
  let g = ref 0 in
  while !g + 4 <= k do
    let c = !g in
    let c0 = Array.unsafe_get centroids c
    and c1 = Array.unsafe_get centroids (c + 1)
    and c2 = Array.unsafe_get centroids (c + 2)
    and c3 = Array.unsafe_get centroids (c + 3) in
    let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
    for j = 0 to dims - 1 do
      let xj = Array.unsafe_get x j in
      let d0 = Array.unsafe_get c0 j -. xj
      and d1 = Array.unsafe_get c1 j -. xj
      and d2 = Array.unsafe_get c2 j -. xj
      and d3 = Array.unsafe_get c3 j -. xj in
      s0 := !s0 +. (d0 *. d0);
      s1 := !s1 +. (d1 *. d1);
      s2 := !s2 +. (d2 *. d2);
      s3 := !s3 +. (d3 *. d3)
    done;
    if !s0 < !best_d then begin
      best_d := !s0;
      best := c
    end;
    if !s1 < !best_d then begin
      best_d := !s1;
      best := c + 1
    end;
    if !s2 < !best_d then begin
      best_d := !s2;
      best := c + 2
    end;
    if !s3 < !best_d then begin
      best_d := !s3;
      best := c + 3
    end;
    g := c + 4
  done;
  for c = !g to k - 1 do
    let dc = sq_dist (Array.unsafe_get centroids c) x in
    if dc < !best_d then begin
      best_d := dc;
      best := c
    end
  done;
  Array.unsafe_set d 0 !best_d;
  !best

(* [d2.(i) <- min d2.(i) (sq_dist m.(i) centroid)] for every point, four
   points per pass.  As in [nearest], each of the four sums is
   [sq_dist m.(i) centroid] to the bit, and the points are independent,
   so the update is the one-point-at-a-time update.  A [d2] filled with
   [infinity] takes the first centroid's distances unchanged: a sum of
   squares of finite values is never NaN. *)
let refresh d2 m centroid =
  let n = Array.length m and dims = Array.length centroid in
  let g = ref 0 in
  while !g + 4 <= n do
    let i = !g in
    let p0 = Array.unsafe_get m i
    and p1 = Array.unsafe_get m (i + 1)
    and p2 = Array.unsafe_get m (i + 2)
    and p3 = Array.unsafe_get m (i + 3) in
    let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
    for j = 0 to dims - 1 do
      let cj = Array.unsafe_get centroid j in
      let e0 = Array.unsafe_get p0 j -. cj
      and e1 = Array.unsafe_get p1 j -. cj
      and e2 = Array.unsafe_get p2 j -. cj
      and e3 = Array.unsafe_get p3 j -. cj in
      s0 := !s0 +. (e0 *. e0);
      s1 := !s1 +. (e1 *. e1);
      s2 := !s2 +. (e2 *. e2);
      s3 := !s3 +. (e3 *. e3)
    done;
    if !s0 < Array.unsafe_get d2 i then Array.unsafe_set d2 i !s0;
    if !s1 < Array.unsafe_get d2 (i + 1) then Array.unsafe_set d2 (i + 1) !s1;
    if !s2 < Array.unsafe_get d2 (i + 2) then Array.unsafe_set d2 (i + 2) !s2;
    if !s3 < Array.unsafe_get d2 (i + 3) then Array.unsafe_set d2 (i + 3) !s3;
    g := i + 4
  done;
  for i = !g to n - 1 do
    let s = sq_dist (Array.unsafe_get m i) centroid in
    if s < Array.unsafe_get d2 i then Array.unsafe_set d2 i s
  done

(* k-means++ seeding: first centroid uniform, then proportional to squared
   distance to the nearest chosen centroid. *)
let seed rng k m =
  let n = Array.length m in
  let centroids = Array.make k m.(0) in
  centroids.(0) <- Array.copy m.(Rng.int rng n);
  let d2 = Array.make n infinity in
  refresh d2 m centroids.(0);
  for c = 1 to k - 1 do
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. d2.(i)
    done;
    let chosen =
      if !total <= 0.0 then Rng.int rng n
      else begin
        (* first index whose running sum passes [r], else the last *)
        let r = Rng.float rng !total in
        let acc = ref 0.0 and pick = ref (-1) and i = ref 0 in
        while !pick < 0 && !i < n do
          acc := !acc +. d2.(!i);
          if r < !acc then pick := !i;
          incr i
        done;
        if !pick < 0 then n - 1 else !pick
      end
    in
    centroids.(c) <- Array.copy m.(chosen);
    refresh d2 m centroids.(c)
  done;
  centroids

let lloyd ~max_iters m centroids =
  let n = Array.length m in
  let k = Array.length centroids in
  let dims = Array.length m.(0) in
  let assignments = Array.make n (-1) in
  let d = [| 0.0 |] in
  let sums = Array.make_matrix k dims 0.0 in
  let counts = Array.make k 0 in
  let iterations = ref 0 in
  let changed = ref true in
  while !changed && !iterations < max_iters do
    incr iterations;
    changed := false;
    (* assignment step *)
    for i = 0 to n - 1 do
      let c = nearest d centroids m.(i) in
      if c <> assignments.(i) then begin
        assignments.(i) <- c;
        changed := true
      end
    done;
    (* update step *)
    Array.iter (fun row -> Array.fill row 0 dims 0.0) sums;
    Array.fill counts 0 k 0;
    for i = 0 to n - 1 do
      let c = assignments.(i) in
      counts.(c) <- counts.(c) + 1;
      let row = m.(i) and sum = sums.(c) in
      for j = 0 to dims - 1 do
        sum.(j) <- sum.(j) +. row.(j)
      done
    done;
    for c = 0 to k - 1 do
      if counts.(c) > 0 then begin
        (* centroids own their rows (seeding and reseeding copy), so the
           mean is written in place *)
        let centroid = centroids.(c) and sum = sums.(c) in
        let count = float_of_int counts.(c) in
        for j = 0 to dims - 1 do
          centroid.(j) <- sum.(j) /. count
        done
      end
      else begin
        (* re-seed an empty cluster with the point farthest from its centroid *)
        let far = ref 0 and far_d = ref neg_infinity in
        for i = 0 to n - 1 do
          ignore (nearest d centroids m.(i) : int);
          if d.(0) > !far_d then begin
            far_d := d.(0);
            far := i
          end
        done;
        centroids.(c) <- Array.copy m.(!far);
        changed := true
      end
    done
  done;
  (* A convergence exit means the last assignment step changed nothing
     and reseeded nothing; it was not the first step, which moves every
     point off -1.  So every cluster was non-empty in the step before it
     too, and the update just made recomputed the previous centroids from
     the same members in the same order: the same centroids to the bit.  Rescanning them would return the assignments
     already held, with the distances [sq_dist] gives, so the inertia
     takes one distance per point.  A [max_iters] exit (or a last step
     that reseeded) has moved the centroids since they were assigned, and
     must rescan. *)
  let inertia = ref 0.0 in
  if !changed then
    for i = 0 to n - 1 do
      assignments.(i) <- nearest d centroids m.(i);
      inertia := !inertia +. d.(0)
    done
  else
    for i = 0 to n - 1 do
      inertia := !inertia +. sq_dist centroids.(assignments.(i)) m.(i)
    done;
  (assignments, !inertia, !iterations)

(* A NaN anywhere poisons clustering silently: every distance comparison
   involving NaN is false, so assignments and inertia become arbitrary
   without any error surfacing.  Reject non-finite inputs upfront, naming
   the offending observation and characteristic column — and ragged rows,
   which the unchecked distance loop must never see. *)
let check_input ?features m =
  let dims = Array.length m.(0) in
  Array.iteri
    (fun i row ->
      if Array.length row <> dims then
        invalid_arg
          (Printf.sprintf "Kmeans.fit: observation %d has %d values, observation 0 has %d" i
             (Array.length row) dims);
      Array.iteri
        (fun j v ->
          if not (Float.is_finite v) then begin
            let column =
              match features with
              | Some fs when j < Array.length fs -> Printf.sprintf "%S" fs.(j)
              | Some _ | None -> Printf.sprintf "#%d" j
            in
            invalid_arg
              (Printf.sprintf
                 "Kmeans.fit: non-finite value %g in observation %d, characteristic %s" v i
                 column)
          end)
        row)
    m

let fit ?(max_iters = 100) ?(restarts = 1) ?(pool = Pool.sequential) ?features ~rng ~k m =
  Obs.span "stats.kmeans" @@ fun () ->
  let n = Array.length m in
  if k < 1 || k > n then invalid_arg "Kmeans.fit: k out of range";
  check_input ?features m;
  let restarts = max 1 restarts in
  (* one generator per restart, split off sequentially up front: the
     restarts are then independent tasks whose streams — and the winning
     clustering — do not depend on the pool size *)
  let rngs = Array.init restarts (fun _ -> Rng.split rng) in
  let results =
    Pool.map pool restarts (fun r ->
        let centroids = seed rngs.(r) k m in
        let assignments, inertia, iterations = lloyd ~max_iters m centroids in
        (assignments, centroids, inertia, iterations))
  in
  Obs.add m_restarts (float_of_int restarts);
  Array.iter (fun (_, _, _, iters) -> Obs.add m_iterations (float_of_int iters)) results;
  (* ordered reduce: the earliest restart with minimal inertia wins *)
  let best = ref 0 in
  for r = 1 to restarts - 1 do
    let _, _, best_inertia, _ = results.(!best) in
    let _, _, inertia, _ = results.(r) in
    if inertia < best_inertia then best := r
  done;
  let assignments, centroids, inertia, iterations = results.(!best) in
  { k; assignments; centroids; inertia; iterations }

let cluster_members result =
  let members = Array.make result.k [] in
  let n = Array.length result.assignments in
  for i = n - 1 downto 0 do
    let c = result.assignments.(i) in
    members.(c) <- i :: members.(c)
  done;
  members
