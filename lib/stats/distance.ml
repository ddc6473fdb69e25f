let squared_euclidean a b =
  let n = Array.length a in
  assert (n = Array.length b);
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let euclidean a b = sqrt (squared_euclidean a b)

let pair_count n = n * (n - 1) / 2

let pair_index ~n i j =
  let i, j = if i < j then (i, j) else (j, i) in
  assert (i <> j && j < n);
  (i * (n - 1)) - (i * (i - 1) / 2) + (j - i - 1)

let pairs ~n =
  let out = Array.make (pair_count n) (0, 0) in
  let k = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      out.(!k) <- (i, j);
      incr k
    done
  done;
  out

let condensed m =
  let n = Array.length m in
  let out = Array.make (pair_count n) 0.0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      out.(!k) <- euclidean m.(i) m.(j);
      incr k
    done
  done;
  out

let condensed_squared_components m =
  let n = Array.length m in
  let cols = if n = 0 then 0 else Array.length m.(0) in
  let out = Array.make_matrix (pair_count n) cols 0.0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let dst = out.(!k) in
      let a = m.(i) and b = m.(j) in
      for c = 0 to cols - 1 do
        let d = a.(c) -. b.(c) in
        dst.(c) <- d *. d
      done;
      incr k
    done
  done;
  out

let subset_distances components cols =
  Array.map
    (fun comp ->
      let acc = ref 0.0 in
      Array.iter (fun c -> acc := !acc +. comp.(c)) cols;
      sqrt !acc)
    components
