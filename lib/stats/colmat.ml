type array1 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { rows : int; cols : int; data : array1 }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Colmat.create: negative dimension";
  let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (rows * cols) in
  Bigarray.Array1.fill data 0.0;
  { rows; cols; data }

let of_array1 ~rows ~cols data =
  if rows < 0 || cols < 0 then invalid_arg "Colmat.of_array1: negative dimension";
  if Bigarray.Array1.dim data <> rows * cols then
    invalid_arg
      (Printf.sprintf "Colmat.of_array1: buffer holds %d elements, want %d x %d"
         (Bigarray.Array1.dim data) rows cols);
  { rows; cols; data }

let rows t = t.rows
let cols t = t.cols
let dims t = (t.rows, t.cols)

let get t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then invalid_arg "Colmat.get: out of bounds";
  Bigarray.Array1.unsafe_get t.data ((j * t.rows) + i)

let of_matrix m =
  let rows, cols = Matrix.dims m in
  let t = create ~rows ~cols in
  for i = 0 to rows - 1 do
    let r = m.(i) in
    for j = 0 to cols - 1 do
      Bigarray.Array1.unsafe_set t.data ((j * rows) + i) (Array.unsafe_get r j)
    done
  done;
  t

let row_into t i out =
  if i < 0 || i >= t.rows then invalid_arg "Colmat.row_into: row out of bounds";
  if Array.length out <> t.cols then invalid_arg "Colmat.row_into: buffer arity mismatch";
  for j = 0 to t.cols - 1 do
    Array.unsafe_set out j (Bigarray.Array1.unsafe_get t.data ((j * t.rows) + i))
  done

let row t i =
  let out = Array.make t.cols 0.0 in
  row_into t i out;
  out

let to_matrix t = Array.init t.rows (fun i -> row t i)

(* Same summation order as [Descriptive.mean/stddev (Matrix.column m j)]:
   one ascending-row pass for the mean, a second for the squared
   deviations, n < 2 degenerating to stddev 0. *)
let column_mean_std t j =
  if j < 0 || j >= t.cols then invalid_arg "Colmat.column_mean_std: column out of bounds";
  let n = t.rows in
  if n = 0 then (0.0, 0.0)
  else begin
    let base = j * n in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. Bigarray.Array1.unsafe_get t.data (base + i)
    done;
    let mean = !acc /. float_of_int n in
    if n < 2 then (mean, 0.0)
    else begin
      let sq = ref 0.0 in
      for i = 0 to n - 1 do
        let d = Bigarray.Array1.unsafe_get t.data (base + i) -. mean in
        sq := !sq +. (d *. d)
      done;
      (mean, sqrt (!sq /. float_of_int n))
    end
  end

let zscore_params t = Array.init t.cols (fun j -> column_mean_std t j)

let zscore t =
  let params = zscore_params t in
  let out = create ~rows:t.rows ~cols:t.cols in
  for j = 0 to t.cols - 1 do
    let mean, std = params.(j) in
    let base = j * t.rows in
    if std > 0.0 then
      for i = 0 to t.rows - 1 do
        Bigarray.Array1.unsafe_set out.data (base + i)
          ((Bigarray.Array1.unsafe_get t.data (base + i) -. mean) /. std)
      done
    (* create zero-fills: zero-variance columns stay 0, like Normalize *)
  done;
  out

(* Accumulated in ascending column order, the
   [Distance.squared_euclidean] order. *)
let squared_distance t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.rows then
    invalid_arg "Colmat.squared_distance: row out of bounds";
  let acc = ref 0.0 in
  for c = 0 to t.cols - 1 do
    let base = c * t.rows in
    let d =
      Bigarray.Array1.unsafe_get t.data (base + i) -. Bigarray.Array1.unsafe_get t.data (base + j)
    in
    acc := !acc +. (d *. d)
  done;
  !acc

let distance t i j = sqrt (squared_distance t i j)

let distances_from_row t q =
  if Array.length q <> t.cols then invalid_arg "Colmat.distances_from_row: arity mismatch";
  let out = Array.make t.rows 0.0 in
  (* column-outer accumulation keeps the memory stream sequential; per
     row the additions still happen in ascending column order, matching
     [Distance.euclidean q (row i)] bit for bit *)
  for c = 0 to t.cols - 1 do
    let base = c * t.rows in
    let qc = Array.unsafe_get q c in
    for i = 0 to t.rows - 1 do
      let d = qc -. Bigarray.Array1.unsafe_get t.data (base + i) in
      Array.unsafe_set out i (Array.unsafe_get out i +. (d *. d))
    done
  done;
  for i = 0 to t.rows - 1 do
    Array.unsafe_set out i (sqrt (Array.unsafe_get out i))
  done;
  out
