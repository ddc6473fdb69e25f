type t = float array array

let make ~rows ~cols v = Array.make_matrix rows cols v

let dims m = (Array.length m, if Array.length m = 0 then 0 else Array.length m.(0))

let copy m = Array.map Array.copy m

let column m j = Array.map (fun row -> row.(j)) m

(* No-copy column reductions.  [column] allocates a fresh n-element array
   per access, which the hot per-column callers (normalization parameters,
   PCA centering, kiviat ranges) paid once per column per call; these
   fold the column in place with the exact summation order of
   [Descriptive.mean/stddev/min_max (column m j)], so results stay
   bit-identical while the copies disappear. *)
let column_mean_std m j =
  let rows = Array.length m in
  if rows = 0 then (0.0, 0.0)
  else begin
    let acc = ref 0.0 in
    for i = 0 to rows - 1 do
      acc := !acc +. (Array.unsafe_get m i).(j)
    done;
    let mean = !acc /. float_of_int rows in
    if rows < 2 then (mean, 0.0)
    else begin
      let sq = ref 0.0 in
      for i = 0 to rows - 1 do
        let d = (Array.unsafe_get m i).(j) -. mean in
        sq := !sq +. (d *. d)
      done;
      (mean, sqrt (!sq /. float_of_int rows))
    end
  end

let column_min_max m j =
  let rows = Array.length m in
  assert (rows > 0);
  let lo = ref m.(0).(j) and hi = ref m.(0).(j) in
  for i = 0 to rows - 1 do
    let x = (Array.unsafe_get m i).(j) in
    if x < !lo then lo := x;
    if x > !hi then hi := x
  done;
  (!lo, !hi)

let select_columns m idx = Array.map (fun row -> Array.map (fun j -> row.(j)) idx) m

let mul a b =
  let ra, ca = dims a and rb, cb = dims b in
  if ca <> rb then invalid_arg "Matrix.mul: dimension mismatch";
  Array.init ra (fun i ->
      Array.init cb (fun j ->
          let acc = ref 0.0 in
          for k = 0 to ca - 1 do
            acc := !acc +. (a.(i).(k) *. b.(k).(j))
          done;
          !acc))

let covariance m =
  let rows, cols = dims m in
  if rows = 0 then make ~rows:cols ~cols 0.0
  else begin
    (* column means in one row-major sweep — no per-column array, and the
       same per-column summation order as [Descriptive.mean (column m j)] *)
    let means = Array.make cols 0.0 in
    for i = 0 to rows - 1 do
      let r = m.(i) in
      for j = 0 to cols - 1 do
        means.(j) <- means.(j) +. r.(j)
      done
    done;
    let nf = float_of_int rows in
    for j = 0 to cols - 1 do
      means.(j) <- means.(j) /. nf
    done;
    let cov = make ~rows:cols ~cols 0.0 in
    for i = 0 to rows - 1 do
      for a = 0 to cols - 1 do
        let da = m.(i).(a) -. means.(a) in
        for b = a to cols - 1 do
          cov.(a).(b) <- cov.(a).(b) +. (da *. (m.(i).(b) -. means.(b)))
        done
      done
    done;
    let n = float_of_int rows in
    for a = 0 to cols - 1 do
      for b = a to cols - 1 do
        cov.(a).(b) <- cov.(a).(b) /. n;
        cov.(b).(a) <- cov.(a).(b)
      done
    done;
    cov
  end

let correlation_matrix m =
  let cov = covariance m in
  let cols = Array.length cov in
  let out = make ~rows:cols ~cols 0.0 in
  for a = 0 to cols - 1 do
    for b = 0 to cols - 1 do
      if a = b then out.(a).(b) <- 1.0
      else begin
        let denom = sqrt (cov.(a).(a) *. cov.(b).(b)) in
        out.(a).(b) <- (if denom > 0.0 then cov.(a).(b) /. denom else 0.0)
      end
    done
  done;
  out
