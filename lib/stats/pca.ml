type t = {
  mean : float array;
  scale : float array;
  components : Matrix.t;
  eigenvalues : float array;
}

(* Cyclic Jacobi eigenvalue algorithm for symmetric matrices. *)
let jacobi_eigen sym =
  let n = Array.length sym in
  let a = Matrix.copy sym in
  let v = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0)) in
  let off_diagonal_norm () =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        acc := !acc +. (a.(i).(j) *. a.(i).(j))
      done
    done;
    sqrt !acc
  in
  let rotate p q =
    let apq = a.(p).(q) in
    if Float.abs apq > 1e-15 then begin
      let theta = (a.(q).(q) -. a.(p).(p)) /. (2.0 *. apq) in
      let t =
        let sign = if theta >= 0.0 then 1.0 else -1.0 in
        sign /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
      in
      let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
      let s = t *. c in
      for k = 0 to n - 1 do
        let akp = a.(k).(p) and akq = a.(k).(q) in
        a.(k).(p) <- (c *. akp) -. (s *. akq);
        a.(k).(q) <- (s *. akp) +. (c *. akq)
      done;
      for k = 0 to n - 1 do
        let apk = a.(p).(k) and aqk = a.(q).(k) in
        a.(p).(k) <- (c *. apk) -. (s *. aqk);
        a.(q).(k) <- (s *. apk) +. (c *. aqk)
      done;
      for k = 0 to n - 1 do
        let vkp = v.(k).(p) and vkq = v.(k).(q) in
        v.(k).(p) <- (c *. vkp) -. (s *. vkq);
        v.(k).(q) <- (s *. vkp) +. (c *. vkq)
      done
    end
  in
  let max_sweeps = 100 in
  let sweeps = ref 0 in
  while off_diagonal_norm () > 1e-12 && !sweeps < max_sweeps do
    incr sweeps;
    for p = 0 to n - 1 do
      for q = p + 1 to n - 1 do
        rotate p q
      done
    done
  done;
  let eigenvalues = Array.init n (fun i -> a.(i).(i)) in
  let order = Array.init n Fun.id in
  Array.sort (fun x y -> compare eigenvalues.(y) eigenvalues.(x)) order;
  let sorted_values = Array.map (fun i -> eigenvalues.(i)) order in
  (* eigenvectors as rows: row r = eigenvector of the r-th largest value *)
  let vectors = Array.map (fun i -> Array.init n (fun k -> v.(k).(i))) order in
  (sorted_values, vectors)

let fit ?(standardize = true) m =
  let _, cols = Matrix.dims m in
  let stats = Array.init cols (fun j -> Matrix.column_mean_std m j) in
  let mean = Array.map fst stats in
  let scale =
    if standardize then
      Array.map (fun (_, s) -> if s > 0.0 then s else 1.0) stats
    else Array.make cols 1.0
  in
  let centered =
    Array.map (fun row -> Array.mapi (fun j x -> (x -. mean.(j)) /. scale.(j)) row) m
  in
  let cov = Matrix.covariance centered in
  let eigenvalues, components = jacobi_eigen cov in
  (* numerical noise can produce tiny negative eigenvalues; clamp *)
  let eigenvalues = Array.map (fun l -> if l < 0.0 then 0.0 else l) eigenvalues in
  { mean; scale; components; eigenvalues }

let transform t ?dims m =
  let total = Array.length t.eigenvalues in
  let dims = match dims with Some d -> min d total | None -> total in
  Array.map
    (fun row ->
      let centered = Array.mapi (fun j x -> (x -. t.mean.(j)) /. t.scale.(j)) row in
      Array.init dims (fun d ->
          let comp = t.components.(d) in
          let acc = ref 0.0 in
          Array.iteri (fun j x -> acc := !acc +. (x *. comp.(j))) centered;
          !acc))
    m

let explained_variance_ratio t =
  let total = Descriptive.sum t.eigenvalues in
  if total <= 0.0 then Array.map (fun _ -> 0.0) t.eigenvalues
  else Array.map (fun l -> l /. total) t.eigenvalues
