module Stats = Mica_stats

type t = {
  interval : int;
  k : int;
  assignments : int array;
  representatives : int array;
  weights : float array;
}

let analyze ?(interval = 10_000) ?(dims = 15) program ~icount =
  let bbv = Mica_analysis.Bbv.create ~interval () in
  let (_ : int) =
    Mica_trace.Generator.run program ~icount ~sink:(Mica_analysis.Bbv.sink bbv)
  in
  let projected = Mica_analysis.Bbv.projected ~dims bbv in
  let n = Array.length projected in
  if n = 0 then invalid_arg "Phases.analyze: trace too short for one interval";
  let rng = Mica_util.Rng.create ~seed:0x9A5E5L in
  (* Steady-state guard: if the between-interval variance is negligible
     relative to the BBV magnitude, the program has a single phase — any
     clustering of the residual noise would be overfitting. *)
  let total_ss =
    Array.fold_left
      (fun acc row -> acc +. Array.fold_left (fun a v -> a +. (v *. v)) 0.0 row)
      0.0 projected
  in
  let single = Stats.Kmeans.fit ~rng ~k:1 projected in
  let negligible = single.Stats.Kmeans.inertia < 0.02 *. Float.max total_ss 1e-12 in
  let k, result =
    if negligible || n = 1 then (1, single)
    else begin
      let sweep = Stats.Bic.sweep ~k_min:1 ~k_max:(min 10 n) ~restarts:3 ~rng projected in
      (* SimPoint's selection rule: the smallest K within 90% of the best
         BIC (the Peak rule would chase residual noise). *)
      let k, result, _ = Stats.Bic.choose ~frac:0.9 ~prefer:Stats.Bic.Smallest_within sweep in
      (k, result)
    end
  in
  let assignments = result.Stats.Kmeans.assignments in
  (* representative = interval closest to its centroid *)
  let representatives = Array.make k (-1) in
  let best = Array.make k infinity in
  Array.iteri
    (fun i row ->
      let c = assignments.(i) in
      let d = Stats.Distance.squared_euclidean row result.Stats.Kmeans.centroids.(c) in
      if d < best.(c) then begin
        best.(c) <- d;
        representatives.(c) <- i
      end)
    projected;
  let counts = Array.make k 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) assignments;
  let weights = Array.map (fun c -> float_of_int c /. float_of_int n) counts in
  { interval; k; assignments; representatives; weights }

let phase_char c =
  if c < 26 then Char.chr (Char.code 'A' + c) else Char.chr (Char.code 'a' + (c - 26) mod 26)

let timeline t =
  String.init (Array.length t.assignments) (fun i -> phase_char t.assignments.(i))

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%d phases over %d intervals of %d instructions\n"
       t.k (Array.length t.assignments) t.interval);
  Array.iteri
    (fun c w ->
      Buffer.add_string buf
        (Printf.sprintf "  phase %c: weight %5.1f%%, representative interval %d\n"
           (phase_char c) (100.0 *. w) t.representatives.(c)))
    t.weights;
  Buffer.add_string buf (Printf.sprintf "timeline: %s\n" (timeline t));
  Buffer.contents buf
