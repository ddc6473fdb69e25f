module Stats = Mica_stats
module Pool = Mica_util.Pool
module Obs = Mica_obs.Obs

let m_steps = Obs.counter "ce.steps"

type step = { removed : int; avg_abs_corr : float; remaining : int array; rho : float }

(* Which characteristic to remove is decided on the full-set correlation
   matrix (computed once; sub-matrices are index restrictions of it), so
   the whole removal sequence, and with it every step's surviving subset,
   is known before any rho is taken.  The steps' rhos are then one batch
   of rebuild jobs: each is the in-order rho of its subset, exactly as
   [Fitness.rho] computes it. *)
(* Kept as a plain function (the [select.ce] span wraps a call to it in
   [run]) so the body's free variables stay ordinary arguments rather than
   closure-environment fields. *)
let run_body ~pool ~down_to ~data fitness =
  let _, n = Stats.Matrix.dims data in
  let down_to = max 1 down_to in
  let corr = Stats.Matrix.correlation_matrix data in
  let alive = Array.make n true in
  let alive_count = ref n in
  let steps = ref [] in
  while !alive_count > down_to do
    (* average |r| of each live characteristic against the other live ones *)
    let best = ref (-1) and best_avg = ref neg_infinity in
    for i = 0 to n - 1 do
      if alive.(i) then begin
        let acc = ref 0.0 and cnt = ref 0 in
        for j = 0 to n - 1 do
          if alive.(j) && j <> i then begin
            acc := !acc +. Float.abs corr.(i).(j);
            incr cnt
          end
        done;
        let avg = if !cnt = 0 then 0.0 else !acc /. float_of_int !cnt in
        if avg > !best_avg then begin
          best_avg := avg;
          best := i
        end
      end
    done;
    alive.(!best) <- false;
    decr alive_count;
    Obs.incr m_steps;
    let remaining = Array.of_list (List.filter (fun c -> alive.(c)) (List.init n Fun.id)) in
    steps := (!best, !best_avg, remaining) :: !steps
  done;
  let steps = Array.of_list (List.rev !steps) in
  let rhos =
    Fitness.eval ~pool fitness
      (Array.map (fun (_, _, cols) -> { Fitness.cols; base = None; keep = None }) steps)
  in
  Array.to_list
    (Array.map2
       (fun (removed, avg_abs_corr, remaining) rho -> { removed; avg_abs_corr; remaining; rho })
       steps rhos)

let run ?(pool = Pool.sequential) ?(down_to = 1) ~data fitness =
  Obs.span "select.ce" (fun () -> run_body ~pool ~down_to ~data fitness)

let subset_of_size steps k =
  match List.find_opt (fun s -> Array.length s.remaining = k) steps with
  | Some s -> s.remaining
  | None -> raise Not_found

(* Score every candidate removal: rho of the subset with that column left
   out, each a one-column delta job off the subset's shared sums, so the
   sweep is O(k * pairs) rather than O(k^2 * pairs).  The jobs fan out
   over the pool; results come back in [subset] order. *)
let leave_one_out ?(pool = Pool.sequential) fitness subset =
  let members = List.sort_uniq compare (Array.to_list subset) in
  let sums = Array.make (Fitness.n_pairs fitness) 0.0 in
  ignore
    (Fitness.eval fitness
       [| { Fitness.cols = Array.of_list members; base = None; keep = Some sums } |]);
  let rhos =
    Fitness.eval ~pool fitness
      (Array.map (fun c -> { Fitness.cols = [| lnot c |]; base = Some sums; keep = None }) subset)
  in
  Array.map2 (fun c r -> (c, r)) subset rhos
