module Rng = Mica_util.Rng
module Pool = Mica_util.Pool

type interval = { estimate : float; lo : float; hi : float; replicates : int }

(* The probability outside each bound of a two-sided 95% interval. *)
let tail = (1.0 -. 0.95) /. 2.0

let interval ?(replicates = 1000) ?(pool = Mica_util.Pool.sequential) ~rng ~n f =
  if n <= 0 then invalid_arg "Bootstrap.interval: need observations";
  let estimate = f (Array.init n Fun.id) in
  (* sequential pre-split, one generator per replicate, so the replicate
     set is identical at any pool size *)
  let rngs = Array.init replicates (fun _ -> Rng.split rng) in
  let stats =
    Pool.map pool replicates (fun r ->
        let rng = rngs.(r) in
        f (Array.init n (fun _ -> Rng.int rng n)))
  in
  {
    estimate;
    lo = Descriptive.percentile stats tail;
    hi = Descriptive.percentile stats (1.0 -. tail);
    replicates;
  }

let pair_distance_statistic ~normalized_a ~normalized_b stat sample =
  let n = Array.length sample in
  let da = ref [] and db = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if sample.(i) <> sample.(j) then begin
        da := Distance.euclidean normalized_a.(sample.(i)) normalized_a.(sample.(j)) :: !da;
        db := Distance.euclidean normalized_b.(sample.(i)) normalized_b.(sample.(j)) :: !db
      end
    done
  done;
  stat (Array.of_list !da) (Array.of_list !db)
