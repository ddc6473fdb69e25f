type linkage = Single | Complete | Average

type tree =
  | Leaf of int
  | Node of { left : tree; right : tree; height : float; size : int }

let size = function Leaf _ -> 1 | Node { size; _ } -> size
let height = function Leaf _ -> 0.0 | Node { height; _ } -> height

let leaves tree =
  let rec go acc = function
    | Leaf i -> i :: acc
    | Node { left; right; _ } -> go (go acc right) left
  in
  go [] tree

let cluster ?(linkage = Average) m =
  let n = Array.length m in
  if n = 0 then invalid_arg "Linkage.cluster: empty matrix";
  (* active clusters: tree, plus a distance table indexed by slot *)
  let trees = Array.init n (fun i -> Some (Leaf i)) in
  let dist = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = Distance.euclidean m.(i) m.(j) in
      dist.(i).(j) <- d;
      dist.(j).(i) <- d
    done
  done;
  let active = ref n in
  let result = ref None in
  while !active > 1 do
    (* find the closest active pair *)
    let best_i = ref (-1) and best_j = ref (-1) and best_d = ref infinity in
    for i = 0 to n - 1 do
      if trees.(i) <> None then
        for j = i + 1 to n - 1 do
          if trees.(j) <> None && dist.(i).(j) < !best_d then begin
            best_d := dist.(i).(j);
            best_i := i;
            best_j := j
          end
        done
    done;
    let i = !best_i and j = !best_j in
    let ti = Option.get trees.(i) and tj = Option.get trees.(j) in
    let merged =
      Node { left = ti; right = tj; height = !best_d; size = size ti + size tj }
    in
    (* Lance-Williams update of distances from the merged cluster (stored
       in slot i) to every other active cluster *)
    let ni = float_of_int (size ti) and nj = float_of_int (size tj) in
    for k = 0 to n - 1 do
      if k <> i && k <> j && trees.(k) <> None then begin
        let dik = dist.(i).(k) and djk = dist.(j).(k) in
        let d =
          match linkage with
          | Single -> Float.min dik djk
          | Complete -> Float.max dik djk
          | Average -> ((ni *. dik) +. (nj *. djk)) /. (ni +. nj)
        in
        dist.(i).(k) <- d;
        dist.(k).(i) <- d
      end
    done;
    trees.(i) <- Some merged;
    trees.(j) <- None;
    decr active;
    result := Some merged
  done;
  match !result with
  | Some t -> t
  | None -> (
    (* n = 1: single leaf *)
    match trees.(0) with Some t -> t | None -> assert false)

let assignments_of_subtrees total subtrees =
  let out = Array.make total (-1) in
  List.iteri (fun c t -> List.iter (fun leaf -> out.(leaf) <- c) (leaves t)) subtrees;
  out

let cut tree ~k =
  let n = size tree in
  if k < 1 || k > n then invalid_arg "Linkage.cut: k out of range";
  (* repeatedly split the subtree with the greatest merge height *)
  let clusters = ref [ tree ] in
  while List.length !clusters < k do
    let tallest =
      List.fold_left
        (fun best t -> match best with Some b when height b >= height t -> best | _ -> Some t)
        None !clusters
    in
    match tallest with
    | Some (Node { left; right; _ } as t) ->
      clusters := left :: right :: List.filter (fun c -> c != t) !clusters
    | Some (Leaf _) | None -> invalid_arg "Linkage.cut: cannot split further"
  done;
  (* order clusters by leaf order for stable ids *)
  let ordered =
    List.sort
      (fun a b -> compare (List.hd (leaves a)) (List.hd (leaves b)))
      !clusters
  in
  assignments_of_subtrees n ordered
