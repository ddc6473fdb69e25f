module Opcode = Mica_isa.Opcode
module Chunk = Mica_trace.Chunk

type variant = GAg | PAg | GAs | PAs

let all_variants = [ GAg; PAg; GAs; PAs ]

let variant_name = function GAg -> "GAg" | PAg -> "PAg" | GAs -> "GAs" | PAs -> "PAs"

let uses_local_history = function PAg | PAs -> true | GAg | GAs -> false
let uses_per_address_table = function GAs | PAs -> true | GAg | PAg -> false

module Int_map = Mica_util.Int_map

type predictor = {
  variant : variant;
  order : int;
  table : Int_map.t;  (* context key -> packed (taken, not_taken) counts *)
  mutable misses : int;
}

type t = {
  predictors : predictor array;
  local_hist : Int_map.t;  (* per-branch outcome history *)
  mutable ghist : int;
  order : int;
  mutable branches : int;
}

(* A context entry packs both saturating-free counters into one int:
   taken in the low 31 bits, not-taken above them.  Branch counts are
   bounded by the trace length, far below 2^31, so the halves cannot
   collide. *)
let taken_one = 1
let not_taken_one = 1 lsl 31
let mask31 = (1 lsl 31) - 1

let create ?(order = 8) ?(variants = all_variants) () =
  assert (order >= 0 && order <= 16);
  {
    predictors =
      Array.of_list
        (List.map
           (fun variant -> { variant; order; table = Int_map.create ~initial:4096 (); misses = 0 })
           variants);
    local_hist = Int_map.create ~initial:512 ();
    ghist = 0;
    order;
    branches = 0;
  }

(* Context key for a given order [k], history [h] and (optional) branch pc.
   [k] disambiguates histories of different lengths; the pc component is 0
   for shared-table variants. *)
let key ~pc ~k ~h ~order = (((pc * 17) + k) lsl order) lor (h land ((1 lsl order) - 1))

let history_bits h k = h land ((1 lsl k) - 1)

(* Every conditional branch runs up to [2 * (order + 1)] table probes per
   predictor variant; [Int_map] keeps each one a single multiply-and-scan
   with no allocation. *)

let rec predict_from table ~pc_part ~hist ~order k =
  if k < 0 then true (* no context ever seen: default taken *)
  else
    let c = Int_map.find table (key ~pc:pc_part ~k ~h:(history_bits hist k) ~order) ~default:0 in
    (* entries exist only after an update, so [c > 0] iff the context has
       been seen — the packed halves are never both zero once inserted *)
    if c > 0 then c land mask31 >= c lsr 31
    else predict_from table ~pc_part ~hist ~order (k - 1)

let predict p ~pc ~hist =
  let pc_part = if uses_per_address_table p.variant then pc else 0 in
  predict_from p.table ~pc_part ~hist ~order:p.order p.order

let update p ~pc ~hist ~outcome =
  let pc_part = if uses_per_address_table p.variant then pc else 0 in
  let delta = if outcome then taken_one else not_taken_one in
  for k = 0 to p.order do
    let h = history_bits hist k in
    Int_map.bump p.table (key ~pc:pc_part ~k ~h ~order:p.order) delta
  done

let observe t ~pc ~outcome =
  t.branches <- t.branches + 1;
  let lhist = Int_map.find t.local_hist pc ~default:0 in
  (* a plain loop: an [Array.iter] closure here would be allocated on
     every branch *)
  for i = 0 to Array.length t.predictors - 1 do
    let p = t.predictors.(i) in
    let hist = if uses_local_history p.variant then lhist else t.ghist in
    if predict p ~pc ~hist <> outcome then p.misses <- p.misses + 1;
    update p ~pc ~hist ~outcome
  done;
  let bit = Bool.to_int outcome in
  Int_map.set t.local_hist pc (((lhist lsl 1) lor bit) land 0xFFFF);
  t.ghist <- ((t.ghist lsl 1) lor bit) land 0xFFFF

let op_branch = Opcode.to_int Opcode.Branch

let sink t =
  Mica_trace.Sink.make ~name:"ppm" (fun c ->
      let len = c.Chunk.len in
      let ops = c.Chunk.op and pcs = c.Chunk.pc and taken = c.Chunk.taken in
      for i = 0 to len - 1 do
        if Array.unsafe_get ops i = op_branch then
          observe t ~pc:(Array.unsafe_get pcs i)
            ~outcome:(Bytes.unsafe_get taken i <> '\000')
      done)

let miss_rate t variant =
  if t.branches = 0 then 0.0
  else
    let p = Array.to_list t.predictors |> List.find (fun p -> p.variant = variant) in
    float_of_int p.misses /. float_of_int t.branches

let branches t = t.branches

let to_vector t =
  let present v = Array.exists (fun p -> p.variant = v) t.predictors in
  Array.of_list (List.filter present all_variants |> List.map (miss_rate t))
