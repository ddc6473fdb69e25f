module Opcode = Mica_isa.Opcode
module Chunk = Mica_trace.Chunk

type variant = GAg | PAg | GAs | PAs

let all_variants = [ GAg; PAg; GAs; PAs ]

let uses_local_history = function PAg | PAs -> true | GAg | GAs -> false
let uses_per_address_table = function GAs | PAs -> true | GAg | PAg -> false

module Int_map = Mica_util.Int_map

(* Each predictor keeps its contexts in binary tries over branch
   outcomes.  A node is a context: the root is the empty context, and the
   child for bit [b] of a node at depth [k] extends its context with
   outcome [b] of the branch [k + 1] branches back (history bit [k]), so
   the node reached after [k] steps is the context of the last [k]
   outcomes.  Shared-table variants have one trie; per-address variants
   one per branch site.

   All tries of a predictor live in one flat int pool, three ints per
   node at offset [o]: packed counts at [o], the child for outcome 0 at
   [o + 1] and for outcome 1 at [o + 2].  A child link of 0 means absent:
   offset 0 holds the first root, and no root is ever a child. *)
let node_ints = 3

type predictor = {
  variant : variant;
  local : bool;  (* histories come from the branch's own site *)
  per_address : bool;  (* one trie per branch site *)
  mutable pool : int array;
  mutable used : int;  (* ints of [pool] holding nodes *)
  mutable roots : int array;  (* site -> root offset, per-address variants *)
  mutable misses : int;
}

type t = {
  predictors : predictor array;
  sites : Int_map.t;  (* branch pc -> site index *)
  mutable local_hist : int array;  (* site -> that branch's outcome history *)
  mutable n_sites : int;
  mutable ghist : int;
  order : int;
  mutable branches : int;
}

(* A node's counts pack both saturating-free counters into one int:
   taken in the low 31 bits, not-taken above them.  Branch counts are
   bounded by the trace length, far below 2^31, so the halves cannot
   collide, and a node's counts are non-zero exactly when its context
   has been seen. *)
let taken_one = 1
let not_taken_one = 1 lsl 31
let mask31 = (1 lsl 31) - 1

(* Starting sizes; both grow by doubling.  Over the registry at 20k
   instructions a workload has at most 12 branch sites, and a predictor
   236-895 contexts on average (at most 2,493). *)
let initial_nodes = 512
let initial_sites = 16

(* Room for [n] more nodes; growing zero-fills, so fresh nodes have no
   counts and no children. *)
let reserve p n =
  let need = p.used + (n * node_ints) in
  let len = Array.length p.pool in
  if need > len then begin
    let pool = Array.make (Int.max need (2 * len)) 0 in
    Array.blit p.pool 0 pool 0 p.used;
    p.pool <- pool
  end

let new_node p =
  reserve p 1;
  let o = p.used in
  p.used <- o + node_ints;
  o

let make_predictor variant =
  let p =
    {
      variant;
      local = uses_local_history variant;
      per_address = uses_per_address_table variant;
      pool = Array.make (initial_nodes * node_ints) 0;
      used = 0;
      roots = (if uses_per_address_table variant then Array.make initial_sites 0 else [||]);
      misses = 0;
    }
  in
  (* the shared trie's root sits at offset 0 *)
  if not p.per_address then ignore (new_node p : int);
  p

let create ?(order = 8) ?(variants = all_variants) () =
  assert (order >= 0 && order <= 16);
  {
    predictors = Array.of_list (List.map make_predictor variants);
    sites = Int_map.create ~initial:(2 * initial_sites) ();
    local_hist = Array.make initial_sites 0;
    n_sites = 0;
    ghist = 0;
    order;
    branches = 0;
  }

(* [a] with room for index [n] = [Array.length a] at most: doubled,
   zero-filled, when full. *)
let grown a n = if n < Array.length a then a else Array.append a (Array.make (Array.length a) 0)

(* A branch pc seen for the first time gets the next site index, a zero
   local history and a fresh root in every per-address trie. *)
let add_site t pc =
  let site = t.n_sites in
  Int_map.set t.sites pc site;
  t.n_sites <- site + 1;
  t.local_hist <- grown t.local_hist site;
  Array.iter
    (fun p ->
      if p.per_address then begin
        p.roots <- grown p.roots site;
        p.roots.(site) <- new_node p
      end)
    t.predictors;
  site

(* One branch through one trie: walk from [root] down the contexts of
   lengths 0..order of [hist], reading each node's counts before bumping
   them by [delta], and creating the nodes not seen before.  The
   prediction comes from the deepest node whose counts were non-zero
   before this branch, i.e. the longest context seen before; with none it
   defaults to taken.  The caller reserved [order] nodes, so every offset
   below lies inside [pool]. *)
let walk (pool : int array) root (hist : int) (delta : int) order p =
  let node = ref root and taken = ref true in
  for k = 0 to order do
    let o = !node in
    let c = Array.unsafe_get pool o in
    if c > 0 then taken := c land mask31 >= c lsr 31;
    Array.unsafe_set pool o (c + delta);
    if k < order then begin
      let link = o + 1 + ((hist lsr k) land 1) in
      let child = Array.unsafe_get pool link in
      if child <> 0 then node := child
      else begin
        let fresh = p.used in
        p.used <- fresh + node_ints;
        Array.unsafe_set pool link fresh;
        node := fresh
      end
    end
  done;
  !taken

let observe t ~pc ~outcome =
  t.branches <- t.branches + 1;
  if pc < 0 then invalid_arg "Ppm: negative branch pc";
  let site =
    let s = Int_map.find t.sites pc ~default:(-1) in
    if s >= 0 then s else add_site t pc
  in
  let lhist = Array.unsafe_get t.local_hist site in
  let delta = if outcome then taken_one else not_taken_one in
  (* a plain loop: an [Array.iter] closure here would be allocated on
     every branch *)
  for i = 0 to Array.length t.predictors - 1 do
    let p = Array.unsafe_get t.predictors i in
    reserve p t.order;
    let root = if p.per_address then Array.unsafe_get p.roots site else 0 in
    let hist = if p.local then lhist else t.ghist in
    if walk p.pool root hist delta t.order p <> outcome then p.misses <- p.misses + 1
  done;
  let bit = Bool.to_int outcome in
  Array.unsafe_set t.local_hist site (((lhist lsl 1) lor bit) land 0xFFFF);
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
