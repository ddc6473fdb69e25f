(* The sketched characterization analyzer.

   Mirrors [Mica_analysis.Extended] — same 56-characteristic vector, same
   Table II ordering — but every unbounded table is replaced by a
   fixed-memory estimator:

     working sets   -> {!Cardinality} (HLL / linear-counting hybrid)
     stride state   -> {!Bounded.Map} last-address table + {!Bounded.Decay_hist}
     PPM contexts   -> {!Bounded.Map} per-variant context tables
     branch stats   -> direct-mapped per-branch table + {!Cardinality}
     reuse distance -> {!Sampled_reuse} (hash-sampled, rate-adaptive)

   Mix, ILP and register traffic already hold fixed-size state in the
   exact analyzers, so the sketch path reuses them verbatim — those
   characteristics are exact by construction.

   State is fixed at creation from a byte budget ({!plan}); accuracy is
   monotone in the budget (more registers, more slots, more sampled
   blocks).  All placement flows through the one fixed hash
   ({!Cardinality.hash}), so results are bit-deterministic and invariant
   under chunking, seeds and the worker count. *)

module Opcode = Mica_isa.Opcode
module Chunk = Mica_trace.Chunk
module Mix = Mica_analysis.Mix
module Ilp = Mica_analysis.Ilp
module Regtraffic = Mica_analysis.Regtraffic
module Strides = Mica_analysis.Strides
module Extended = Mica_analysis.Extended

(* ------------------------------------------------------------------ *)
(* Budget plan                                                         *)

type plan = {
  bytes : int;  (* requested total budget *)
  ws_registers : int;  (* per working-set sketch (4 sketches, 1 B/register) *)
  stride_slots : int;  (* per-static-instruction last-address table *)
  ppm_slots : int;  (* per predictor-variant context table (4 tables) *)
  hist_slots : int;  (* PPM local-history table *)
  branch_slots : int;  (* per-branch statistics table *)
  reuse_near_slots : int;  (* near recency table of the reuse estimator *)
  reuse_capacity : int;  (* sampled blocks in the far reuse estimator *)
}

let default_bytes = 1 lsl 20

(* largest power of two <= n, floored at [floor] *)
let pow2_floor ~floor n =
  let rec up c = if c * 2 <= n then up (c * 2) else c in
  if n <= floor then floor else up floor

(* Split the byte budget across the estimator families.  The PPM context
   tables and the reuse estimator dominate exact-path memory, so they get
   three eighths each (the reuse share splits 2:1 between the near
   recency table at 48 B/slot and the far sampled table at 64 B/block).
   Every component is monotone in [bytes], which is what makes accuracy
   monotone in the budget. *)
let plan ?(bytes = default_bytes) () =
  if bytes < 4096 then invalid_arg "Sketch.plan: budget must be at least 4096 bytes";
  {
    bytes;
    ppm_slots = pow2_floor ~floor:16 (bytes * 3 / 8 / 4 / 16);
    reuse_near_slots = pow2_floor ~floor:16 (bytes * 3 / 8 * 2 / 3 / 48);
    reuse_capacity = pow2_floor ~floor:16 (bytes * 3 / 8 / 3 / 64);
    stride_slots = pow2_floor ~floor:16 (bytes / 8 / 16);
    branch_slots = pow2_floor ~floor:16 (bytes / 16 / 40);
    ws_registers = pow2_floor ~floor:16 (bytes / 32 / 4);
    hist_slots = pow2_floor ~floor:16 (bytes / 32 / 16);
  }

(* ------------------------------------------------------------------ *)
(* Strides over bounded state                                          *)

type strides = {
  ll : Bounded.Decay_hist.t;
  gl : Bounded.Decay_hist.t;
  ls : Bounded.Decay_hist.t;
  gs : Bounded.Decay_hist.t;
  last_by_pc : Bounded.Map.t;  (* eviction = forget that static instruction *)
  mutable last_load : int;
  mutable last_store : int;
}

let make_strides ~slots =
  {
    ll = Bounded.Decay_hist.create ~cutoffs:Strides.cutoffs;
    gl = Bounded.Decay_hist.create ~cutoffs:Strides.cutoffs;
    ls = Bounded.Decay_hist.create ~cutoffs:Strides.cutoffs;
    gs = Bounded.Decay_hist.create ~cutoffs:Strides.cutoffs;
    last_by_pc = Bounded.Map.create ~slots;
    last_load = -1;
    last_store = -1;
  }

let op_load = Opcode.to_int Opcode.Load
let op_store = Opcode.to_int Opcode.Store
let op_branch = Opcode.to_int Opcode.Branch

let strides_chunk t (c : Chunk.t) =
  let len = c.Chunk.len in
  let ops = c.Chunk.op and pcs = c.Chunk.pc and addrs = c.Chunk.addr in
  for i = 0 to len - 1 do
    let code = Array.unsafe_get ops i in
    if code = op_load then begin
      let pc = Array.unsafe_get pcs i and addr = Array.unsafe_get addrs i in
      if t.last_load >= 0 then Bounded.Decay_hist.record t.gl (abs (addr - t.last_load));
      t.last_load <- addr;
      let prev = Bounded.Map.find t.last_by_pc pc ~default:(-1) in
      if prev >= 0 then Bounded.Decay_hist.record t.ll (abs (addr - prev));
      Bounded.Map.set t.last_by_pc pc addr
    end
    else if code = op_store then begin
      let pc = Array.unsafe_get pcs i and addr = Array.unsafe_get addrs i in
      if t.last_store >= 0 then Bounded.Decay_hist.record t.gs (abs (addr - t.last_store));
      t.last_store <- addr;
      let prev = Bounded.Map.find t.last_by_pc pc ~default:(-1) in
      if prev >= 0 then Bounded.Decay_hist.record t.ls (abs (addr - prev));
      Bounded.Map.set t.last_by_pc pc addr
    end
  done

let strides_vector t =
  Array.concat
    [
      Bounded.Decay_hist.cdf t.ll;
      Bounded.Decay_hist.cdf t.gl;
      Bounded.Decay_hist.cdf t.ls;
      Bounded.Decay_hist.cdf t.gs;
    ]

let strides_reset t =
  Bounded.Decay_hist.reset t.ll;
  Bounded.Decay_hist.reset t.gl;
  Bounded.Decay_hist.reset t.ls;
  Bounded.Decay_hist.reset t.gs;
  Bounded.Map.reset t.last_by_pc;
  t.last_load <- -1;
  t.last_store <- -1

let strides_bytes t =
  Bounded.Decay_hist.state_bytes t.ll + Bounded.Decay_hist.state_bytes t.gl
  + Bounded.Decay_hist.state_bytes t.ls
  + Bounded.Decay_hist.state_bytes t.gs
  + Bounded.Map.state_bytes t.last_by_pc

(* ------------------------------------------------------------------ *)
(* PPM predictors over bounded context tables                          *)

(* Same prediction logic as [Mica_analysis.Ppm] — same context keys, same
   packed (taken, not-taken) counters, same longest-match fallback — with
   the per-context [Int_map] replaced by a direct-mapped [Bounded.Map].
   An evicted context simply looks "never seen" again, so the predictor
   falls back to a shorter history, which is exactly its cold behavior. *)

type predictor = {
  per_address : bool;
  local_history : bool;
  table : Bounded.Map.t;
  mutable misses : int;
}

type ppm = {
  predictors : predictor array;  (* GAg, PAg, GAs, PAs — Table II order *)
  local_hist : Bounded.Map.t;
  mutable ghist : int;
  order : int;
  mutable branches : int;
}

let taken_one = 1
let not_taken_one = 1 lsl 31
let mask31 = (1 lsl 31) - 1

let make_ppm ~order ~slots ~hist_slots =
  assert (order >= 0 && order <= 16);
  let pred ~per_address ~local_history =
    { per_address; local_history; table = Bounded.Map.create ~slots; misses = 0 }
  in
  {
    predictors =
      [|
        pred ~per_address:false ~local_history:false (* GAg *);
        pred ~per_address:false ~local_history:true (* PAg *);
        pred ~per_address:true ~local_history:false (* GAs *);
        pred ~per_address:true ~local_history:true (* PAs *);
      |];
    local_hist = Bounded.Map.create ~slots:hist_slots;
    ghist = 0;
    order;
    branches = 0;
  }

let[@inline] ppm_key ~pc ~k ~h ~order = (((pc * 17) + k) lsl order) lor (h land ((1 lsl order) - 1))
let[@inline] history_bits h k = h land ((1 lsl k) - 1)

let rec predict_from table ~pc_part ~hist ~order k =
  if k < 0 then true
  else
    let c =
      Bounded.Map.find table (ppm_key ~pc:pc_part ~k ~h:(history_bits hist k) ~order) ~default:0
    in
    if c > 0 then c land mask31 >= c lsr 31
    else predict_from table ~pc_part ~hist ~order (k - 1)

let ppm_observe t ~pc ~outcome =
  t.branches <- t.branches + 1;
  let lhist = Bounded.Map.find t.local_hist pc ~default:0 in
  let delta = if outcome then taken_one else not_taken_one in
  (* indexed loop, not [Array.iter]: a closure here would be allocated on
     every conditional branch of the trace *)
  for pi = 0 to Array.length t.predictors - 1 do
    let p = Array.unsafe_get t.predictors pi in
    let hist = if p.local_history then lhist else t.ghist in
    let pc_part = if p.per_address then pc else 0 in
    if predict_from p.table ~pc_part ~hist ~order:t.order t.order <> outcome then
      p.misses <- p.misses + 1;
    for k = 0 to t.order do
      let h = history_bits hist k in
      Bounded.Map.bump p.table (ppm_key ~pc:pc_part ~k ~h ~order:t.order) delta
    done
  done;
  let bit = Bool.to_int outcome in
  Bounded.Map.set t.local_hist pc (((lhist lsl 1) lor bit) land 0xFFFF);
  t.ghist <- ((t.ghist lsl 1) lor bit) land 0xFFFF

let ppm_vector t =
  Array.map
    (fun p ->
      if t.branches = 0 then 0.0 else float_of_int p.misses /. float_of_int t.branches)
    t.predictors

let ppm_reset t =
  Array.iter
    (fun p ->
      Bounded.Map.reset p.table;
      p.misses <- 0)
    t.predictors;
  Bounded.Map.reset t.local_hist;
  t.ghist <- 0;
  t.branches <- 0

let ppm_bytes t =
  Array.fold_left (fun acc p -> acc + Bounded.Map.state_bytes p.table) 0 t.predictors
  + Bounded.Map.state_bytes t.local_hist

(* ------------------------------------------------------------------ *)
(* Branch statistics over a direct-mapped per-branch table             *)

(* Parallel arrays keyed by the same slot, so one eviction replaces the
   whole per-branch record at once (keeping fields consistent, unlike
   three independent bounded maps would).  The static-branch population
   is tracked by a {!Cardinality} sketch: eviction loses a branch's
   counters but not its membership. *)

type branches = {
  keys : int array;  (* -1 empty *)
  execs : int array;
  taken : int array;
  trans : int array;  (* transitions lsl 1 lor last-outcome bit *)
  mask : int;
  statics : Cardinality.t;
  mutable resident : int;
  mutable total : int;
  mutable taken_total : int;
  mutable transitions_total : int;
  mutable with_history : int;
}

let make_branches ~slots ~registers =
  let rec ceil_pow2 n c = if c >= n then c else ceil_pow2 n (c * 2) in
  let cap = ceil_pow2 (max 16 slots) 16 in
  {
    keys = Array.make cap (-1);
    execs = Array.make cap 0;
    taken = Array.make cap 0;
    trans = Array.make cap 0;
    mask = cap - 1;
    statics = Cardinality.create ~registers ();
    resident = 0;
    total = 0;
    taken_total = 0;
    transitions_total = 0;
    with_history = 0;
  }

let branches_observe t ~pc ~outcome =
  t.total <- t.total + 1;
  let b = Bool.to_int outcome in
  t.taken_total <- t.taken_total + b;
  Cardinality.add t.statics pc;
  let i = Cardinality.hash pc land t.mask in
  let k = Array.unsafe_get t.keys i in
  if k = pc then begin
    Array.unsafe_set t.execs i (Array.unsafe_get t.execs i + 1);
    Array.unsafe_set t.taken i (Array.unsafe_get t.taken i + b);
    t.with_history <- t.with_history + 1;
    let tr = Array.unsafe_get t.trans i in
    if tr land 1 <> b then begin
      t.transitions_total <- t.transitions_total + 1;
      Array.unsafe_set t.trans i (((tr lsr 1) + 1) lsl 1 lor b)
    end
    else Array.unsafe_set t.trans i ((tr lsr 1) lsl 1 lor b)
  end
  else begin
    if k = -1 then t.resident <- t.resident + 1;
    Array.unsafe_set t.keys i pc;
    Array.unsafe_set t.execs i 1;
    Array.unsafe_set t.taken i b;
    Array.unsafe_set t.trans i b
  end

let branches_vector t =
  let taken_rate = float_of_int t.taken_total /. float_of_int (max 1 t.total) in
  let transition_rate =
    float_of_int t.transitions_total /. float_of_int (max 1 t.with_history)
  in
  let biased = ref 0 in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let rate = float_of_int t.taken.(i) /. float_of_int (max 1 t.execs.(i)) in
        if rate >= 0.9 || rate <= 0.1 then incr biased
      end)
    t.keys;
  let biased_fraction = float_of_int !biased /. float_of_int (max 1 t.resident) in
  [| taken_rate; transition_rate; biased_fraction |]

let branches_reset t =
  Array.fill t.keys 0 (t.mask + 1) (-1);
  Array.fill t.execs 0 (t.mask + 1) 0;
  Array.fill t.taken 0 (t.mask + 1) 0;
  Array.fill t.trans 0 (t.mask + 1) 0;
  Cardinality.reset t.statics;
  t.resident <- 0;
  t.total <- 0;
  t.taken_total <- 0;
  t.transitions_total <- 0;
  t.with_history <- 0

let branches_bytes t = (4 * 8 * (t.mask + 1)) + Cardinality.state_bytes t.statics

(* ------------------------------------------------------------------ *)
(* The combined analyzer                                               *)

type t = {
  mix : Mix.t;
  ilp : Ilp.t;
  regtraffic : Regtraffic.t;
  d_blocks : Cardinality.t;
  d_pages : Cardinality.t;
  i_blocks : Cardinality.t;
  i_pages : Cardinality.t;
  strides : strides;
  ppm : ppm;
  branches : branches;
  reuse : Sampled_reuse.t;
}

let create ?(ppm_order = 8) ?plan:(p = plan ()) () =
  {
    mix = Mix.create ();
    ilp = Ilp.create ();
    regtraffic = Regtraffic.create ();
    d_blocks = Cardinality.create ~registers:p.ws_registers ();
    d_pages = Cardinality.create ~registers:p.ws_registers ();
    i_blocks = Cardinality.create ~registers:p.ws_registers ();
    i_pages = Cardinality.create ~registers:p.ws_registers ();
    strides = make_strides ~slots:p.stride_slots;
    ppm = make_ppm ~order:ppm_order ~slots:p.ppm_slots ~hist_slots:p.hist_slots;
    branches = make_branches ~slots:p.branch_slots ~registers:(min 1024 p.ws_registers);
    reuse =
      Sampled_reuse.create ~near_slots:p.reuse_near_slots ~capacity:p.reuse_capacity
        ~cutoffs:Extended.reuse_cutoffs ();
  }

let is_mem_code = Array.init Opcode.count (fun i -> Opcode.is_mem (Opcode.of_int i))

let on_chunk t (c : Chunk.t) =
  let len = c.Chunk.len in
  let pcs = c.Chunk.pc and ops = c.Chunk.op and addrs = c.Chunk.addr in
  let taken = c.Chunk.taken in
  (* working set + reuse: one fused pass over the memory stream *)
  for i = 0 to len - 1 do
    let pc = Array.unsafe_get pcs i in
    Cardinality.add t.i_blocks (pc lsr 5);
    Cardinality.add t.i_pages (pc lsr 12);
    if Array.unsafe_get is_mem_code (Array.unsafe_get ops i) then begin
      let addr = Array.unsafe_get addrs i in
      Cardinality.add t.d_blocks (addr lsr 5);
      Cardinality.add t.d_pages (addr lsr 12);
      Sampled_reuse.access t.reuse addr
    end
  done;
  (* branches: PPM predictors + per-branch statistics *)
  for i = 0 to len - 1 do
    if Array.unsafe_get ops i = op_branch then begin
      let pc = Array.unsafe_get pcs i in
      let outcome = Bytes.unsafe_get taken i <> '\000' in
      ppm_observe t.ppm ~pc ~outcome;
      branches_observe t.branches ~pc ~outcome
    end
  done;
  strides_chunk t.strides c

let sink t =
  let exact =
    Mica_trace.Sink.fanout
      [ Mix.sink t.mix; Ilp.sink t.ilp; Regtraffic.sink t.regtraffic ]
  in
  Mica_trace.Sink.make ~name:"sketch" (fun c ->
      Mica_obs.Obs.span "sketch.exact" (fun () -> exact.Mica_trace.Sink.on_chunk c);
      Mica_obs.Obs.span "sketch.bounded" (fun () -> on_chunk t c))

let working_set_vector t =
  [|
    Float.round (Cardinality.estimate t.d_blocks);
    Float.round (Cardinality.estimate t.d_pages);
    Float.round (Cardinality.estimate t.i_blocks);
    Float.round (Cardinality.estimate t.i_pages);
  |]

let vector t =
  let v =
    Array.concat
      [
        Mix.to_vector (Mix.result t.mix);
        Ilp.ipc t.ilp;
        Regtraffic.to_vector (Regtraffic.result t.regtraffic);
        working_set_vector t;
        strides_vector t.strides;
        ppm_vector t.ppm;
      ]
  in
  assert (Array.length v = Mica_analysis.Characteristics.count);
  v

let extended_vector t =
  let accesses = Sampled_reuse.accesses t.reuse in
  let cold =
    if accesses = 0 then 0.0 else Sampled_reuse.cold_estimate t.reuse /. float_of_int accesses
  in
  let v =
    Array.concat
      [
        vector t;
        branches_vector t.branches;
        [| Sampled_reuse.mean_log2 t.reuse; cold |];
        Sampled_reuse.cdf t.reuse;
      ]
  in
  assert (Array.length v = Extended.count);
  v

let instructions t = Ilp.instructions t.ilp

let reset t =
  Mix.reset t.mix;
  Ilp.reset t.ilp;
  Regtraffic.reset t.regtraffic;
  Cardinality.reset t.d_blocks;
  Cardinality.reset t.d_pages;
  Cardinality.reset t.i_blocks;
  Cardinality.reset t.i_pages;
  strides_reset t.strides;
  ppm_reset t.ppm;
  branches_reset t.branches;
  Sampled_reuse.reset t.reuse

let state_bytes t =
  Cardinality.state_bytes t.d_blocks + Cardinality.state_bytes t.d_pages
  + Cardinality.state_bytes t.i_blocks
  + Cardinality.state_bytes t.i_pages
  + strides_bytes t.strides + ppm_bytes t.ppm
  + branches_bytes t.branches
  + Sampled_reuse.state_bytes t.reuse

let analyze ?ppm_order ?plan program ~icount =
  let t = create ?ppm_order ?plan () in
  let (_ : int) = Mica_trace.Generator.run program ~icount ~sink:(sink t) in
  t
