module Rng = Mica_util.Rng
module Opcode = Mica_isa.Opcode
module Reg = Mica_isa.Reg

type mem_pattern =
  | Fixed
  | Seq of { stride : int }
  | Strided of { stride : int }
  | Random
  | Chase

type branch_kind =
  | Loop_like of { period : int }
  | Periodic of { period : int; taken_in_period : int }
  | Biased of { taken_prob : float }
  | History of { depth : int }

type mix = { load : float; store : float; branch : float; int_mul : float; fp : float }

type spec = {
  name : string;
  body_slots : int;
  mix : mix;
  load_patterns : (float * mem_pattern) list;
  store_patterns : (float * mem_pattern) list;
  data_bytes : int;
  helper_instrs : int;
  helper_regions : int;
  helper_call_prob : float;
  helper_zipf_s : float;
  trip_count : int;
  dep_geom_p : float;
  loop_carried_frac : float;
  hot_value_frac : float;
  imm_frac : float;
  branch_kinds : (float * branch_kind) list;
  branch_skip_max : int;
  fp_mul_frac : float;
  fp_div_frac : float;
}

let default =
  {
    name = "default";
    body_slots = 24;
    mix = { load = 0.25; store = 0.10; branch = 0.10; int_mul = 0.01; fp = 0.0 };
    load_patterns = [ (0.6, Seq { stride = 8 }); (0.3, Fixed); (0.1, Random) ];
    store_patterns = [ (0.7, Seq { stride = 8 }); (0.3, Fixed) ];
    data_bytes = 64 * 1024;
    helper_instrs = 512;
    helper_regions = 4;
    helper_call_prob = 0.05;
    helper_zipf_s = 1.2;
    trip_count = 64;
    dep_geom_p = 0.35;
    loop_carried_frac = 0.05;
    hot_value_frac = 0.10;
    imm_frac = 0.30;
    branch_kinds = [ (0.7, Loop_like { period = 16 }); (0.3, Biased { taken_prob = 0.4 }) ];
    branch_skip_max = 2;
    fp_mul_frac = 0.35;
    fp_div_frac = 0.02;
  }

let frac_ok f = f >= 0.0 && f <= 1.0

(* [Generator.branch_outcome] takes [execs mod period] and keeps 16 bits of
   global history, so a period below 1 would divide by zero and a deeper
   history would read bits that were never kept. *)
let branch_kind_error = function
  | Loop_like { period } ->
    if period < 1 then Some (Printf.sprintf "loop period %d must be at least 1" period) else None
  | Periodic { period; taken_in_period } ->
    if period < 1 then Some (Printf.sprintf "periodic period %d must be at least 1" period)
    else if taken_in_period < 0 || taken_in_period > period then
      Some (Printf.sprintf "periodic taken_in_period %d must lie in [0, %d]" taken_in_period period)
    else None
  | Biased { taken_prob } ->
    (* [frac_ok] is false for NaN *)
    if frac_ok taken_prob then None
    else Some (Printf.sprintf "biased taken_prob %g must lie in [0,1]" taken_prob)
  | History { depth } ->
    if depth < 0 || depth > 16 then Some (Printf.sprintf "history depth %d must lie in [0, 16]" depth)
    else None

let validate spec =
  let err msg = Error (Printf.sprintf "kernel %S: %s" spec.name msg) in
  let { load; store; branch; int_mul; fp } = spec.mix in
  if spec.body_slots < 4 then err "body_slots must be at least 4"
  else if not (List.for_all frac_ok [ load; store; branch; int_mul; fp ]) then
    err "mix fractions must lie in [0,1]"
  else if load +. store +. branch +. int_mul +. fp > 0.96 then
    err "mix fractions must leave room for ALU operations (sum <= 0.96)"
  else if load > 0.0 && spec.load_patterns = [] then err "load_patterns is empty"
  else if store > 0.0 && spec.store_patterns = [] then err "store_patterns is empty"
  else if spec.data_bytes < 64 then err "data_bytes must be at least 64"
  else if spec.helper_instrs < 0 || spec.helper_regions < 0 then
    err "helper sizes must be non-negative"
  else if spec.helper_instrs > 0 && spec.helper_regions = 0 then
    err "helper_instrs > 0 requires helper_regions > 0"
  else if not (frac_ok spec.helper_call_prob) then err "helper_call_prob must lie in [0,1]"
  else if spec.trip_count < 1 then err "trip_count must be positive"
  else if not (spec.dep_geom_p > 0.0 && spec.dep_geom_p <= 1.0) then
    err "dep_geom_p must lie in (0,1]"
  else if not (frac_ok spec.loop_carried_frac) then err "loop_carried_frac must lie in [0,1]"
  else if not (frac_ok spec.hot_value_frac) then err "hot_value_frac must lie in [0,1]"
  else if not (frac_ok spec.imm_frac) then err "imm_frac must lie in [0,1]"
  else if branch > 0.0 && spec.branch_kinds = [] then err "branch_kinds is empty"
  else if spec.branch_skip_max < 0 then err "branch_skip_max must be non-negative"
  else if not (frac_ok spec.fp_mul_frac && frac_ok spec.fp_div_frac) then
    err "fp split fractions must lie in [0,1]"
  else if spec.fp_mul_frac +. spec.fp_div_frac > 1.0 then
    err "fp_mul_frac + fp_div_frac must not exceed 1"
  else
    match List.find_map (fun (_, kind) -> branch_kind_error kind) spec.branch_kinds with
    | Some msg -> err msg
    | None -> Ok ()

(* ---------------- the static code image ----------------

   Every slot of an instance lives in a handful of flat arrays, body first
   (indices [0, body_len)), then each helper region in turn ([helper_len]
   slots each).  Arrays of ints and of constant constructors hold no
   pointers, so the image is allocated once per instance, at its final
   size, and the minor GC never scans or promotes it.  Branch state exists
   only in the body: helpers are straight-line code. *)

type access = No_access | Fixed_access | Stride_access | Random_access | Chase_access
type rule = No_rule | Loop_rule | Periodic_rule | Biased_rule | History_rule

type instance = {
  spec : spec;
  code_base : int;
  loop_pc : int;
  data_base : int;
  body_len : int;
  helper_len : int;
  helper_bases : int array;
  helper_weights : (float * int) array;
  op : int array;
  dst : int array;
  src1 : int array;
  src2 : int array;
  mem_access : access array;
  mem_stride : int array;
  mem_cursor : int array;
  mem_aux : int array;
  br_rule : rule array;
  br_param : int array;
  br_taken : int array;
  br_prob : float array;
  br_skip : int array;
  br_execs : int array;
}

let code_bytes spec = (spec.body_slots + 1 + spec.helper_instrs) * 4

let slot_pc k i =
  if i < 0 || i >= Array.length k.op then invalid_arg "Kernel.slot_pc: no such slot"
  else if i < k.body_len then k.code_base + (4 * i)
  else
    let h = i - k.body_len in
    k.helper_bases.(h / k.helper_len) + (4 * (h mod k.helper_len))

let op_load = Opcode.to_int Opcode.Load
let op_store = Opcode.to_int Opcode.Store
let op_branch = Opcode.to_int Opcode.Branch
let op_int_mul = Opcode.to_int Opcode.Int_mul
let op_fp_add = Opcode.to_int Opcode.Fp_add
let op_fp_mul = Opcode.to_int Opcode.Fp_mul
let op_fp_div = Opcode.to_int Opcode.Fp_div

(* Writes [count] copies of [code] from [pos <= len], stopping at [len];
   returns the next free position. *)
let fill_ops (op : int array) ~off ~len pos count code =
  let stop = Int.min len (pos + Int.max 0 count) in
  for i = pos to stop - 1 do
    op.(off + i) <- code
  done;
  stop

(* Deterministic class counts matching the mix as closely as integer slots
   allow, written over the region's Int_alu default, then shuffled so
   classes interleave. *)
let sample_ops rng spec (mix : mix) (op : int array) ~off ~len =
  let count f = int_of_float (Float.round (f *. float_of_int len)) in
  let n_fp = count mix.fp in
  let n_fp_div = int_of_float (Float.round (spec.fp_div_frac *. float_of_int n_fp)) in
  let n_fp_mul = int_of_float (Float.round (spec.fp_mul_frac *. float_of_int n_fp)) in
  let n_fp_add = Int.max 0 (n_fp - n_fp_div - n_fp_mul) in
  let pos = fill_ops op ~off ~len 0 (count mix.load) op_load in
  let pos = fill_ops op ~off ~len pos (count mix.store) op_store in
  let pos = fill_ops op ~off ~len pos (count mix.branch) op_branch in
  let pos = fill_ops op ~off ~len pos (count mix.int_mul) op_int_mul in
  let pos = fill_ops op ~off ~len pos n_fp_add op_fp_add in
  let pos = fill_ops op ~off ~len pos n_fp_mul op_fp_mul in
  let (_ : int) = fill_ops op ~off ~len pos n_fp_div op_fp_div in
  Rng.shuffle_ints rng op ~pos:off ~len

(* Destination register for slot [i] of a region: integer results rotate
   over r0..r29, floating-point results over f0..f31.  Branches and stores
   produce nothing. *)
let dst_for_slot i op =
  match (op : Opcode.t) with
  | Branch | Jump | Call | Return | Store | Nop -> Reg.none
  | Fp_add | Fp_mul | Fp_div -> Reg.fp_base + (i mod Reg.fp_count)
  | Load | Int_alu | Int_mul -> i mod 30

(* What one instantiation draws with, computed once: the spec's weighted
   choices as arrays, and [log (1 - dep_geom_p)] for every producer
   distance. *)
type ctx = {
  c_spec : spec;
  c_log_q : float;
  c_span8 : int;  (* memory offsets are drawn as multiples of 8 below this *)
  c_branches : (float * branch_kind) array;
}

(* One region of the image being built: the body or one helper. *)
type region = {
  r_off : int;
  r_len : int;
  r_hot : int;  (* the first produced register: hot loop index / base pointer *)
  r_loads : (float * mem_pattern) array;
  r_stores : (float * mem_pattern) array;
  r_loop_carried : float;
}

let source_count rng spec op =
  match (op : Opcode.t) with
  | Load -> 1
  | Store -> 2
  | Branch -> 1
  | Return -> 1
  | Jump | Call | Nop -> 0
  | Int_alu | Int_mul -> if Rng.bernoulli rng ~p:spec.imm_frac then 1 else 2
  | Fp_add | Fp_mul | Fp_div -> 2

(* Both offsets are drawn for every memory slot although only Random and
   Chase read [aux]: the draw keeps every later slot's draws in place.
   [x * 8] is below [data_bytes] (at least 64), so no reduction is needed. *)
let init_mem rng c k s patterns =
  let pattern = Rng.pick_weighted rng patterns in
  k.mem_cursor.(s) <- Rng.int rng c.c_span8 * 8;
  k.mem_aux.(s) <- Rng.int rng c.c_span8 * 8;
  match pattern with
  | Fixed -> k.mem_access.(s) <- Fixed_access
  | Seq { stride } | Strided { stride } ->
    k.mem_access.(s) <- Stride_access;
    k.mem_stride.(s) <- stride
  | Random -> k.mem_access.(s) <- Random_access
  | Chase -> k.mem_access.(s) <- Chase_access

let set_branch k s rule ~param ~taken ~prob =
  k.br_rule.(s) <- rule;
  k.br_param.(s) <- param;
  k.br_taken.(s) <- taken;
  k.br_prob.(s) <- prob

let set_branch_kind k s = function
  | Loop_like { period } -> set_branch k s Loop_rule ~param:period ~taken:0 ~prob:0.0
  | Periodic { period; taken_in_period } ->
    set_branch k s Periodic_rule ~param:period ~taken:taken_in_period ~prob:0.0
  | Biased { taken_prob } -> set_branch k s Biased_rule ~param:0 ~taken:0 ~prob:taken_prob
  | History { depth } -> set_branch k s History_rule ~param:depth ~taken:0 ~prob:0.0

(* The kind drawn here is always replaced by [stratify_branch_kinds], but
   the draw itself stays: it keeps every later draw in place.  The skip is
   drawn only when the spec allows skips. *)
let init_branch rng c k s =
  set_branch_kind k s (Rng.pick_weighted rng c.c_branches);
  let skip_max = c.c_spec.branch_skip_max in
  k.br_skip.(s) <- (if skip_max > 0 then 1 + Rng.int rng skip_max else 0)

(* The register of the first producer at distance [d], [d + 1], ... before
   slot [i] of the region (cyclically), or [Reg.zero] after [len + 1]
   misses.  [j] walks down from [(i - d) mod len]; distances are usually
   short, so that reduction divides only when [d] exceeds [i + len]. *)
let rec scan_producers (dst : int array) off len j tries =
  if tries > len then Reg.zero
  else
    let r = dst.(off + j) in
    if r <> Reg.none then r
    else scan_producers dst off len (if j = 0 then len - 1 else j - 1) (tries + 1)

let find_producer dst r i d =
  let n = r.r_len in
  let j = i - d in
  let j = if j >= 0 then j else if j >= -n then j + n else ((j mod n) + n) mod n in
  scan_producers dst r.r_off n j 0

(* A register produced at geometric distance before slot [i]. *)
let producer_reg rng c k r i =
  let d = 1 + Rng.geometric_log rng ~log_q:c.c_log_q in
  find_producer k.dst r i d

let pick_source rng c k r i ~allow_loop_carried =
  if Rng.bernoulli rng ~p:c.c_spec.hot_value_frac then r.r_hot
  else if allow_loop_carried && Rng.bernoulli rng ~p:r.r_loop_carried then
    let own = k.dst.(r.r_off + i) in
    if own = Reg.none then producer_reg rng c k r i else own
  else producer_reg rng c k r i

(* Draw slot [i]'s memory or branch state, then its sources, in that order. *)
let build_slot rng c k r i =
  let s = r.r_off + i in
  let op = Opcode.of_int k.op.(s) in
  let dst = k.dst.(s) in
  (match op with
  | Load -> init_mem rng c k s r.r_loads
  | Store -> init_mem rng c k s r.r_stores
  | Branch -> init_branch rng c k s
  | Jump | Call | Return | Int_alu | Int_mul | Fp_add | Fp_mul | Fp_div | Nop -> ());
  let n_src = source_count rng c.c_spec op in
  (* Memory addressing reflects the pattern: a pointer-chasing load depends
     on its own previous value; sequential/strided accesses are indexed off
     the induction register (slot 0), so array sweeps do not serialize on
     arbitrary compute the way pointer code does. *)
  let access = k.mem_access.(s) in
  if n_src >= 1 then
    k.src1.(s) <-
      (if access = Chase_access && dst <> Reg.none then dst
       else if access = Stride_access then r.r_hot
       else pick_source rng c k r i ~allow_loop_carried:true);
  if n_src >= 2 then k.src2.(s) <- pick_source rng c k r i ~allow_loop_carried:false

let rec first_producer (dst : int array) off len i =
  if i >= len then Reg.zero
  else if dst.(off + i) <> Reg.none then dst.(off + i)
  else first_producer dst off len (i + 1)

(* Sample a region's opcodes, assign destinations, then build its slots in
   order.  [swap_producer_first] (the body only) moves the first
   value-producing opcode to slot 0 so the hot register exists. *)
let build_region rng c k (mix : mix) ~off ~len ~loads ~stores ~loop_carried ~swap_producer_first =
  sample_ops rng c.c_spec mix k.op ~off ~len;
  if swap_producer_first then begin
    let j = ref 0 in
    while !j < len && dst_for_slot 0 (Opcode.of_int k.op.(off + !j)) = Reg.none do
      incr j
    done;
    if !j > 0 && !j < len then begin
      let tmp = k.op.(off) in
      k.op.(off) <- k.op.(off + !j);
      k.op.(off + !j) <- tmp
    end
  end;
  for i = 0 to len - 1 do
    k.dst.(off + i) <- dst_for_slot i (Opcode.of_int k.op.(off + i))
  done;
  let r =
    {
      r_off = off;
      r_len = len;
      r_hot = first_producer k.dst off len 0;
      r_loads = loads;
      r_stores = stores;
      r_loop_carried = loop_carried;
    }
  in
  for i = 0 to len - 1 do
    build_slot rng c k r i
  done

(* Branch kinds are allocated with deterministic counts (largest remainder)
   rather than independent draws: kernels have only a handful of static
   branch slots, and independent sampling would make the realized mixture
   vary wildly across kernels.  Rounding shortfalls are filled with
   weighted draws, then the kinds are shuffled over the body's branch
   slots in pc order. *)
let stratify_branch_kinds rng c k =
  let kinds = c.c_branches in
  let count = ref 0 in
  for s = 0 to k.body_len - 1 do
    if k.op.(s) = op_branch then incr count
  done;
  let count = !count in
  if count > 0 && Array.length kinds > 0 then begin
    let total = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 kinds in
    let out = Array.make count (snd kinds.(0)) in
    let pos = ref 0 in
    Array.iter
      (fun (w, kind) ->
        let n = int_of_float (Float.round (w /. total *. float_of_int count)) in
        for _ = 1 to n do
          if !pos < count then begin
            out.(!pos) <- kind;
            incr pos
          end
        done)
      kinds;
    while !pos < count do
      out.(!pos) <- Rng.pick_weighted rng kinds;
      incr pos
    done;
    Rng.shuffle rng out;
    let next = ref 0 in
    for s = 0 to k.body_len - 1 do
      if k.op.(s) = op_branch then begin
        set_branch_kind k s out.(!next);
        incr next
      end
    done
  end

(* Helpers are straight-line code: the body mixture with branches replaced
   by ALU work and mostly-sequential memory accesses. *)
let helper_mem_patterns = [| (0.7, Seq { stride = 8 }); (0.3, Fixed) |]

let instantiate spec ~rng ~code_base ~data_base =
  (match validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg msg);
  let n = spec.body_slots in
  let regions =
    if spec.helper_instrs = 0 || spec.helper_regions = 0 then 0 else spec.helper_regions
  in
  let per_region = if regions = 0 then 0 else Int.max 8 (spec.helper_instrs / regions) in
  let total = n + (regions * per_region) in
  let loop_pc = code_base + (4 * n) in
  let k =
    {
      spec;
      code_base;
      loop_pc;
      data_base;
      body_len = n;
      helper_len = per_region;
      helper_bases = Array.init regions (fun r -> loop_pc + 64 + (r * ((per_region * 4) + 32)));
      helper_weights =
        Array.init regions (fun i -> (1.0 /. ((float_of_int i +. 1.0) ** spec.helper_zipf_s), i));
      op = Array.make total (Opcode.to_int Opcode.Int_alu);
      dst = Array.make total Reg.none;
      src1 = Array.make total Reg.none;
      src2 = Array.make total Reg.none;
      mem_access = Array.make total No_access;
      mem_stride = Array.make total 0;
      mem_cursor = Array.make total 0;
      mem_aux = Array.make total 0;
      br_rule = Array.make n No_rule;
      br_param = Array.make n 0;
      br_taken = Array.make n 0;
      br_prob = Array.make n 0.0;
      br_skip = Array.make n 0;
      br_execs = Array.make n 0;
    }
  in
  let c =
    {
      c_spec = spec;
      c_log_q = log (1. -. spec.dep_geom_p);
      c_span8 = Int.max 1 (spec.data_bytes / 8);
      c_branches = Array.of_list spec.branch_kinds;
    }
  in
  build_region rng c k spec.mix ~off:0 ~len:n ~loads:(Array.of_list spec.load_patterns)
    ~stores:(Array.of_list spec.store_patterns) ~loop_carried:spec.loop_carried_frac
    ~swap_producer_first:true;
  (* Slot 0 is the induction variable: it increments itself once per
     iteration (a one-hop loop-carried chain), and indexed memory accesses
     hang off it. *)
  if k.dst.(0) <> Reg.none then k.src1.(0) <- k.dst.(0);
  stratify_branch_kinds rng c k;
  let helper_mix = { spec.mix with branch = 0.0 } in
  for h = 0 to regions - 1 do
    build_region rng c k helper_mix ~off:(n + (h * per_region)) ~len:per_region
      ~loads:helper_mem_patterns ~stores:helper_mem_patterns ~loop_carried:0.0
      ~swap_producer_first:false
  done;
  k
