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
  else Ok ()

type slot = {
  s_pc : int;
  s_op : Opcode.t;
  s_dst : int;
  s_src1 : int;
  s_src2 : int;
  s_mem : mem_state option;
  s_br : br_state option;
}

and mem_state = {
  m_pattern : mem_pattern;
  m_base : int;
  m_span : int;
  mutable m_cursor : int;
  mutable m_aux : int;  (* locality-window start for Random/Chase patterns *)
}

and br_state = { b_kind : branch_kind; b_skip : int; mutable b_execs : int }

type helper = { h_base : int; h_body : slot array }

type instance = {
  i_spec : spec;
  i_code_base : int;
  i_body : slot array;
  i_loop_pc : int;
  i_helpers : helper array;
  i_helper_weights : (float * int) array;
  mutable i_visits : int;
}

let code_bytes spec = (spec.body_slots + 1 + spec.helper_instrs) * 4

(* Deterministic class counts matching the mix as closely as integer slots
   allow, then shuffled so classes interleave. *)
let sample_ops rng spec n =
  let { load; store; branch; int_mul; fp } = spec.mix in
  let count f = int_of_float (Float.round (f *. float_of_int n)) in
  let n_load = count load
  and n_store = count store
  and n_branch = count branch
  and n_mul = count int_mul
  and n_fp = count fp in
  let n_fp_div = int_of_float (Float.round (spec.fp_div_frac *. float_of_int n_fp)) in
  let n_fp_mul = int_of_float (Float.round (spec.fp_mul_frac *. float_of_int n_fp)) in
  let n_fp_add = max 0 (n_fp - n_fp_div - n_fp_mul) in
  let ops = Array.make n Opcode.Int_alu in
  let pos = ref 0 in
  let fill count op =
    for _ = 1 to count do
      if !pos < n then begin
        ops.(!pos) <- op;
        incr pos
      end
    done
  in
  fill n_load Opcode.Load;
  fill n_store Opcode.Store;
  fill n_branch Opcode.Branch;
  fill n_mul Opcode.Int_mul;
  fill n_fp_add Opcode.Fp_add;
  fill n_fp_mul Opcode.Fp_mul;
  fill n_fp_div Opcode.Fp_div;
  Rng.shuffle rng ops;
  ops

(* Destination register for slot [i]: integer results rotate over r0..r29,
   floating-point results over f0..f31.  Branches and stores produce
   nothing. *)
let dst_for_slot i op =
  match (op : Opcode.t) with
  | Branch | Jump | Call | Return | Store | Nop -> Reg.none
  | Fp_add | Fp_mul | Fp_div -> Reg.fp_base + (i mod Reg.fp_count)
  | Load | Int_alu | Int_mul -> i mod 30

let source_count rng spec op =
  match (op : Opcode.t) with
  | Load -> 1
  | Store -> 2
  | Branch -> 1
  | Return -> 1
  | Jump | Call | Nop -> 0
  | Int_alu | Int_mul -> if Rng.bernoulli rng ~p:spec.imm_frac then 1 else 2
  | Fp_add | Fp_mul | Fp_div -> 2

(* The spec's weighted choices as arrays, converted once per instantiation
   instead of once per slot. *)
type choices = {
  c_loads : (float * mem_pattern) array;
  c_stores : (float * mem_pattern) array;
  c_branches : (float * branch_kind) array;
}

let choices_of spec =
  {
    c_loads = Array.of_list spec.load_patterns;
    c_stores = Array.of_list spec.store_patterns;
    c_branches = Array.of_list spec.branch_kinds;
  }

let make_mem_state rng patterns ~base ~span =
  let pattern = Rng.pick_weighted rng patterns in
  let cursor = Rng.int rng (Int.max 1 (span / 8)) * 8 mod span in
  let aux = Rng.int rng (Int.max 1 (span / 8)) * 8 mod span in
  { m_pattern = pattern; m_base = base; m_span = span; m_cursor = cursor; m_aux = aux }

let make_br_state rng kinds ~skip_max =
  let kind = Rng.pick_weighted rng kinds in
  let skip = if skip_max > 0 then 1 + Rng.int rng skip_max else 0 in
  { b_kind = kind; b_skip = skip; b_execs = 0 }

(* The register of the first producer at distance [k], [k + 1], ... before
   slot [i] (cyclically), or [Reg.zero] after [n] misses.  Top-level with
   explicit parameters: a nested search would allocate a closure per
   slot. *)
let rec find_producer (dsts : int array) n i k tries =
  if tries > n then Reg.zero
  else
    let j = ((i - k) mod n + n) mod n in
    if Reg.is_none dsts.(j) then find_producer dsts n i (k + 1) (tries + 1) else dsts.(j)

(* Pick the register produced by a slot at geometric distance before [i],
   skipping producers without a destination. *)
let producer_reg rng spec dsts i =
  let d = 1 + Rng.geometric rng ~p:spec.dep_geom_p in
  find_producer dsts (Array.length dsts) i d 0

let rec first_producer (dsts : int array) i =
  if i >= Array.length dsts then Reg.zero
  else if Reg.is_none dsts.(i) then first_producer dsts (i + 1)
  else dsts.(i)

(* first value-producing slot acts as the hot loop index / base pointer *)
let hot_reg dsts = first_producer dsts 0

let pick_source rng spec dsts i ~allow_loop_carried =
  if Rng.bernoulli rng ~p:spec.hot_value_frac then hot_reg dsts
  else if allow_loop_carried && Rng.bernoulli rng ~p:spec.loop_carried_frac then
    if Reg.is_none dsts.(i) then producer_reg rng spec dsts i else dsts.(i)
  else producer_reg rng spec dsts i

let build_slot rng spec choices dsts ~pc ~data_base ~op i =
  let dst = dsts.(i) in
  let mem =
    match (op : Opcode.t) with
    | Load -> Some (make_mem_state rng choices.c_loads ~base:data_base ~span:spec.data_bytes)
    | Store -> Some (make_mem_state rng choices.c_stores ~base:data_base ~span:spec.data_bytes)
    | Branch | Jump | Call | Return | Int_alu | Int_mul | Fp_add | Fp_mul | Fp_div | Nop -> None
  in
  let br =
    match (op : Opcode.t) with
    | Branch -> Some (make_br_state rng choices.c_branches ~skip_max:spec.branch_skip_max)
    | Load | Store | Jump | Call | Return | Int_alu | Int_mul | Fp_add | Fp_mul | Fp_div | Nop ->
      None
  in
  let n_src = source_count rng spec op in
  (* Memory addressing reflects the pattern: a pointer-chasing load depends
     on its own previous value; sequential/strided accesses are indexed off
     the induction register (slot 0), so array sweeps do not serialize on
     arbitrary compute the way pointer code does. *)
  let chasing = match mem with Some m -> m.m_pattern = Chase | None -> false in
  let induction_addressed =
    match mem with
    | Some m -> (match m.m_pattern with Seq _ | Strided _ -> true | Fixed | Random | Chase -> false)
    | None -> false
  in
  let src1 =
    if n_src >= 1 then
      if chasing && not (Reg.is_none dst) then dst
      else if induction_addressed then hot_reg dsts
      else pick_source rng spec dsts i ~allow_loop_carried:true
    else Reg.none
  in
  let src2 = if n_src >= 2 then pick_source rng spec dsts i ~allow_loop_carried:false else Reg.none in
  { s_pc = pc; s_op = op; s_dst = dst; s_src1 = src1; s_src2 = src2; s_mem = mem; s_br = br }

(* Branch kinds are allocated with deterministic counts (largest remainder)
   rather than independent draws: kernels have only a handful of static
   branch slots, and independent sampling would make the realized mixture
   vary wildly across kernels. *)
let stratified_branch_kinds rng kinds count =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 kinds in
  let out = Array.make count None in
  let pos = ref 0 in
  List.iter
    (fun (w, kind) ->
      let c = int_of_float (Float.round (w /. total *. float_of_int count)) in
      for _ = 1 to c do
        if !pos < count then begin
          out.(!pos) <- Some kind;
          incr pos
        end
      done)
    kinds;
  (* fill any rounding shortfall with weighted draws *)
  let arr = Array.of_list kinds in
  while !pos < count do
    out.(!pos) <- Some (Rng.pick_weighted rng arr);
    incr pos
  done;
  let kinds_arr = Array.map Option.get out in
  Rng.shuffle rng kinds_arr;
  kinds_arr

let build_body rng spec choices ~code_base ~data_base =
  let n = spec.body_slots in
  let ops = sample_ops rng spec n in
  (* Slot 0 should produce a value so the hot register exists. *)
  (match Array.find_index (fun op -> not (Reg.is_none (dst_for_slot 0 op))) ops with
  | Some j when j > 0 ->
    let tmp = ops.(0) in
    ops.(0) <- ops.(j);
    ops.(j) <- tmp
  | Some _ | None -> ());
  let dsts = Array.mapi dst_for_slot ops in
  let body =
    Array.init n (fun i ->
        build_slot rng spec choices dsts ~pc:(code_base + (4 * i)) ~data_base ~op:ops.(i) i)
  in
  (* Slot 0 is the induction variable: it increments itself once per
     iteration (a one-hop loop-carried chain), and indexed memory accesses
     hang off it. *)
  if not (Reg.is_none body.(0).s_dst) then
    body.(0) <- { (body.(0)) with s_src1 = body.(0).s_dst };
  (* stratified reassignment of branch kinds over the realized branch slots *)
  let branch_slots =
    Array.of_list (List.filter (fun i -> body.(i).s_br <> None) (List.init n Fun.id))
  in
  if Array.length branch_slots > 0 && spec.branch_kinds <> [] then begin
    let kinds = stratified_branch_kinds rng spec.branch_kinds (Array.length branch_slots) in
    Array.iteri
      (fun k i ->
        match body.(i).s_br with
        | Some br -> body.(i) <- { (body.(i)) with s_br = Some { br with b_kind = kinds.(k) } }
        | None -> ())
      branch_slots
  end;
  body

(* Helpers are straight-line code: the body mixture with branches replaced
   by ALU work and mostly-sequential memory accesses. *)
let helper_mem_patterns = [| (0.7, Seq { stride = 8 }); (0.3, Fixed) |]

let build_helper rng spec choices ~base ~data_base ~slots =
  let helper_spec =
    { spec with body_slots = slots; mix = { spec.mix with branch = 0.0 }; loop_carried_frac = 0.0 }
  in
  let ops = sample_ops rng helper_spec slots in
  let dsts = Array.mapi dst_for_slot ops in
  let body =
    Array.init slots (fun i ->
        build_slot rng helper_spec choices dsts ~pc:(base + (4 * i)) ~data_base ~op:ops.(i) i)
  in
  { h_base = base; h_body = body }

let instantiate spec ~rng ~code_base ~data_base =
  (match validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg msg);
  let choices = choices_of spec in
  let body = build_body rng spec choices ~code_base ~data_base in
  let loop_pc = code_base + (4 * spec.body_slots) in
  let helpers =
    if spec.helper_instrs = 0 || spec.helper_regions = 0 then [||]
    else begin
      let per_region = max 8 (spec.helper_instrs / spec.helper_regions) in
      let next_base = ref (loop_pc + 64) in
      let choices = { choices with c_loads = helper_mem_patterns; c_stores = helper_mem_patterns } in
      Array.init spec.helper_regions (fun _ ->
          let base = !next_base in
          next_base := base + (per_region * 4) + 32;
          build_helper rng spec choices ~base ~data_base ~slots:per_region)
    end
  in
  let helper_weights =
    Array.init (Array.length helpers) (fun i ->
        (1.0 /. ((float_of_int i +. 1.0) ** spec.helper_zipf_s), i))
  in
  {
    i_spec = spec;
    i_code_base = code_base;
    i_body = body;
    i_loop_pc = loop_pc;
    i_helpers = helpers;
    i_helper_weights = helper_weights;
    i_visits = 0;
  }
