module Opcode = Mica_isa.Opcode
module Reg = Mica_isa.Reg
module Chunk = Mica_trace.Chunk

type cache_geometry = { size_bytes : int; line_bytes : int; assoc : int }

type core_kind =
  | In_order of { issue_width : int }
  | Out_of_order of { width : int; window : int }

type predictor_kind =
  | Bimodal of { entries : int }
  | Gshare of { entries : int; history_bits : int }
  | Local_two_level of { entries : int; history_bits : int }
  | Tournament of { entries : int; history_bits : int }

type op_timing = { op_latency : int; op_recip : int }

(* The historical timing assumptions, now written as a uops.info-style
   table: an in-order core stalls [recip - 1] cycles behind a long
   operation (a non-pipelined divider stalls fully, the multiplier roughly
   half), while the out-of-order core sees the full result latency through
   the dependence graph. *)
let default_op_timing op =
  let lat = Opcode.latency op in
  let recip =
    match (op : Opcode.t) with
    | Fp_div -> lat
    | Int_mul -> ((lat - 1) / 2) + 1
    | Load | Store | Branch | Jump | Call | Return | Int_alu | Fp_add | Fp_mul | Nop -> 1
  in
  { op_latency = lat; op_recip = recip }

let default_ops = Array.init Opcode.count (fun i -> default_op_timing (Opcode.of_int i))

type config = {
  name : string;
  core : core_kind;
  l1i : cache_geometry;
  l1d : cache_geometry;
  l2 : cache_geometry;
  dtlb_entries : int;
  page_bytes : int;
  predictor : predictor_kind;
  prefetch_next_line : bool;
  l1_latency : int;
  l2_latency : int;
  mem_latency : int;
  mispredict_penalty : int;
  dtlb_penalty : int;
  ops : op_timing array;
}

let kb n = n * 1024

let ev56 =
  {
    name = "ev56";
    core = In_order { issue_width = 2 };
    l1i = { size_bytes = kb 8; line_bytes = 32; assoc = 1 };
    l1d = { size_bytes = kb 8; line_bytes = 32; assoc = 1 };
    l2 = { size_bytes = kb 96; line_bytes = 64; assoc = 3 };
    dtlb_entries = 64;
    page_bytes = 8192;
    predictor = Bimodal { entries = 2048 };
    prefetch_next_line = false;
    l1_latency = 1;
    l2_latency = 8;
    mem_latency = 50;
    mispredict_penalty = 5;
    dtlb_penalty = 30;
    ops = default_ops;
  }

let ev67 =
  {
    name = "ev67";
    core = Out_of_order { width = 4; window = 64 };
    l1i = { size_bytes = kb 64; line_bytes = 64; assoc = 2 };
    l1d = { size_bytes = kb 64; line_bytes = 64; assoc = 2 };
    l2 = { size_bytes = kb 2048; line_bytes = 64; assoc = 4 };
    dtlb_entries = 128;
    page_bytes = 8192;
    predictor = Tournament { entries = 1024; history_bits = 10 };
    prefetch_next_line = false;
    l1_latency = 3;
    l2_latency = 13;
    mem_latency = 100;
    mispredict_penalty = 7;
    dtlb_penalty = 20;
    ops = default_ops;
  }

let embedded =
  {
    name = "embedded";
    core = In_order { issue_width = 1 };
    l1i = { size_bytes = kb 16; line_bytes = 32; assoc = 32 };
    l1d = { size_bytes = kb 16; line_bytes = 32; assoc = 32 };
    l2 = { size_bytes = kb 32; line_bytes = 32; assoc = 1 };  (* in effect, a tiny L2 *)
    dtlb_entries = 32;
    page_bytes = 4096;
    predictor = Bimodal { entries = 256 };
    prefetch_next_line = false;
    l1_latency = 1;
    l2_latency = 4;
    mem_latency = 80;
    mispredict_penalty = 4;
    dtlb_penalty = 40;
    ops = default_ops;
  }

let wide =
  {
    name = "wide";
    core = Out_of_order { width = 8; window = 256 };
    l1i = { size_bytes = kb 64; line_bytes = 64; assoc = 4 };
    l1d = { size_bytes = kb 64; line_bytes = 64; assoc = 4 };
    l2 = { size_bytes = kb 4096; line_bytes = 64; assoc = 8 };
    dtlb_entries = 256;
    page_bytes = 8192;
    predictor = Tournament { entries = 4096; history_bits = 12 };
    prefetch_next_line = true;
    l1_latency = 4;
    l2_latency = 15;
    mem_latency = 150;
    mispredict_penalty = 12;
    dtlb_penalty = 15;
    ops = default_ops;
  }

let presets = [ ev56; ev67; embedded; wide ]

type result = {
  ipc : float;
  branch_mispredict_rate : float;
  l1d_miss_rate : float;
  l1i_miss_rate : float;
  l2_miss_rate : float;
  dtlb_miss_rate : float;
}

let metric_names = [| "ipc"; "br_miss"; "l1d_miss"; "l1i_miss"; "l2_miss"; "dtlb_miss" |]

type t = {
  cfg : config;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  dtlb : Tlb.t;
  pred : Branch_pred.t;
  (* per-opcode timing, dense by opcode code *)
  stall_code : int array;
  lat_code : int array;
  (* in-order accounting *)
  mutable instrs : int;
  mutable stall_cycles : int;
  mutable cond_branches : int;
  mutable mispredicts : int;
  (* out-of-order dataflow state *)
  reg_ready : int array;
  completions : int array;
  mutable head : int;
  mutable filled : int;
  mutable fetch_cycle : int;  (* fetch position: cycle, and slot within it (< width) *)
  mutable fetch_slot : int;
  mutable last_cycle : int;
}

let make_cache name (g : cache_geometry) =
  Cache.create ~name ~size_bytes:g.size_bytes ~line_bytes:g.line_bytes ~assoc:g.assoc

let make_predictor = function
  | Bimodal { entries } -> Branch_pred.bimodal ~entries
  | Gshare { entries; history_bits } -> Branch_pred.gshare ~entries ~history_bits
  | Local_two_level { entries; history_bits } -> Branch_pred.local ~entries ~history_bits
  | Tournament { entries; history_bits } -> Branch_pred.tournament ~entries ~history_bits

let create cfg =
  let window = match cfg.core with Out_of_order { window; _ } -> window | In_order _ -> 1 in
  if Array.length cfg.ops <> Opcode.count then
    invalid_arg "Machine.create: ops table must have one entry per opcode class";
  Array.iter
    (fun o ->
      if o.op_latency < 1 || o.op_recip < 1 then
        invalid_arg "Machine.create: op latency and reciprocal throughput must be positive")
    cfg.ops;
  {
    cfg;
    l1i = make_cache (cfg.name ^ ".l1i") cfg.l1i;
    l1d = make_cache (cfg.name ^ ".l1d") cfg.l1d;
    l2 = make_cache (cfg.name ^ ".l2") cfg.l2;
    dtlb = Tlb.create ~entries:cfg.dtlb_entries ~page_bytes:cfg.page_bytes;
    pred = make_predictor cfg.predictor;
    stall_code = Array.map (fun o -> o.op_recip - 1) cfg.ops;
    lat_code = Array.map (fun o -> o.op_latency) cfg.ops;
    instrs = 0;
    stall_cycles = 0;
    cond_branches = 0;
    mispredicts = 0;
    reg_ready = Array.make Reg.count 0;
    completions = Array.make window 0;
    head = 0;
    filled = 0;
    fetch_cycle = 0;
    fetch_slot = 0;
    last_cycle = 0;
  }

(* memory-hierarchy latency beyond the L1 hit *)
let miss_latency t ~hit_l2 = if hit_l2 then t.cfg.l2_latency else t.cfg.l2_latency + t.cfg.mem_latency

let dcache_extra t addr =
  if Cache.access t.l1d addr then 0
  else begin
    let extra = miss_latency t ~hit_l2:(Cache.access t.l2 addr) in
    (* a sequential prefetcher installs the next line alongside the miss;
       the prefetch itself is off the critical path *)
    if t.cfg.prefetch_next_line then begin
      let next = addr + Cache.line_bytes t.l1d in
      Cache.install t.l1d next;
      Cache.install t.l2 next
    end;
    extra
  end

let icache_extra t pc =
  if Cache.access t.l1i pc then 0 else miss_latency t ~hit_l2:(Cache.access t.l2 pc)

let is_mem_code = Array.init Opcode.count (fun i -> Opcode.is_mem (Opcode.of_int i))
let op_load = Opcode.to_int Opcode.Load
let op_store = Opcode.to_int Opcode.Store
let op_branch = Opcode.to_int Opcode.Branch

let step_in_order t ~pc ~code ~addr ~taken =
  let stall = ref (icache_extra t pc + Array.unsafe_get t.stall_code code) in
  if Array.unsafe_get is_mem_code code then begin
    if not (Tlb.access t.dtlb addr) then stall := !stall + t.cfg.dtlb_penalty;
    stall := !stall + dcache_extra t addr
  end;
  if code = op_branch then begin
    t.cond_branches <- t.cond_branches + 1;
    let pred = Branch_pred.predict_update t.pred ~pc ~taken in
    if pred <> taken then begin
      t.mispredicts <- t.mispredicts + 1;
      stall := !stall + t.cfg.mispredict_penalty
    end
  end;
  t.stall_cycles <- t.stall_cycles + !stall

(* Fetch resumes at [cycle] unless it is already there or later.  Since
   [fetch_slot < width], [cycle > fetch_cycle] is exactly "cycle * width
   exceeds the fetch position in instruction slots". *)
let redirect_fetch t cycle =
  if cycle > t.fetch_cycle then begin
    t.fetch_cycle <- cycle;
    t.fetch_slot <- 0
  end

(* Per instruction: int comparisons only (the polymorphic [max] is an
   out-of-line generic compare), no closure, and a ring wrap without a
   division.  The register tests spell out [Reg.carries_dependency]: a
   cross-module call is indirect under dune's default [-opaque] build. *)
let step_out_of_order t ~width ~window ~pc ~code ~src1 ~src2 ~dst ~addr ~taken =
  let fetch_cycle = t.fetch_cycle in
  let slot = t.fetch_slot + 1 in
  if slot = width then begin
    t.fetch_cycle <- fetch_cycle + 1;
    t.fetch_slot <- 0
  end
  else t.fetch_slot <- slot;
  let ic = icache_extra t pc in
  if ic > 0 then redirect_fetch t (fetch_cycle + ic);
  let a = if src1 >= 0 && src1 <> Reg.zero then t.reg_ready.(src1) else 0 in
  let b = if src2 >= 0 && src2 <> Reg.zero then t.reg_ready.(src2) else 0 in
  let head = t.head in
  let window_free = if t.filled < window then 0 else Array.unsafe_get t.completions head in
  let issue = if a > fetch_cycle then a else fetch_cycle in
  let issue = if b > issue then b else issue in
  let issue = if window_free > issue then window_free else issue in
  let latency =
    if code = op_load then begin
      let tlb_extra = if Tlb.access t.dtlb addr then 0 else t.cfg.dtlb_penalty in
      t.cfg.l1_latency + dcache_extra t addr + tlb_extra
    end
    else if code = op_store then begin
      ignore (Tlb.access t.dtlb addr : bool);
      ignore (dcache_extra t addr : int);
      1
    end
    else Array.unsafe_get t.lat_code code
  in
  let completion = issue + latency in
  Array.unsafe_set t.completions head completion;
  t.head <- (if head + 1 = window then 0 else head + 1);
  if t.filled < window then t.filled <- t.filled + 1;
  if dst >= 0 && dst <> Reg.zero then t.reg_ready.(dst) <- completion;
  if completion > t.last_cycle then t.last_cycle <- completion;
  if code = op_branch then begin
    t.cond_branches <- t.cond_branches + 1;
    let pred = Branch_pred.predict_update t.pred ~pc ~taken in
    if pred <> taken then begin
      t.mispredicts <- t.mispredicts + 1;
      redirect_fetch t (completion + t.cfg.mispredict_penalty)
    end
  end

let sink t =
  Mica_trace.Sink.make ~name:("machine:" ^ t.cfg.name) (fun c ->
      let len = c.Chunk.len in
      let pcs = c.Chunk.pc and ops = c.Chunk.op and src1 = c.Chunk.src1
      and src2 = c.Chunk.src2 and dst = c.Chunk.dst and addrs = c.Chunk.addr
      and taken = c.Chunk.taken in
      t.instrs <- t.instrs + len;
      match t.cfg.core with
      | In_order _ ->
        for i = 0 to len - 1 do
          step_in_order t ~pc:(Array.unsafe_get pcs i) ~code:(Array.unsafe_get ops i)
            ~addr:(Array.unsafe_get addrs i)
            ~taken:(Bytes.unsafe_get taken i <> '\000')
        done
      | Out_of_order { width; window } ->
        for i = 0 to len - 1 do
          step_out_of_order t ~width ~window ~pc:(Array.unsafe_get pcs i)
            ~code:(Array.unsafe_get ops i) ~src1:(Array.unsafe_get src1 i)
            ~src2:(Array.unsafe_get src2 i) ~dst:(Array.unsafe_get dst i)
            ~addr:(Array.unsafe_get addrs i)
            ~taken:(Bytes.unsafe_get taken i <> '\000')
        done)

let result t =
  Events.record ~model:("machine." ^ t.cfg.name) ~instrs:t.instrs ~l1i:t.l1i ~l1d:t.l1d ~l2:t.l2
    ~dtlb:t.dtlb t.pred;
  let ipc =
    match t.cfg.core with
    | In_order { issue_width } ->
      let base = (t.instrs + issue_width - 1) / issue_width in
      let cycles = max 1 (base + t.stall_cycles) in
      float_of_int t.instrs /. float_of_int cycles
    | Out_of_order _ ->
      let cycles = max 1 t.last_cycle in
      float_of_int t.instrs /. float_of_int cycles
  in
  {
    ipc;
    branch_mispredict_rate =
      (if t.cond_branches = 0 then 0.0
       else float_of_int t.mispredicts /. float_of_int t.cond_branches);
    l1d_miss_rate = Cache.miss_rate t.l1d;
    l1i_miss_rate = Cache.miss_rate t.l1i;
    l2_miss_rate = Cache.miss_rate t.l2;
    dtlb_miss_rate = Tlb.miss_rate t.dtlb;
  }

let to_vector r =
  [|
    r.ipc; r.branch_mispredict_rate; r.l1d_miss_rate; r.l1i_miss_rate; r.l2_miss_rate;
    r.dtlb_miss_rate;
  |]

let measure cfg program ~icount =
  let t = create cfg in
  let (_ : int) = Mica_trace.Generator.run program ~icount ~sink:(sink t) in
  result t

let measure_all cfgs program ~icount =
  let ts = List.map create cfgs in
  let sink = Mica_trace.Sink.fanout (List.map sink ts) in
  let (_ : int) = Mica_trace.Generator.run program ~icount ~sink in
  List.map result ts
