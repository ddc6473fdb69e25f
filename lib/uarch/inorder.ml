module Opcode = Mica_isa.Opcode
module Instr = Mica_isa.Instr
module Chunk = Mica_trace.Chunk

type config = {
  issue_width : int;
  l2_latency : int;
  mem_latency : int;
  mispredict_penalty : int;
  dtlb_penalty : int;
}

let default_config =
  { issue_width = 2; l2_latency = 8; mem_latency = 50; mispredict_penalty = 5; dtlb_penalty = 30 }

type t = {
  cfg : config;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  dtlb : Tlb.t;
  pred : Branch_pred.t;
  mutable instrs : int;
  mutable stall_cycles : int;
  mutable cond_branches : int;
  mutable mispredicts : int;
}

let create ?(config = default_config) () =
  {
    cfg = config;
    l1i = Cache.create ~name:"L1I" ~size_bytes:(8 * 1024) ~line_bytes:32 ~assoc:1;
    l1d = Cache.create ~name:"L1D" ~size_bytes:(8 * 1024) ~line_bytes:32 ~assoc:1;
    l2 = Cache.create ~name:"L2" ~size_bytes:(96 * 1024) ~line_bytes:64 ~assoc:3;
    dtlb = Tlb.create ~entries:64 ~page_bytes:8192;
    pred = Branch_pred.bimodal ~entries:2048;
    instrs = 0;
    stall_cycles = 0;
    cond_branches = 0;
    mispredicts = 0;
  }

let memory_stall t addr =
  if not (Cache.access t.l1d addr) then
    if Cache.access t.l2 addr then t.cfg.l2_latency else t.cfg.l2_latency + t.cfg.mem_latency
  else 0

let fetch_stall t pc =
  if not (Cache.access t.l1i pc) then
    if Cache.access t.l2 pc then t.cfg.l2_latency else t.cfg.l2_latency + t.cfg.mem_latency
  else 0

(* Long-latency arithmetic: a non-pipelined divider stalls fully, the
   multiplier roughly half (partially pipelined). *)
let arith_stall op =
  match (op : Opcode.t) with
  | Fp_div -> Opcode.latency Fp_div - 1
  | Int_mul -> (Opcode.latency Int_mul - 1) / 2
  | Load | Store | Branch | Jump | Call | Return | Int_alu | Fp_add | Fp_mul | Nop -> 0

let arith_stall_code = Array.init Opcode.count (fun i -> arith_stall (Opcode.of_int i))
let is_mem_code = Array.init Opcode.count (fun i -> Opcode.is_mem (Opcode.of_int i))
let op_branch = Opcode.to_int Opcode.Branch

let step t ~pc ~code ~addr ~taken =
  t.instrs <- t.instrs + 1;
  let stall = ref (fetch_stall t pc + Array.unsafe_get arith_stall_code code) in
  if Array.unsafe_get is_mem_code code then begin
    if not (Tlb.access t.dtlb addr) then stall := !stall + t.cfg.dtlb_penalty;
    stall := !stall + memory_stall t addr
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

let step_instr t (ins : Instr.t) =
  step t ~pc:ins.pc ~code:(Opcode.to_int ins.op) ~addr:ins.addr ~taken:ins.taken

let sink t =
  Mica_trace.Sink.make ~name:"inorder" (fun c ->
      let len = c.Chunk.len in
      let pcs = c.Chunk.pc and ops = c.Chunk.op and addrs = c.Chunk.addr
      and taken = c.Chunk.taken in
      for i = 0 to len - 1 do
        step t ~pc:(Array.unsafe_get pcs i) ~code:(Array.unsafe_get ops i)
          ~addr:(Array.unsafe_get addrs i)
          ~taken:(Bytes.unsafe_get taken i <> '\000')
      done)

let record_events t ~model =
  Events.record ~model ~instrs:t.instrs ~l1i:t.l1i ~l1d:t.l1d ~l2:t.l2 ~dtlb:t.dtlb t.pred

type result = {
  instructions : int;
  cycles : int;
  ipc : float;
  branch_mispredict_rate : float;
  l1d_miss_rate : float;
  l1i_miss_rate : float;
  l2_miss_rate : float;
  dtlb_miss_rate : float;
}

let result t =
  let base = (t.instrs + t.cfg.issue_width - 1) / t.cfg.issue_width in
  let cycles = max 1 (base + t.stall_cycles) in
  {
    instructions = t.instrs;
    cycles;
    ipc = float_of_int t.instrs /. float_of_int cycles;
    branch_mispredict_rate =
      (if t.cond_branches = 0 then 0.0
       else float_of_int t.mispredicts /. float_of_int t.cond_branches);
    l1d_miss_rate = Cache.miss_rate t.l1d;
    l1i_miss_rate = Cache.miss_rate t.l1i;
    l2_miss_rate = Cache.miss_rate t.l2;
    dtlb_miss_rate = Tlb.miss_rate t.dtlb;
  }
