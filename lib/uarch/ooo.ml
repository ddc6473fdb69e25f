module Opcode = Mica_isa.Opcode
module Reg = Mica_isa.Reg
module Chunk = Mica_trace.Chunk

type config = {
  width : int;
  window : int;
  mispredict_penalty : int;
  l1_latency : int;
  l2_latency : int;
  mem_latency : int;
}

let default_config =
  { width = 4; window = 64; mispredict_penalty = 7; l1_latency = 3; l2_latency = 13; mem_latency = 100 }

type t = {
  cfg : config;
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t;
  pred : Branch_pred.t;
  reg_ready : int array;
  completions : int array;  (* window ring *)
  mutable head : int;
  mutable filled : int;
  mutable fetch_cycle : int;  (* fetch position: cycle, and slot within it (< width) *)
  mutable fetch_slot : int;
  mutable last_cycle : int;
  mutable instrs : int;
  mutable cond_branches : int;
  mutable mispredicts : int;
}

let create ?(config = default_config) () =
  {
    cfg = config;
    l1d = Cache.create ~name:"L1D" ~size_bytes:(64 * 1024) ~line_bytes:64 ~assoc:2;
    l1i = Cache.create ~name:"L1I" ~size_bytes:(64 * 1024) ~line_bytes:64 ~assoc:2;
    l2 = Cache.create ~name:"L2" ~size_bytes:(2 * 1024 * 1024) ~line_bytes:64 ~assoc:4;
    pred = Branch_pred.tournament ~entries:1024 ~history_bits:10;
    reg_ready = Array.make Reg.count 0;
    completions = Array.make config.window 0;
    head = 0;
    filled = 0;
    fetch_cycle = 0;
    fetch_slot = 0;
    last_cycle = 0;
    instrs = 0;
    cond_branches = 0;
    mispredicts = 0;
  }

let load_latency t addr =
  if Cache.access t.l1d addr then t.cfg.l1_latency
  else if Cache.access t.l2 addr then t.cfg.l2_latency
  else t.cfg.mem_latency

(* Fetch resumes at [cycle] unless it is already there or later.  Since
   [fetch_slot < width], [cycle > fetch_cycle] is exactly "cycle * width
   exceeds the fetch position in instruction slots". *)
let redirect_fetch t cycle =
  if cycle > t.fetch_cycle then begin
    t.fetch_cycle <- cycle;
    t.fetch_slot <- 0
  end

let latency_code = Array.init Opcode.count (fun i -> Opcode.latency (Opcode.of_int i))
let op_load = Opcode.to_int Opcode.Load
let op_store = Opcode.to_int Opcode.Store
let op_branch = Opcode.to_int Opcode.Branch

(* Per instruction: int comparisons only (the polymorphic [max] is an
   out-of-line generic compare), no closure, and a ring wrap without a
   division.  The register tests spell out [Reg.carries_dependency]: a
   cross-module call is indirect under dune's default [-opaque] build. *)
let step t ~pc ~code ~src1 ~src2 ~dst ~addr ~taken =
  t.instrs <- t.instrs + 1;
  let fetch_cycle = t.fetch_cycle in
  let slot = t.fetch_slot + 1 in
  if slot = t.cfg.width then begin
    t.fetch_cycle <- fetch_cycle + 1;
    t.fetch_slot <- 0
  end
  else t.fetch_slot <- slot;
  (* instruction-fetch miss delays the front end *)
  if not (Cache.access t.l1i pc) then begin
    let lat = if Cache.access t.l2 pc then t.cfg.l2_latency else t.cfg.mem_latency in
    redirect_fetch t (fetch_cycle + lat)
  end;
  let a = if src1 >= 0 && src1 <> Reg.zero then t.reg_ready.(src1) else 0 in
  let b = if src2 >= 0 && src2 <> Reg.zero then t.reg_ready.(src2) else 0 in
  let window = t.cfg.window in
  let head = t.head in
  let window_free = if t.filled < window then 0 else Array.unsafe_get t.completions head in
  let issue = if a > fetch_cycle then a else fetch_cycle in
  let issue = if b > issue then b else issue in
  let issue = if window_free > issue then window_free else issue in
  let latency =
    if code = op_load then load_latency t addr
    else if code = op_store then begin
      (* stores retire off the critical path but still occupy the cache *)
      ignore (load_latency t addr : int);
      1
    end
    else Array.unsafe_get latency_code code
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
  Mica_trace.Sink.make ~name:"ooo" (fun c ->
      let len = c.Chunk.len in
      let pcs = c.Chunk.pc and ops = c.Chunk.op and src1 = c.Chunk.src1
      and src2 = c.Chunk.src2 and dst = c.Chunk.dst and addrs = c.Chunk.addr
      and taken = c.Chunk.taken in
      for i = 0 to len - 1 do
        step t ~pc:(Array.unsafe_get pcs i) ~code:(Array.unsafe_get ops i)
          ~src1:(Array.unsafe_get src1 i) ~src2:(Array.unsafe_get src2 i)
          ~dst:(Array.unsafe_get dst i) ~addr:(Array.unsafe_get addrs i)
          ~taken:(Bytes.unsafe_get taken i <> '\000')
      done)

(* no DTLB in this model *)
let record_events t ~model =
  Events.record ~model ~instrs:t.instrs ~l1i:t.l1i ~l1d:t.l1d ~l2:t.l2 t.pred

type result = { instructions : int; cycles : int; ipc : float; branch_mispredict_rate : float }

let result t =
  let cycles = max 1 t.last_cycle in
  {
    instructions = t.instrs;
    cycles;
    ipc = float_of_int t.instrs /. float_of_int cycles;
    branch_mispredict_rate =
      (if t.cond_branches = 0 then 0.0
       else float_of_int t.mispredicts /. float_of_int t.cond_branches);
  }
