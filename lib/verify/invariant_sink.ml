module Instr = Mica_isa.Instr
module Opcode = Mica_isa.Opcode
module Reg = Mica_isa.Reg

type violation = { index : int; rule : string; detail : string }

let pp_violation fmt v =
  Format.fprintf fmt "instruction %d: [%s] %s" v.index v.rule v.detail

type t = {
  strict_defined_use : bool;
  max_violations : int;
  mutable count : int;
  mutable prev : Instr.t option;
  written : bool array;  (* register has a producer earlier in the stream *)
  live_in : bool array;  (* register was read before any write *)
  branch_targets : (int, int) Hashtbl.t;  (* static conditional branch -> target *)
  mutable recorded : violation list;  (* reverse stream order *)
  mutable n_recorded : int;
  mutable total : int;
}

let create ?(strict_defined_use = false) ?(max_violations = 64) () =
  {
    strict_defined_use;
    max_violations;
    count = 0;
    prev = None;
    written = Array.make Reg.count false;
    live_in = Array.make Reg.count false;
    branch_targets = Hashtbl.create 256;
    recorded = [];
    n_recorded = 0;
    total = 0;
  }

let flag t ~index ~rule detail =
  t.total <- t.total + 1;
  if t.n_recorded < t.max_violations then begin
    t.recorded <- { index; rule; detail } :: t.recorded;
    t.n_recorded <- t.n_recorded + 1
  end

let valid_reg r = Reg.is_none r || (r >= 0 && r < Reg.count)

let check_read t ~index r =
  if not (Reg.is_none r) then
    if not (valid_reg r) then
      flag t ~index ~rule:"reg-id" (Printf.sprintf "source register id %d out of range" r)
    else if Reg.carries_dependency r && not t.written.(r) then
      if t.strict_defined_use then
        flag t ~index ~rule:"reg-defined"
          (Printf.sprintf "%s read before any write" (Reg.to_string r))
      else t.live_in.(r) <- true

let on_instr t (ins : Instr.t) =
  let index = t.count in
  t.count <- t.count + 1;
  if ins.pc <= 0 then
    flag t ~index ~rule:"pc-positive" (Printf.sprintf "non-positive pc 0x%x" ins.pc);
  (match t.prev with
  | Some prev when Instr.next_pc prev <> ins.pc ->
    flag t ~index ~rule:"pc-chain"
      (Printf.sprintf "pc 0x%x does not follow 0x%x (expected 0x%x)" ins.pc prev.Instr.pc
         (Instr.next_pc prev))
  | Some _ | None -> ());
  t.prev <- Some ins;
  check_read t ~index ins.src1;
  check_read t ~index ins.src2;
  if not (valid_reg ins.dst) then
    flag t ~index ~rule:"reg-id"
      (Printf.sprintf "destination register id %d out of range" ins.dst)
  else if Reg.carries_dependency ins.dst then t.written.(ins.dst) <- true;
  if Opcode.is_mem ins.op then begin
    if ins.addr <= 0 then
      flag t ~index ~rule:"mem-addr"
        (Printf.sprintf "%s without a positive effective address" (Opcode.to_string ins.op))
  end
  else if ins.addr <> 0 then
    flag t ~index ~rule:"mem-addr"
      (Printf.sprintf "%s carries effective address 0x%x" (Opcode.to_string ins.op) ins.addr);
  if Opcode.is_control ins.op then begin
    if ins.taken && ins.target <= 0 then
      flag t ~index ~rule:"ctrl-target"
        (Printf.sprintf "taken %s without a positive target" (Opcode.to_string ins.op))
  end
  else begin
    if ins.taken then
      flag t ~index ~rule:"ctrl-target"
        (Printf.sprintf "non-control %s marked taken" (Opcode.to_string ins.op));
    if ins.target <> 0 then
      flag t ~index ~rule:"ctrl-target"
        (Printf.sprintf "non-control %s carries target 0x%x" (Opcode.to_string ins.op)
           ins.target)
  end;
  (* A static conditional branch has one target in this ISA model; calls and
     returns are excluded (their targets legitimately vary by callee). *)
  if ins.op = Opcode.Branch && ins.target > 0 then
    match Hashtbl.find_opt t.branch_targets ins.pc with
    | None -> Hashtbl.add t.branch_targets ins.pc ins.target
    | Some target when target <> ins.target ->
      flag t ~index ~rule:"branch-target"
        (Printf.sprintf "branch at 0x%x targets 0x%x, previously 0x%x" ins.pc ins.target
           target)
    | Some _ -> ()

let sink t = Mica_trace.Sink.of_instr_sink ~name:"invariants" (fun ins -> on_instr t ins)

let instructions t = t.count

let live_in_registers t = Array.fold_left (fun n b -> if b then n + 1 else n) 0 t.live_in

let violations t = List.rev t.recorded

let finish ?expected_icount t =
  let tail =
    match expected_icount with
    | Some n when n <> t.count ->
      [
        {
          index = t.count;
          rule = "icount";
          detail = Printf.sprintf "stream delivered %d instructions, expected %d" t.count n;
        };
      ]
    | Some _ | None -> []
  in
  violations t @ tail

let ok ?expected_icount t = t.total = 0 && finish ?expected_icount t = []
