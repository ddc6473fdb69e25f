type t = {
  pc : int;
  op : Opcode.t;
  src1 : int;
  src2 : int;
  dst : int;
  addr : int;
  taken : bool;
  target : int;
}

let make ~pc ~op ?(src1 = Reg.none) ?(src2 = Reg.none) ?(dst = Reg.none) ?(addr = 0)
    ?(taken = false) ?(target = 0) () =
  { pc; op; src1; src2; dst; addr; taken; target }

let next_pc t = if Opcode.is_control t.op && t.taken then t.target else t.pc + 4

let source_count t =
  (if Reg.is_none t.src1 then 0 else 1) + if Reg.is_none t.src2 then 0 else 1

let to_string t =
  Printf.sprintf "%08x %-7s %s,%s -> %s%s%s" t.pc
    (Opcode.to_string t.op)
    (Reg.to_string t.src1) (Reg.to_string t.src2) (Reg.to_string t.dst)
    (if Opcode.is_mem t.op then Printf.sprintf " [0x%x]" t.addr else "")
    (if Opcode.is_control t.op then
       Printf.sprintf " %s->0x%x" (if t.taken then "T" else "N") t.target
     else "")
