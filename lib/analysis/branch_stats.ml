module Opcode = Mica_isa.Opcode
module Chunk = Mica_trace.Chunk

type per_branch = { mutable execs : int; mutable taken : int; mutable last : bool }

type t = {
  table : (int, per_branch) Hashtbl.t;
  mutable branches : int;
  mutable taken_total : int;
  mutable transitions_total : int;
  mutable with_history : int;  (** executions that had a previous outcome *)
}

type result = {
  conditional_branches : int;
  static_branches : int;
  taken_rate : float;
  transition_rate : float;
  biased_static_fraction : float;
}

let create () =
  { table = Hashtbl.create 512; branches = 0; taken_total = 0; transitions_total = 0; with_history = 0 }

let observe t ~pc ~taken =
  t.branches <- t.branches + 1;
  if taken then t.taken_total <- t.taken_total + 1;
  match Hashtbl.find_opt t.table pc with
  | None ->
    Hashtbl.add t.table pc
      { execs = 1; taken = (if taken then 1 else 0); last = taken }
  | Some b ->
    b.execs <- b.execs + 1;
    if taken then b.taken <- b.taken + 1;
    t.with_history <- t.with_history + 1;
    if b.last <> taken then t.transitions_total <- t.transitions_total + 1;
    b.last <- taken

let op_branch = Opcode.to_int Opcode.Branch

let sink t =
  Mica_trace.Sink.make ~name:"branch_stats" (fun c ->
      let len = c.Chunk.len in
      let ops = c.Chunk.op and pcs = c.Chunk.pc and taken = c.Chunk.taken in
      for i = 0 to len - 1 do
        if Array.unsafe_get ops i = op_branch then
          observe t ~pc:(Array.unsafe_get pcs i)
            ~taken:(Bytes.unsafe_get taken i <> '\000')
      done)

let result t =
  let static = Hashtbl.length t.table in
  let biased =
    Hashtbl.fold
      (fun _ b acc ->
        let rate = float_of_int b.taken /. float_of_int (max 1 b.execs) in
        if rate >= 0.9 || rate <= 0.1 then acc + 1 else acc)
      t.table 0
  in
  {
    conditional_branches = t.branches;
    static_branches = static;
    taken_rate = float_of_int t.taken_total /. float_of_int (max 1 t.branches);
    transition_rate = float_of_int t.transitions_total /. float_of_int (max 1 t.with_history);
    biased_static_fraction = float_of_int biased /. float_of_int (max 1 static);
  }

let to_vector r = [| r.taken_rate; r.transition_rate; r.biased_static_fraction |]
