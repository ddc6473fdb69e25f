module Reg = Mica_isa.Reg
module Chunk = Mica_trace.Chunk

let dep_cutoffs = [| 1; 2; 4; 8; 16; 32; 64 |]

type t = {
  mutable instrs : int;
  mutable operands : int;  (* total register source operands seen *)
  last_write : int array;  (* dynamic index of last write per register, -1 if never *)
  uses : int array;  (* reads of the current instance per register *)
  mutable instances : int;  (* completed register instances *)
  mutable total_uses : int;  (* reads accumulated over completed instances *)
  dep_counts : int array;
      (* histogram over cutoffs; last bucket = "> 64"; sums to the dependent reads *)
}

type result = { avg_input_operands : float; avg_degree_of_use : float; dep_cdf : float array }

let create () =
  {
    instrs = 0;
    operands = 0;
    last_write = Array.make Reg.count (-1);
    uses = Array.make Reg.count 0;
    instances = 0;
    total_uses = 0;
    dep_counts = Array.make (Array.length dep_cutoffs + 1) 0;
  }

(* Bucket of each dependence distance 1..64; longer distances go in the
   last bucket, past the table.  Index 0 is unused: an instruction's reads
   come before its write, so a distance is at least 1. *)
let max_cutoff = dep_cutoffs.(Array.length dep_cutoffs - 1)
let last_bucket = Array.length dep_cutoffs

let dep_bucket =
  Array.init (max_cutoff + 1) (fun d ->
      let b = ref 0 in
      while d > dep_cutoffs.(!b) do
        incr b
      done;
      !b)

(* Register tests are written inline: under [-opaque] each [Reg]
   predicate would be an indirect call, three per operand.  A register
   below [Reg.none] is rejected; one at or above [Reg.count] fails the
   bounds check on [uses] or [last_write]. *)
let zero = Reg.zero

let bad_register r : int = invalid_arg (Printf.sprintf "Regtraffic: register %d out of range" r)

(* Source operand [r] of the instruction at dynamic index [now]; returns 1
   if it is present.  Reading a register that carries a dependency adds a
   use to its live instance and files the distance back to its producer,
   if it has one. *)
let[@inline] read t (uses : int array) (last_write : int array) now r =
  if r >= 0 then begin
    if r <> zero then begin
      uses.(r) <- uses.(r) + 1;
      let lw = last_write.(r) in
      if lw >= 0 then begin
        let d = now - lw in
        let b = if d > max_cutoff then last_bucket else Array.unsafe_get dep_bucket d in
        Array.unsafe_set t.dep_counts b (Array.unsafe_get t.dep_counts b + 1)
      end
    end;
    1
  end
  else if r = Reg.none then 0
  else bad_register r

(* The sweep keeps its counters in locals and calls nothing: [read] is
   inlined and the destination is handled in place. *)
let sink t =
  Mica_trace.Sink.make ~name:"regtraffic" (fun c ->
      let src1 = c.Chunk.src1 and src2 = c.Chunk.src2 and dst = c.Chunk.dst in
      let uses = t.uses and last_write = t.last_write in
      let now = ref t.instrs and operands = ref t.operands in
      let instances = ref t.instances and total_uses = ref t.total_uses in
      for i = 0 to c.Chunk.len - 1 do
        let n = !now + 1 in
        now := n;
        let a = read t uses last_write n (Array.unsafe_get src1 i) in
        let b = read t uses last_write n (Array.unsafe_get src2 i) in
        operands := !operands + a + b;
        (* the write comes after both reads: an instruction that reads its
           own destination sees the previous value *)
        let r = Array.unsafe_get dst i in
        if r >= 0 && r <> zero then begin
          (* finalize the instance being overwritten *)
          if last_write.(r) >= 0 then begin
            instances := !instances + 1;
            total_uses := !total_uses + uses.(r)
          end;
          uses.(r) <- 0;
          last_write.(r) <- n
        end
        else if r < Reg.none then ignore (bad_register r : int)
      done;
      t.instrs <- !now;
      t.operands <- !operands;
      t.instances <- !instances;
      t.total_uses <- !total_uses)

let reset t =
  t.instrs <- 0;
  t.operands <- 0;
  Array.fill t.last_write 0 (Array.length t.last_write) (-1);
  Array.fill t.uses 0 (Array.length t.uses) 0;
  t.instances <- 0;
  t.total_uses <- 0;
  Array.fill t.dep_counts 0 (Array.length t.dep_counts) 0

let result t =
  (* flush live instances *)
  let instances = ref t.instances and total_uses = ref t.total_uses in
  Array.iteri
    (fun r lw ->
      if lw >= 0 then begin
        incr instances;
        total_uses := !total_uses + t.uses.(r)
      end)
    t.last_write;
  let cdf = Array.make (Array.length dep_cutoffs) 0.0 in
  let denom = float_of_int (max 1 (Array.fold_left ( + ) 0 t.dep_counts)) in
  let acc = ref 0 in
  Array.iteri
    (fun i _ ->
      acc := !acc + t.dep_counts.(i);
      cdf.(i) <- float_of_int !acc /. denom)
    cdf;
  {
    avg_input_operands = float_of_int t.operands /. float_of_int (max 1 t.instrs);
    avg_degree_of_use = float_of_int !total_uses /. float_of_int (max 1 !instances);
    dep_cdf = cdf;
  }

let to_vector r = Array.append [| r.avg_input_operands; r.avg_degree_of_use |] r.dep_cdf
