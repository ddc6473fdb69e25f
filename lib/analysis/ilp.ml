module Reg = Mica_isa.Reg
module Chunk = Mica_trace.Chunk

(* One dependence-limited window simulator.  [completions] is a ring holding
   the completion cycle of the last [window] instructions; an instruction
   cannot issue before the one [window] slots earlier completed.  A slot
   not yet written holds 0, so before the ring first wraps the window
   never delays an issue. *)
type window_sim = {
  window : int;
  reg_ready : int array;  (* cycle each register's value is available, plus two spare cells *)
  completions : int array;  (* ring of completion cycles *)
  mutable head : int;
  mutable last_cycle : int;  (* max completion so far *)
}

type t = { sims : window_sim array; mutable count : int }

let default_windows = [| 32; 64; 128; 256 |]

(* Register slots in [reg_ready], indexed by [r + 1] so [Reg.none] has
   one.  Registers that carry a dependency map to themselves; [Reg.none]
   and [Reg.zero] read from [zero_cell], which nothing writes, and write to
   [scratch_cell], which nothing reads.  The sweep then reads and writes
   every operand without testing it, and calls nothing.  An id outside
   [-1, Reg.count) falls outside the tables and raises [Invalid_argument]. *)
let zero_cell = Reg.count
let scratch_cell = Reg.count + 1

let slot_table spare =
  Array.init (Reg.count + 1) (fun i ->
      let r = i - 1 in
      if Reg.carries_dependency r then r else spare)

let src_slot = slot_table zero_cell
let dst_slot = slot_table scratch_cell

let make_sim window =
  assert (window > 0);
  {
    window;
    reg_ready = Array.make (Reg.count + 2) 0;
    completions = Array.make window 0;
    head = 0;
    last_cycle = 0;
  }

let create ?(windows = default_windows) () =
  { sims = Array.map make_sim windows; count = 0 }

(* One simulator over [len] instructions.  Slot-table values and [head]
   stay inside [reg_ready] and [completions], hence the unchecked
   accesses there; the tables themselves are indexed with bounds checks. *)
let sweep sim (src1 : int array) (src2 : int array) (dst : int array) len =
  let ready = sim.reg_ready and completions = sim.completions and window = sim.window in
  let head = ref sim.head and last_cycle = ref sim.last_cycle in
  for i = 0 to len - 1 do
    let a = Array.unsafe_get ready src_slot.(Array.unsafe_get src1 i + 1) in
    let b = Array.unsafe_get ready src_slot.(Array.unsafe_get src2 i + 1) in
    let deps = if a > b then a else b in
    let h = !head in
    let window_free = Array.unsafe_get completions h in
    let completion = (if window_free > deps then window_free else deps) + 1 in
    Array.unsafe_set completions h completion;
    (* wrap without a division *)
    head := if h + 1 = window then 0 else h + 1;
    Array.unsafe_set ready dst_slot.(Array.unsafe_get dst i + 1) completion;
    if completion > !last_cycle then last_cycle := completion
  done;
  sim.head <- !head;
  sim.last_cycle <- !last_cycle

(* Window simulators are independent, so each one sweeps the whole chunk
   before the next starts: one simulator's state stays hot for the entire
   inner loop instead of being evicted by its siblings on every element. *)
let sink t =
  Mica_trace.Sink.make ~name:"ilp" (fun c ->
      let len = c.Chunk.len in
      t.count <- t.count + len;
      for s = 0 to Array.length t.sims - 1 do
        sweep t.sims.(s) c.Chunk.src1 c.Chunk.src2 c.Chunk.dst len
      done)

let reset t =
  Array.iter
    (fun sim ->
      Array.fill sim.reg_ready 0 (Array.length sim.reg_ready) 0;
      Array.fill sim.completions 0 sim.window 0;
      sim.head <- 0;
      sim.last_cycle <- 0)
    t.sims;
  t.count <- 0

let ipc t =
  Array.map
    (fun sim ->
      if sim.last_cycle = 0 then 0.0 else float_of_int t.count /. float_of_int sim.last_cycle)
    t.sims

let instructions t = t.count
