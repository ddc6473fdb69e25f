module Reg = Mica_isa.Reg
module Chunk = Mica_trace.Chunk

(* One dependence-limited window simulator.  [completions] is a ring holding
   the completion cycle of the last [window] instructions; an instruction
   cannot issue before the one [window] slots earlier completed. *)
type window_sim = {
  window : int;
  reg_ready : int array;  (* cycle each register's current value is available *)
  completions : int array;  (* ring of completion cycles *)
  mutable head : int;
  mutable filled : int;
  mutable last_cycle : int;  (* max completion so far *)
}

type t = { sims : window_sim array; mutable count : int }

let default_windows = [| 32; 64; 128; 256 |]

let make_sim window =
  assert (window > 0);
  {
    window;
    reg_ready = Array.make Reg.count 0;
    completions = Array.make window 0;
    head = 0;
    filled = 0;
    last_cycle = 0;
  }

let create ?(windows = default_windows) () =
  { sims = Array.map make_sim windows; count = 0 }

let step sim ~src1 ~src2 ~dst =
  (* source-readiness inline: a local helper closure here would be
     allocated on every call on the non-flambda compiler *)
  let a = if Reg.carries_dependency src1 then sim.reg_ready.(src1) else 0 in
  let b = if Reg.carries_dependency src2 then sim.reg_ready.(src2) else 0 in
  let window_free =
    if sim.filled < sim.window then 0 else sim.completions.(sim.head)
  in
  let issue =
    let deps = if a > b then a else b in
    if window_free > deps then window_free else deps
  in
  let completion = issue + 1 in
  let head = sim.head in
  sim.completions.(head) <- completion;
  (* wrap without a division *)
  sim.head <- (if head + 1 = sim.window then 0 else head + 1);
  if sim.filled < sim.window then sim.filled <- sim.filled + 1;
  if Reg.carries_dependency dst then sim.reg_ready.(dst) <- completion;
  if completion > sim.last_cycle then sim.last_cycle <- completion

(* Window simulators are independent, so each one sweeps the whole chunk
   before the next starts: one simulator's state stays hot for the entire
   inner loop instead of being evicted by its siblings on every element. *)
let sink t =
  Mica_trace.Sink.make ~name:"ilp" (fun c ->
      let len = c.Chunk.len in
      let src1 = c.Chunk.src1 and src2 = c.Chunk.src2 and dst = c.Chunk.dst in
      t.count <- t.count + len;
      Array.iter
        (fun sim ->
          for i = 0 to len - 1 do
            step sim ~src1:(Array.unsafe_get src1 i) ~src2:(Array.unsafe_get src2 i)
              ~dst:(Array.unsafe_get dst i)
          done)
        t.sims)

let reset t =
  Array.iter
    (fun sim ->
      Array.fill sim.reg_ready 0 (Array.length sim.reg_ready) 0;
      Array.fill sim.completions 0 sim.window 0;
      sim.head <- 0;
      sim.filled <- 0;
      sim.last_cycle <- 0)
    t.sims;
  t.count <- 0

let ipc t =
  Array.map
    (fun sim ->
      if sim.last_cycle = 0 then 0.0 else float_of_int t.count /. float_of_int sim.last_cycle)
    t.sims

let instructions t = t.count
