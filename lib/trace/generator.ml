module Rng = Mica_util.Rng
module Opcode = Mica_isa.Opcode
module Reg = Mica_isa.Reg
module Instr = Mica_isa.Instr

exception Done

module Obs = Mica_obs.Obs

let m_chunks = Obs.counter "trace.chunks"
let m_instrs = Obs.counter "trace.instrs"
let m_static_slots = Obs.counter "trace.static_slots"

type state = {
  rng : Rng.t;
  chunk : Chunk.t;  (* staging buffer, refilled in place between deliveries *)
  deliver : Chunk.t -> unit;
  mutable emitted : int;
  limit : int;
  mutable ghist : int;  (* global conditional-branch outcome history *)
  mutable next_pc : int;  (* fall-through/target of the last emitted instruction *)
}

let op_branch = Opcode.to_int Opcode.Branch
let op_jump = Opcode.to_int Opcode.Jump
let op_call = Opcode.to_int Opcode.Call
let op_return = Opcode.to_int Opcode.Return

let flush st =
  if st.chunk.Chunk.len > 0 then begin
    (* Fault-injection point: a generator hiccup at chunk granularity.
       [emitted] at flush time is a deterministic per-chunk key.  With no
       plan installed this is one atomic load per chunk, nothing per
       instruction. *)
    Mica_util.Fault.check Mica_util.Fault.Trace_gen ~key:st.emitted;
    let len = st.chunk.Chunk.len in
    st.deliver st.chunk;
    Chunk.clear st.chunk;
    Obs.incr m_chunks;
    Obs.add m_instrs (float_of_int len)
  end

(* The one write path to the chunk.  [len < capacity] holds on entry because
   every exit below flushes a full chunk, so the unsafe stores are in
   bounds.  [taken] is only ever true for control opcodes (the generator
   never sets it otherwise), which makes [if taken then target else pc + 4]
   agree with [Instr.next_pc].  A chunk filled exactly at the instruction
   limit is delivered by the capacity flush and leaves [len = 0], so the
   flush before [Done] and the final flush in [run] never redeliver it. *)
let emit st ~pc ~op ~src1 ~src2 ~dst ~addr ~taken ~target =
  let c = st.chunk in
  let i = c.Chunk.len in
  Array.unsafe_set c.Chunk.pc i pc;
  Array.unsafe_set c.Chunk.op i op;
  Array.unsafe_set c.Chunk.src1 i src1;
  Array.unsafe_set c.Chunk.src2 i src2;
  Array.unsafe_set c.Chunk.dst i dst;
  Array.unsafe_set c.Chunk.addr i addr;
  Array.unsafe_set c.Chunk.target i target;
  Bytes.unsafe_set c.Chunk.taken i (if taken then '\001' else '\000');
  c.Chunk.len <- i + 1;
  st.emitted <- st.emitted + 1;
  st.next_pc <- (if taken then target else pc + 4);
  if i + 1 = c.Chunk.capacity then flush st;
  if st.emitted >= st.limit then begin
    flush st;
    raise Done
  end

(* 64-bit mixer for pointer-chase address sequences: deterministic and
   well-scrambled, so chases look like random dependent walks. *)
let mix_int x =
  let x = Int64.of_int x in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94D049BB133111EBL in
  let x = Int64.logxor x (Int64.shift_right_logical x 31) in
  Int64.to_int (Int64.shift_right_logical x 2)

(* The image's per-slot arrays are read with [unsafe_get] below: every
   slot index comes from a loop bounded by [body_len] or by one helper
   region, and [Kernel.instantiate] sizes the arrays to cover both.
   [Int.max]/[Int.min], not the polymorphic [max]/[min]: those are calls to
   a generic compare on every Random or Chase access. *)
let next_addr st (k : Kernel.instance) s =
  let span = k.spec.Kernel.data_bytes in
  match Array.unsafe_get k.mem_access s with
  | Kernel.No_access -> 0
  | Kernel.Fixed_access -> k.data_base + Array.unsafe_get k.mem_cursor s
  | Kernel.Stride_access ->
    let cursor = Array.unsafe_get k.mem_cursor s in
    let next = cursor + Array.unsafe_get k.mem_stride s in
    Array.unsafe_set k.mem_cursor s
      (if next >= span || next < 0 then ((next mod span) + span) mod span else next);
    k.data_base + cursor
  | Kernel.Random_access ->
    (* Random accesses are zipf-like in real programs: most hit a hot
       window ([mem_aux] marks its start), the tail roams the whole region. *)
    if Rng.bernoulli st.rng ~p:0.9 then
      let hot_span = Int.max 64 (span / 64) in
      k.data_base + ((Array.unsafe_get k.mem_aux s + (Rng.int st.rng (hot_span / 8) * 8)) mod span)
    else k.data_base + (Rng.int st.rng (Int.max 1 (span / 8)) * 8)
  | Kernel.Chase_access ->
    (* Dependent walks have temporal locality: the chase scrambles inside a
       window that occasionally relocates, so the full region is covered
       over time without thrashing the TLB on every access. *)
    let window = Int.max 4096 (Int.min (span / 8) 131072) in
    if Rng.bernoulli st.rng ~p:0.03 then
      Array.unsafe_set k.mem_aux s (Rng.int st.rng (Int.max 1 (span / 8)) * 8 mod span);
    let cursor = Array.unsafe_get k.mem_cursor s in
    Array.unsafe_set k.mem_cursor s (mix_int cursor mod window land lnot 7);
    k.data_base + ((Array.unsafe_get k.mem_aux s + cursor) mod span)

let rec parity x acc = if x = 0 then acc else parity (x lsr 1) (acc lxor (x land 1))

let branch_outcome st (k : Kernel.instance) s =
  let execs = Array.unsafe_get k.br_execs s in
  let outcome =
    match Array.unsafe_get k.br_rule s with
    | Kernel.Loop_rule ->
      let period = Array.unsafe_get k.br_param s in
      execs mod period <> period - 1
    | Kernel.Periodic_rule ->
      execs mod Array.unsafe_get k.br_param s < Array.unsafe_get k.br_taken s
    | Kernel.Biased_rule -> Rng.bernoulli st.rng ~p:(Array.unsafe_get k.br_prob s)
    | Kernel.History_rule ->
      (* parity of the last [depth] global outcomes *)
      let mask = (1 lsl Array.unsafe_get k.br_param s) - 1 in
      parity (st.ghist land mask) 0 = 1
    | Kernel.No_rule -> invalid_arg "Generator: branch slot without a rule"
  in
  Array.unsafe_set k.br_execs s (execs + 1);
  st.ghist <- ((st.ghist lsl 1) lor Bool.to_int outcome) land 0xFFFF;
  outcome

let emit_slot st (k : Kernel.instance) s ~pc =
  let addr = next_addr st k s in
  emit st ~pc ~op:(Array.unsafe_get k.op s) ~src1:(Array.unsafe_get k.src1 s)
    ~src2:(Array.unsafe_get k.src2 s) ~dst:(Array.unsafe_get k.dst s) ~addr ~taken:false
    ~target:0

(* Execute one loop iteration of the body; returns unit.  Taken body
   branches skip slots; a skip past the end jumps to the loop back-edge. *)
let run_iteration st (k : Kernel.instance) =
  let n = k.body_len in
  let i = ref 0 in
  while !i < n do
    let s = !i in
    let pc = k.code_base + (4 * s) in
    if Array.unsafe_get k.op s <> op_branch then begin
      emit_slot st k s ~pc;
      i := s + 1
    end
    else begin
      let taken = branch_outcome st k s in
      let skip_target = s + 1 + Array.unsafe_get k.br_skip s in
      let target = if skip_target >= n then k.loop_pc else k.code_base + (4 * skip_target) in
      emit st ~pc ~op:op_branch ~src1:(Array.unsafe_get k.src1 s)
        ~src2:(Array.unsafe_get k.src2 s) ~dst:Reg.none ~addr:0 ~taken ~target;
      i := if taken then skip_target else s + 1
    end
  done

let run_helper st (k : Kernel.instance) =
  if Array.length k.helper_bases > 0 then begin
    let idx = Rng.pick_weighted st.rng k.helper_weights in
    let base = k.helper_bases.(idx) in
    let first = k.body_len + (idx * k.helper_len) in
    let call_pc = k.loop_pc + 4 in
    emit st ~pc:call_pc ~op:op_call ~src1:Reg.none ~src2:Reg.none ~dst:Reg.none ~addr:0
      ~taken:true ~target:base;
    for j = 0 to k.helper_len - 1 do
      emit_slot st k (first + j) ~pc:(base + (4 * j))
    done;
    let ret_pc = base + (4 * k.helper_len) in
    emit st ~pc:ret_pc ~op:op_return ~src1:Reg.none ~src2:Reg.none ~dst:Reg.none ~addr:0
      ~taken:true ~target:(call_pc + 4)
  end

(* One visit = trip_count loop iterations plus an occasional helper call.
   If control is not already at the kernel entry (the previous visit ended
   elsewhere), an explicit jump connects the flow, as a real caller
   would. *)
let run_visit st (k : Kernel.instance) =
  let spec = k.spec in
  if st.next_pc <> 0 && st.next_pc <> k.code_base then
    emit st ~pc:st.next_pc ~op:op_jump ~src1:Reg.none ~src2:Reg.none ~dst:Reg.none ~addr:0
      ~taken:true ~target:k.code_base;
  for it = 1 to spec.trip_count do
    run_iteration st k;
    let taken = it < spec.trip_count in
    emit st ~pc:k.loop_pc ~op:op_branch ~src1:0 ~src2:Reg.none ~dst:Reg.none ~addr:0 ~taken
      ~target:k.code_base
  done;
  if Rng.bernoulli st.rng ~p:spec.helper_call_prob then run_helper st k

(* Address-space layout: each kernel instance gets a private code region and
   a private data region.  The spacing is deliberately not a power of two:
   power-of-two spacing would make the corresponding slots of every kernel
   alias to the same branch-predictor entries and cache sets downstream. *)
let code_base_for idx = 0x0040_0000 + (idx * 0x0101_0c40)
let data_base_for idx = 0x4000_0000 + (idx * 0x1010_4c80)

type phase_rt = { kernels : (float * Kernel.instance) array; length : int }

(* Instantiate every kernel, in program order, before the first
   instruction: the one cost that grows with the program's static size
   rather than its trace length. *)
let build_phases program rng =
  Obs.span "trace.setup" (fun () ->
      let idx = ref 0 in
      List.map
        (fun (ph : Program.phase) ->
          let kernels =
            List.map
              (fun (w, spec) ->
                let i = !idx in
                incr idx;
                let k =
                  Kernel.instantiate spec ~rng ~code_base:(code_base_for i)
                    ~data_base:(data_base_for i)
                in
                Obs.add m_static_slots (float_of_int (Array.length k.Kernel.op));
                (w, k))
              ph.ph_kernels
          in
          { kernels = Array.of_list kernels; length = ph.ph_length })
        program.Program.phases)

let run program ~icount ~sink =
  (match Program.validate program with Ok () -> () | Error msg -> invalid_arg msg);
  if icount <= 0 then 0
  else begin
    let rng = Rng.create ~seed:program.Program.seed in
    let phases = Array.of_list (build_phases program rng) in
    let st =
      {
        rng;
        chunk = Chunk.create ();
        deliver = sink.Sink.on_chunk;
        emitted = 0;
        limit = icount;
        ghist = 0;
        next_pc = 0;
      }
    in
    Obs.span "trace.gen" (fun () ->
        try
          let phase_idx = ref 0 in
          while true do
            let ph = phases.(!phase_idx mod Array.length phases) in
            incr phase_idx;
            let budget_end = st.emitted + ph.length in
            while st.emitted < budget_end do
              let inst = Rng.pick_weighted st.rng ph.kernels in
              run_visit st inst
            done
          done
        with Done -> ());
    st.emitted
  end

let preview program ~n =
  let sink, read = Sink.collect ~limit:n () in
  let (_ : int) = run program ~icount:n ~sink in
  read ()
