module Rng = Mica_util.Rng
module Opcode = Mica_isa.Opcode
module Reg = Mica_isa.Reg
module Instr = Mica_isa.Instr

exception Done

module Obs = Mica_obs.Obs

let m_chunks = Obs.counter "trace.chunks"
let m_instrs = Obs.counter "trace.instrs"

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

(* [Int.max]/[Int.min], not the polymorphic [max]/[min]: those are calls to
   a generic compare on every Random or Chase access. *)
let next_addr st (m : Kernel.mem_state) =
  match m.m_pattern with
  | Kernel.Fixed -> m.m_base + m.m_cursor
  | Kernel.Seq { stride } | Kernel.Strided { stride } ->
    let a = m.m_base + m.m_cursor in
    let next = m.m_cursor + stride in
    m.m_cursor <- (if next >= m.m_span || next < 0 then (next mod m.m_span + m.m_span) mod m.m_span else next);
    a
  | Kernel.Random ->
    (* Random accesses are zipf-like in real programs: most hit a hot
       window ([m_aux] marks its start), the tail roams the whole region. *)
    if Rng.bernoulli st.rng ~p:0.9 then
      let hot_span = Int.max 64 (m.m_span / 64) in
      m.m_base + ((m.m_aux + (Rng.int st.rng (hot_span / 8) * 8)) mod m.m_span)
    else m.m_base + (Rng.int st.rng (Int.max 1 (m.m_span / 8)) * 8)
  | Kernel.Chase ->
    (* Dependent walks have temporal locality: the chase scrambles inside a
       window that occasionally relocates, so the full region is covered
       over time without thrashing the TLB on every access. *)
    let window = Int.max 4096 (Int.min (m.m_span / 8) 131072) in
    if Rng.bernoulli st.rng ~p:0.03 then
      m.m_aux <- Rng.int st.rng (Int.max 1 (m.m_span / 8)) * 8 mod m.m_span;
    let a = m.m_base + ((m.m_aux + m.m_cursor) mod m.m_span) in
    m.m_cursor <- mix_int m.m_cursor mod window land lnot 7;
    a

let branch_outcome st (b : Kernel.br_state) =
  let outcome =
    match b.b_kind with
    | Kernel.Loop_like { period } -> b.b_execs mod period <> period - 1
    | Kernel.Periodic { period; taken_in_period } -> b.b_execs mod period < taken_in_period
    | Kernel.Biased { taken_prob } -> Rng.bernoulli st.rng ~p:taken_prob
    | Kernel.History { depth } ->
      (* parity of the last [depth] global outcomes *)
      let mask = (1 lsl depth) - 1 in
      let rec parity x acc = if x = 0 then acc else parity (x lsr 1) (acc lxor (x land 1)) in
      parity (st.ghist land mask) 0 = 1
  in
  b.b_execs <- b.b_execs + 1;
  st.ghist <- ((st.ghist lsl 1) lor Bool.to_int outcome) land 0xFFFF;
  outcome

let emit_slot st (slot : Kernel.slot) =
  let addr = match slot.s_mem with Some m -> next_addr st m | None -> 0 in
  emit st ~pc:slot.s_pc ~op:(Opcode.to_int slot.s_op) ~src1:slot.s_src1 ~src2:slot.s_src2
    ~dst:slot.s_dst ~addr ~taken:false ~target:0

(* Execute one loop iteration of the body; returns unit.  Taken body
   branches skip slots; a skip past the end jumps to the loop back-edge. *)
let run_iteration st (inst : Kernel.instance) =
  let body = inst.i_body in
  let n = Array.length body in
  let i = ref 0 in
  while !i < n do
    let slot = body.(!i) in
    match slot.s_br with
    | None ->
      emit_slot st slot;
      incr i
    | Some br ->
      let taken = branch_outcome st br in
      let skip_target = !i + 1 + br.b_skip in
      let target = if skip_target >= n then inst.i_loop_pc else body.(skip_target).s_pc in
      emit st ~pc:slot.s_pc ~op:op_branch ~src1:slot.s_src1 ~src2:slot.s_src2 ~dst:Reg.none
        ~addr:0 ~taken ~target;
      i := (if taken then skip_target else !i + 1)
  done

let run_helper st (inst : Kernel.instance) =
  if Array.length inst.i_helpers > 0 then begin
    let idx = Rng.pick_weighted st.rng inst.i_helper_weights in
    let helper = inst.i_helpers.(idx) in
    let call_pc = inst.i_loop_pc + 4 in
    emit st ~pc:call_pc ~op:op_call ~src1:Reg.none ~src2:Reg.none ~dst:Reg.none ~addr:0
      ~taken:true ~target:helper.h_base;
    Array.iter (emit_slot st) helper.h_body;
    let ret_pc = helper.h_base + (4 * Array.length helper.h_body) in
    emit st ~pc:ret_pc ~op:op_return ~src1:Reg.none ~src2:Reg.none ~dst:Reg.none ~addr:0
      ~taken:true ~target:(call_pc + 4)
  end

(* One visit = trip_count loop iterations plus an occasional helper call.
   If control is not already at the kernel entry (the previous visit ended
   elsewhere), an explicit jump connects the flow, as a real caller
   would. *)
let run_visit st (inst : Kernel.instance) =
  let spec = inst.i_spec in
  if st.next_pc <> 0 && st.next_pc <> inst.i_code_base then
    emit st ~pc:st.next_pc ~op:op_jump ~src1:Reg.none ~src2:Reg.none ~dst:Reg.none ~addr:0
      ~taken:true ~target:inst.i_code_base;
  inst.i_visits <- inst.i_visits + 1;
  for it = 1 to spec.trip_count do
    run_iteration st inst;
    let taken = it < spec.trip_count in
    emit st ~pc:inst.i_loop_pc ~op:op_branch ~src1:0 ~src2:Reg.none ~dst:Reg.none ~addr:0 ~taken
      ~target:inst.i_code_base
  done;
  if Rng.bernoulli st.rng ~p:spec.helper_call_prob then run_helper st inst

(* Address-space layout: each kernel instance gets a private code region and
   a private data region.  The spacing is deliberately not a power of two:
   power-of-two spacing would make the corresponding slots of every kernel
   alias to the same branch-predictor entries and cache sets downstream. *)
let code_base_for idx = 0x0040_0000 + (idx * 0x0101_0c40)
let data_base_for idx = 0x4000_0000 + (idx * 0x1010_4c80)

type phase_rt = { kernels : (float * Kernel.instance) array; length : int }

let build_phases program rng =
  let idx = ref 0 in
  List.map
    (fun (ph : Program.phase) ->
      let kernels =
        List.map
          (fun (w, spec) ->
            let k = !idx in
            incr idx;
            ( w,
              Kernel.instantiate spec ~rng ~code_base:(code_base_for k)
                ~data_base:(data_base_for k) ))
          ph.ph_kernels
      in
      { kernels = Array.of_list kernels; length = ph.ph_length })
    program.Program.phases

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
