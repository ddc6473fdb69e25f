module K = Mica_trace.Kernel
module P = Mica_trace.Program
module G = Mica_trace.Generator
module Sink = Mica_trace.Sink
module Opcode = Mica_isa.Opcode
module Instr = Mica_isa.Instr
module Rng = Mica_util.Rng
module Trace_io = Mica_trace.Trace_io

(* ---------------- Sink ---------------- *)

let test_sink_counter () =
  let sink, read = Sink.counter () in
  Tutil.run_sink sink [ Tutil.alu (); Tutil.alu (); Tutil.alu () ];
  Alcotest.(check int) "counted" 3 (read ())

let test_sink_fanout () =
  let s1, r1 = Sink.counter () in
  let s2, r2 = Sink.counter () in
  let fan = Sink.fanout [ s1; s2 ] in
  Tutil.run_sink fan [ Tutil.alu (); Tutil.alu () ];
  Alcotest.(check int) "first sees all" 2 (r1 ());
  Alcotest.(check int) "second sees all" 2 (r2 ())

let test_sink_sample () =
  let s, r = Sink.counter () in
  let sampled = Sink.sample ~every:3 s in
  Tutil.run_sink sampled (List.init 10 (fun _ -> Tutil.alu ()));
  Alcotest.(check int) "every third" 4 (r ())

let test_sink_sample_identity () =
  (* every:1 must forward the full stream unchanged *)
  let s, r = Sink.counter () in
  let sampled = Sink.sample ~every:1 s in
  Tutil.run_sink sampled (List.init 7 (fun _ -> Tutil.alu ()));
  Alcotest.(check int) "all forwarded" 7 (r ())

let test_sink_sample_invalid () =
  let s, _ = Sink.counter () in
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Sink.sample: every must be positive") (fun () ->
      ignore (Sink.sample ~every:0 s));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Sink.sample: every must be positive") (fun () ->
      ignore (Sink.sample ~every:(-3) s))

let test_sink_collect () =
  let sink, read = Sink.collect ~limit:2 () in
  let a = Tutil.alu ~pc:0x10 () and b = Tutil.alu ~pc:0x20 () and c = Tutil.alu ~pc:0x30 () in
  Tutil.run_sink sink [ a; b; c ];
  let got = read () in
  Alcotest.(check int) "limited" 2 (List.length got);
  Alcotest.(check int) "in order" 0x10 (List.hd got).Instr.pc

let test_sink_collect_zero_limit () =
  (* limit:0 absorbs the stream and yields nothing *)
  let sink, read = Sink.collect ~limit:0 () in
  Tutil.run_sink sink [ Tutil.alu (); Tutil.alu () ];
  Alcotest.(check int) "empty" 0 (List.length (read ()))

let test_sink_collect_negative_limit () =
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Sink.collect: limit must be non-negative") (fun () ->
      ignore (Sink.collect ~limit:(-1) ()))

(* ---------------- Chunk transport ---------------- *)

let test_chunk_roundtrip () =
  let c = Mica_trace.Chunk.create ~capacity:4 () in
  let instrs =
    [
      Tutil.alu ~pc:0x10 ~src1:1 ~src2:2 ~dst:3 ();
      Tutil.load ~pc:0x14 ~dst:4 ~addr:0xBEEF0 ();
      Tutil.branch ~pc:0x18 ~taken:true ();
    ]
  in
  List.iter (Mica_trace.Chunk.push c) instrs;
  Alcotest.(check int) "length" 3 (Mica_trace.Chunk.length c);
  Alcotest.(check bool) "not yet full" false (Mica_trace.Chunk.is_full c);
  Alcotest.(check bool) "boxed roundtrip" true (Mica_trace.Chunk.to_list c = instrs);
  Mica_trace.Chunk.push c (Tutil.alu ());
  Alcotest.(check bool) "full at capacity" true (Mica_trace.Chunk.is_full c);
  Alcotest.check_raises "push past capacity" (Invalid_argument "Chunk.push: chunk is full")
    (fun () -> Mica_trace.Chunk.push c (Tutil.alu ()));
  Mica_trace.Chunk.clear c;
  Alcotest.(check int) "cleared" 0 (Mica_trace.Chunk.length c)

let test_chunk_create_invalid () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Chunk.create: capacity must be positive") (fun () ->
      ignore (Mica_trace.Chunk.create ~capacity:0 ()))

let chunk_lengths program ~icount =
  let lens = ref [] in
  let sink =
    Sink.make ~name:"lens" (fun c -> lens := Mica_trace.Chunk.length c :: !lens)
  in
  let (_ : int) = G.run program ~icount ~sink in
  List.rev !lens

let test_generator_chunk_sizes () =
  (* the delivered chunk sizes partition icount: full chunks then one
     partial; an exactly-full final chunk is delivered once, not followed
     by an empty one *)
  let p = P.single ~name:"chunk-sizes" K.default in
  let cap = 4096 (* the default chunk capacity *) in
  Alcotest.(check (list int)) "partial final chunk" [ cap; 5_000 - cap ]
    (chunk_lengths p ~icount:5_000);
  Alcotest.(check (list int)) "less than one chunk" [ 100 ] (chunk_lengths p ~icount:100);
  Alcotest.(check (list int)) "exactly full" [ cap ] (chunk_lengths p ~icount:cap);
  Alcotest.(check (list int)) "two exact chunks" [ cap; cap ]
    (chunk_lengths p ~icount:(2 * cap))

let test_chunking_invariance () =
  (* chunk boundaries carry no meaning: restreaming the same instructions
     at any capacity (straddling basic blocks arbitrarily) yields the same
     characteristics as the generator's own chunking *)
  let p = P.single ~name:"chunking-invariance" K.default in
  let direct = Mica_analysis.Analyzer.analyze p ~icount:5_000 in
  let instrs = G.preview p ~n:5_000 in
  List.iter
    (fun cap ->
      let t = Mica_analysis.Analyzer.create () in
      Sink.feed_list ~capacity:cap (Mica_analysis.Analyzer.sink t) instrs;
      Alcotest.(check bool)
        (Printf.sprintf "capacity %d" cap)
        true
        (Mica_analysis.Analyzer.vector t = direct))
    [ 1; 7; 1024 ]

let test_sink_sample_across_chunks () =
  (* sampling is positional over the stream, not over chunks *)
  let sampled_pcs cap =
    let s, read = Sink.collect ~limit:100 () in
    let sampled = Sink.sample ~every:3 s in
    Sink.feed_list ~capacity:cap sampled (List.init 10 (fun i -> Tutil.alu ~pc:(4 * i) ()));
    List.map (fun i -> i.Instr.pc) (read ())
  in
  Alcotest.(check (list int)) "expected positions" [ 0; 12; 24; 36 ] (sampled_pcs 4096);
  Alcotest.(check (list int)) "boundary-independent" (sampled_pcs 4096) (sampled_pcs 4);
  Alcotest.(check (list int)) "single-element chunks" (sampled_pcs 4096) (sampled_pcs 1)

let test_sink_collect_across_chunks () =
  (* a limit landing mid-chunk truncates exactly there *)
  let pcs ~cap ~limit =
    let sink, read = Sink.collect ~limit () in
    Sink.feed_list ~capacity:cap sink (List.init 10 (fun i -> Tutil.alu ~pc:i ()));
    List.map (fun i -> i.Instr.pc) (read ())
  in
  Alcotest.(check (list int)) "limit mid-chunk" [ 0; 1; 2; 3; 4 ] (pcs ~cap:3 ~limit:5);
  Alcotest.(check (list int)) "limit past stream" (List.init 10 Fun.id) (pcs ~cap:4 ~limit:50)

(* ---------------- Kernel validation ---------------- *)

let expect_invalid spec name =
  match K.validate spec with
  | Ok () -> Alcotest.failf "%s should be invalid" name
  | Error _ -> ()

let test_kernel_validate () =
  Alcotest.(check bool) "default valid" true (K.validate K.default = Ok ());
  expect_invalid { K.default with K.body_slots = 2 } "tiny body";
  expect_invalid
    { K.default with K.mix = { K.default.K.mix with K.load = 0.9; store = 0.5 } }
    "over-full mix";
  expect_invalid { K.default with K.dep_geom_p = 0.0 } "zero dep_geom_p";
  expect_invalid { K.default with K.trip_count = 0 } "zero trip";
  expect_invalid { K.default with K.data_bytes = 8 } "tiny data";
  expect_invalid { K.default with K.helper_call_prob = 1.5 } "probability over 1";
  expect_invalid
    { K.default with K.fp_mul_frac = 0.8; fp_div_frac = 0.5 }
    "fp split over 1";
  expect_invalid
    { K.default with K.load_patterns = [] }
    "no load patterns with loads in mix";
  (* branch-kind parameters: each of these once reached the generator and
     divided by zero or read history bits it never kept *)
  let with_kind kind = { K.default with K.branch_kinds = [ (0.5, K.Loop_like { period = 8 }); (0.5, kind) ] } in
  List.iter
    (fun (kind, name) ->
      match K.validate (with_kind kind) with
      | Ok () -> Alcotest.failf "%s should be invalid" name
      | Error msg ->
        if not (String.starts_with ~prefix:"kernel \"default\"" msg) then
          Alcotest.failf "%s: error %S does not name the kernel" name msg)
    [
      (K.Loop_like { period = 0 }, "loop period 0");
      (K.Loop_like { period = -3 }, "negative loop period");
      (K.Periodic { period = 0; taken_in_period = 0 }, "periodic period 0");
      (K.Periodic { period = 4; taken_in_period = 5 }, "taken above period");
      (K.Periodic { period = 4; taken_in_period = -1 }, "negative taken");
      (K.Biased { taken_prob = 1.5 }, "probability above 1");
      (K.Biased { taken_prob = -0.1 }, "negative probability");
      (K.Biased { taken_prob = Float.nan }, "NaN probability");
      (K.History { depth = 17 }, "history deeper than 16");
      (K.History { depth = -1 }, "negative history depth");
    ];
  (* the edges of every range are valid *)
  List.iter
    (fun kind ->
      if K.validate (with_kind kind) <> Ok () then Alcotest.fail "edge kind rejected")
    [
      K.Loop_like { period = 1 };
      K.Periodic { period = 1; taken_in_period = 0 };
      K.Periodic { period = 4; taken_in_period = 4 };
      K.Biased { taken_prob = 0.0 };
      K.Biased { taken_prob = 1.0 };
      K.History { depth = 0 };
      K.History { depth = 16 };
    ]

let test_kernel_instantiate_structure () =
  let rng = Rng.create ~seed:1L in
  let inst = K.instantiate K.default ~rng ~code_base:0x1000 ~data_base:0x100000 in
  let n = K.default.K.body_slots in
  Alcotest.(check int) "body size" n inst.K.body_len;
  Alcotest.(check int) "loop pc after body" (0x1000 + (4 * n)) inst.K.loop_pc;
  Alcotest.(check int) "helper regions" K.default.K.helper_regions
    (Array.length inst.K.helper_bases);
  let slots = Array.length inst.K.op in
  Alcotest.(check int) "image size" (n + (K.default.K.helper_regions * inst.K.helper_len)) slots;
  (* body slot pcs are sequential from the code base *)
  for i = 0 to n - 1 do
    Alcotest.(check int) "body slot pc" (0x1000 + (4 * i)) (K.slot_pc inst i)
  done;
  (* each helper's slots are sequential from its base, past the loop
     branch and the previous helper's return *)
  let prev_end = ref inst.K.loop_pc in
  Array.iteri
    (fun h base ->
      if base <= !prev_end then Alcotest.failf "helper %d overlaps earlier code" h;
      for j = 0 to inst.K.helper_len - 1 do
        Alcotest.(check int) "helper slot pc" (base + (4 * j))
          (K.slot_pc inst (n + (h * inst.K.helper_len) + j))
      done;
      prev_end := base + (4 * inst.K.helper_len))
    inst.K.helper_bases;
  (* memory state exactly on memory slots, branch state exactly on body
     branch slots, and no branch outside the body *)
  for s = 0 to slots - 1 do
    let op = Opcode.of_int inst.K.op.(s) in
    (match op with
    | Opcode.Load | Opcode.Store ->
      if inst.K.mem_access.(s) = K.No_access then Alcotest.fail "mem slot without state"
    | _ -> if inst.K.mem_access.(s) <> K.No_access then Alcotest.fail "non-mem slot with state");
    if s < n then begin
      match op with
      | Opcode.Branch -> if inst.K.br_rule.(s) = K.No_rule then Alcotest.fail "branch without state"
      | _ -> if inst.K.br_rule.(s) <> K.No_rule then Alcotest.fail "non-branch with state"
    end
    else if op = Opcode.Branch then Alcotest.fail "branch in a helper"
  done;
  Alcotest.(check int) "branch state spans the body" n (Array.length inst.K.br_rule);
  Alcotest.check_raises "no slot past the image" (Invalid_argument "Kernel.slot_pc: no such slot")
    (fun () -> ignore (K.slot_pc inst slots : int))

(* The generator reads the image as [Kernel] lays it out.  Instantiating a
   one-kernel program's spec from the program's seed rebuilds the
   generator's own image (the code base is the first pc, since the first
   visit starts at slot 0; the data base moves no draw), and every
   instruction emitted from a slot carries that slot's pc, opcode and
   registers.  The loop branch, calls, returns and jumps sit at no slot's
   pc. *)
let test_generator_emits_image () =
  let spec = { K.default with K.helper_call_prob = 1.0 } in
  let p = P.single ~name:"image" spec in
  let trace = G.preview p ~n:20_000 in
  let code_base = (List.hd trace).Instr.pc in
  let inst = K.instantiate spec ~rng:(Rng.create ~seed:p.P.seed) ~code_base ~data_base:0 in
  let slot_at = Hashtbl.create 1024 in
  Array.iteri (fun s _ -> Hashtbl.replace slot_at (K.slot_pc inst s) s) inst.K.op;
  let seen = Array.make (Array.length inst.K.op) false in
  List.iter
    (fun (i : Instr.t) ->
      match Hashtbl.find_opt slot_at i.pc with
      | None ->
        if not (Opcode.is_control i.op) then
          Alcotest.failf "%s at pc %x: no slot" (Opcode.to_string i.op) i.pc
      | Some s ->
        seen.(s) <- true;
        let want = [ inst.K.op.(s); inst.K.src1.(s); inst.K.src2.(s); inst.K.dst.(s) ]
        and got = [ Opcode.to_int i.op; i.src1; i.src2; i.dst ] in
        if got <> want then
          Alcotest.failf "slot %d: emitted op/src1/src2/dst %s, image %s" s
            (String.concat " " (List.map string_of_int got))
            (String.concat " " (List.map string_of_int want)))
    trace;
  for s = 0 to inst.K.body_len - 1 do
    if not seen.(s) then Alcotest.failf "body slot %d never emitted" s
  done;
  if not (Array.exists Fun.id (Array.sub seen inst.K.body_len (Array.length seen - inst.K.body_len)))
  then Alcotest.fail "no helper slot emitted"

let body_ops inst = Array.to_list (Array.sub inst.K.op 0 inst.K.body_len)

let test_kernel_mix_rounding () =
  let spec = { K.default with K.body_slots = 100 } in
  let rng = Rng.create ~seed:2L in
  let inst = K.instantiate spec ~rng ~code_base:0x1000 ~data_base:0x100000 in
  let count op = List.length (List.filter (fun o -> o = Opcode.to_int op) (body_ops inst)) in
  Alcotest.(check int) "load slots match mix" 25 (count Opcode.Load);
  Alcotest.(check int) "store slots match mix" 10 (count Opcode.Store)

let test_kernel_chase_self_dependence () =
  let spec =
    {
      K.default with
      K.name = "chase";
      load_patterns = [ (1.0, K.Chase) ];
      mix = { K.default.K.mix with K.load = 0.3 };
    }
  in
  let rng = Rng.create ~seed:3L in
  let inst = K.instantiate spec ~rng ~code_base:0x1000 ~data_base:0x100000 in
  let chases = ref 0 in
  for s = 0 to inst.K.body_len - 1 do
    if inst.K.op.(s) = Opcode.to_int Opcode.Load && not (Mica_isa.Reg.is_none inst.K.dst.(s))
    then begin
      incr chases;
      Alcotest.(check bool) "chase access" true (inst.K.mem_access.(s) = K.Chase_access);
      Alcotest.(check int) "chase load reads its own output" inst.K.dst.(s) inst.K.src1.(s)
    end
  done;
  if !chases = 0 then Alcotest.fail "no chasing load in the body"

let test_kernel_invalid_instantiate_raises () =
  let rng = Rng.create ~seed:4L in
  Alcotest.check_raises "invalid spec raises"
    (Invalid_argument "kernel \"default\": trip_count must be positive")
    (fun () ->
      ignore
        (K.instantiate { K.default with K.trip_count = 0 } ~rng ~code_base:0 ~data_base:0))

(* ---------------- Program ---------------- *)

let test_program_validate () =
  let p = P.make ~name:"empty" [] in
  Alcotest.(check bool) "no phases invalid" true (Result.is_error (P.validate p));
  let p =
    P.make ~name:"zero-len" [ { P.ph_name = "a"; ph_kernels = [ (1.0, K.default) ]; ph_length = 0 } ]
  in
  Alcotest.(check bool) "zero length invalid" true (Result.is_error (P.validate p));
  let p =
    P.make ~name:"neg-weight"
      [ { P.ph_name = "a"; ph_kernels = [ (-1.0, K.default) ]; ph_length = 10 } ]
  in
  Alcotest.(check bool) "negative weight invalid" true (Result.is_error (P.validate p));
  Alcotest.(check bool) "single valid" true
    (Result.is_ok (P.validate (P.single ~name:"ok" K.default)))

let test_program_seed_derived_from_name () =
  let a = P.single ~name:"abc" K.default and b = P.single ~name:"abc" K.default in
  Alcotest.(check int64) "same name same seed" a.P.seed b.P.seed;
  let c = P.single ~name:"xyz" K.default in
  Alcotest.(check bool) "different name different seed" true (a.P.seed <> c.P.seed)

let test_program_kernels () =
  let p = P.single ~name:"k" K.default in
  Alcotest.(check int) "one kernel" 1 (List.length (P.kernels p))

(* ---------------- Generator ---------------- *)

let test_generator_exact_icount () =
  let p = P.single ~name:"count" K.default in
  let sink, read = Sink.counter () in
  let n = G.run p ~icount:12_345 ~sink in
  Alcotest.(check int) "returns icount" 12_345 n;
  Alcotest.(check int) "sink saw icount" 12_345 (read ())

let test_generator_zero_icount () =
  let p = P.single ~name:"zero" K.default in
  let sink, read = Sink.counter () in
  Alcotest.(check int) "zero" 0 (G.run p ~icount:0 ~sink);
  Alcotest.(check int) "nothing emitted" 0 (read ())

let test_generator_deterministic () =
  let p = P.single ~name:"det" K.default in
  let a = G.preview p ~n:500 and b = G.preview p ~n:500 in
  Alcotest.(check bool) "identical traces" true (a = b)

let test_generator_different_names_differ () =
  let a = G.preview (P.single ~name:"one" K.default) ~n:200 in
  let b = G.preview (P.single ~name:"two" K.default) ~n:200 in
  Alcotest.(check bool) "traces differ" true (a <> b)

let test_generator_invalid_program () =
  let p = P.make ~name:"bad" [] in
  let sink, _ = Sink.counter () in
  (try
     ignore (G.run p ~icount:10 ~sink);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_generator_stream_well_formed () =
  let p = P.single ~name:"wf" K.default in
  let instrs = G.preview p ~n:5_000 in
  List.iter
    (fun (i : Instr.t) ->
      if i.Instr.pc <= 0 then Alcotest.fail "non-positive pc";
      if Opcode.is_mem i.Instr.op && i.Instr.addr <= 0 then Alcotest.fail "mem op without address";
      if Opcode.is_control i.Instr.op && i.Instr.taken && i.Instr.target <= 0 then
        Alcotest.fail "taken control without target";
      if (not (Opcode.is_mem i.Instr.op)) && i.Instr.addr <> 0 then
        Alcotest.fail "non-mem op with address")
    instrs

let test_generator_control_flow_consistent () =
  (* After a not-taken branch or a sequential instruction the next pc is
     pc+4; after a taken control transfer it is the target. *)
  let p = P.single ~name:"cfc" K.default in
  let instrs = Array.of_list (G.preview p ~n:2_000) in
  for i = 0 to Array.length instrs - 2 do
    let cur = instrs.(i) and next = instrs.(i + 1) in
    Alcotest.(check int)
      (Printf.sprintf "pc chain at %d" i)
      (Instr.next_pc cur) next.Instr.pc
  done

let test_generator_loop_branch_pattern () =
  (* the loop back-edge is taken trip_count-1 times, then falls through *)
  let spec = { K.default with K.helper_call_prob = 0.0; trip_count = 4 } in
  let p = P.single ~name:"loop" spec in
  let instrs = G.preview p ~n:2_000 in
  let loop_pc = ref None in
  (* find the highest branch pc: that's the back edge *)
  List.iter
    (fun (i : Instr.t) ->
      if i.Instr.op = Opcode.Branch then
        match !loop_pc with
        | None -> loop_pc := Some i.Instr.pc
        | Some p when i.Instr.pc > p -> loop_pc := Some i.Instr.pc
        | Some _ -> ())
    instrs;
  let loop_pc = Option.get !loop_pc in
  let outcomes =
    List.filter_map
      (fun (i : Instr.t) -> if i.Instr.pc = loop_pc then Some i.Instr.taken else None)
      instrs
  in
  (* pattern: T T T N repeating *)
  List.iteri
    (fun idx taken ->
      let expected = idx mod 4 <> 3 in
      if taken <> expected then Alcotest.failf "back edge outcome %d wrong" idx)
    outcomes

let test_generator_phase_interleaving () =
  let k1 = { K.default with K.name = "k1" } in
  let k2 = { K.default with K.name = "k2" } in
  let p =
    P.make ~name:"phases"
      [
        { P.ph_name = "a"; ph_kernels = [ (1.0, k1) ]; ph_length = 500 };
        { P.ph_name = "b"; ph_kernels = [ (1.0, k2) ]; ph_length = 500 };
      ]
  in
  let instrs = G.preview p ~n:3_000 in
  let code_regions =
    List.sort_uniq compare (List.map (fun (i : Instr.t) -> i.Instr.pc land 0x7F00_0000) instrs)
  in
  Alcotest.(check bool) "two code regions visited" true (List.length code_regions >= 2)

let prop_generator_icount =
  Tutil.qcheck_case ~count:20 "generator emits exactly icount"
    QCheck2.Gen.(int_range 1 5_000)
    (fun n ->
      let p = P.single ~name:"prop" K.default in
      let sink, read = Sink.counter () in
      G.run p ~icount:n ~sink = n && read () = n)

(* ---------------- trace IO ---------------- *)

let test_trace_io_line_roundtrip () =
  let samples =
    [
      Tutil.load ~pc:0x40 ~src1:3 ~dst:7 ~addr:0xdeadbeef ();
      Tutil.branch ~pc:0x44 ~src1:1 ~taken:true ~target:0x80 ();
      Tutil.alu ~pc:0x48 ~src1:1 ~src2:2 ~dst:3 ();
      Instr.make ~pc:0x4C ~op:Opcode.Return ~src1:26 ~taken:true ~target:0x100 ();
    ]
  in
  List.iter
    (fun i ->
      let line = Trace_io.instr_to_line i in
      let back = Trace_io.instr_of_line line in
      if back <> i then Alcotest.failf "line roundtrip failed for %s" line)
    samples

let test_trace_io_bad_line () =
  (try
     ignore (Trace_io.instr_of_line "not a trace line");
     Alcotest.fail "garbage accepted"
   with Failure _ -> ());
  try
    ignore (Trace_io.instr_of_line "40 bogus_op 1 2 3 0 T 0");
    Alcotest.fail "bad opcode accepted"
  with Failure _ -> ()

let roundtrip_file ~binary =
  let p = P.single ~name:"trace-io" K.default in
  let path = Filename.temp_file "mica_trace" (if binary then ".bin" else ".txt") in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let written =
        if binary then Trace_io.write_binary ~path p ~icount:2_000
        else Trace_io.write_text ~path p ~icount:2_000
      in
      Alcotest.(check int) "written" 2_000 written;
      let collected, read = Sink.collect ~limit:2_000 () in
      let n =
        if binary then Trace_io.replay_binary ~path ~sink:collected
        else Trace_io.replay_text ~path ~sink:collected
      in
      Alcotest.(check int) "replayed" 2_000 n;
      let original = G.preview p ~n:2_000 in
      Alcotest.(check bool) "identical instruction stream" true (read () = original))

let test_trace_io_text_file () = roundtrip_file ~binary:false
let test_trace_io_binary_file () = roundtrip_file ~binary:true

let test_trace_io_binary_rejects_garbage () =
  let path = Filename.temp_file "mica_trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "NOTATRACE_______";
      close_out oc;
      let sink, _ = Sink.counter () in
      try
        ignore (Trace_io.replay_binary ~path ~sink);
        Alcotest.fail "garbage accepted"
      with Failure _ -> ())

(* ---------------- replay rejects registers it cannot hold ---------------- *)

(* Analyzers index per-register state by id, so a register outside
   [-1, Reg.count) must stop replay with the reader's [Failure] before any
   analyzer sees it, never as an analyzer's [Invalid_argument]. *)

let expect_failure what f =
  match f () with _ -> Alcotest.failf "%s accepted" what | exception Failure _ -> ()

let test_trace_io_line_register_range () =
  List.iter
    (fun (what, line) ->
      expect_failure what (fun () -> Trace_io.instr_of_line line))
    [
      ("src1 64", "40 int_alu 64 -1 3 0 N 0");
      ("src2 -2", "40 int_alu 1 -2 3 0 N 0");
      ("dst 1000", "40 int_alu 1 2 1000 0 N 0");
    ];
  let i = Trace_io.instr_of_line "40 int_alu -1 63 31 0 N 0" in
  Alcotest.(check (list int)) "range edges are registers" [ -1; 63; 31 ]
    [ i.Instr.src1; i.Instr.src2; i.Instr.dst ]

(* A recorded trace of [n] instructions with [corrupt] applied to its bytes. *)
let with_corrupted_trace ~binary ~n corrupt f =
  let p = P.single ~name:"trace-io-corrupt" K.default in
  let path = Filename.temp_file "mica_trace" (if binary then ".bin" else ".txt") in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore
        (if binary then Trace_io.write_binary ~path p ~icount:n
         else Trace_io.write_text ~path p ~icount:n
          : int);
      let data = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc -> output_string oc (corrupt data));
      f path)

(* record [i]'s byte at [offset] set to [v]; records follow the 8-byte magic *)
let set_record_byte i offset v data =
  let b = Bytes.of_string data in
  Bytes.set_uint8 b (8 + (28 * i) + offset) v;
  Bytes.to_string b

(* record [i]'s 8-byte pc field set to the little-endian [pc] *)
let set_record_pc i pc data =
  let b = Bytes.of_string data in
  Bytes.set_int64_le b (8 + (28 * i)) pc;
  Bytes.to_string b

(* record [i]'s pc bytes all 0xFF: pc -1 *)
let set_record_pc_ff i = set_record_pc i (-1L)

let replay_into_analyzer ~binary path =
  let sink = Mica_analysis.Analyzer.sink (Mica_analysis.Analyzer.create ()) in
  if binary then Trace_io.replay_binary ~path ~sink else Trace_io.replay_text ~path ~sink

let test_trace_io_binary_register_range () =
  List.iter
    (fun (what, offset, v) ->
      with_corrupted_trace ~binary:true ~n:500 (set_record_byte 300 offset v) (fun path ->
          expect_failure what (fun () -> replay_into_analyzer ~binary:true path)))
    [ ("src1 byte 200", 25, 200); ("src2 register 64", 26, 65); ("dst register 126", 27, 0xFF) ]

let test_trace_io_text_register_range () =
  let bad_dst data =
    let lines = String.split_on_char '\n' data in
    String.concat "\n"
      (List.mapi
         (fun i l ->
           if i <> 300 then l
           else
             match String.split_on_char ' ' l with
             | [ pc; op; s1; s2; _; addr; taken; target ] ->
               String.concat " " [ pc; op; s1; s2; "64"; addr; taken; target ]
             | _ -> Alcotest.failf "unexpected trace line %S" l)
         lines)
  in
  with_corrupted_trace ~binary:false ~n:500 bad_dst (fun path ->
      match replay_into_analyzer ~binary:false path with
      | (_ : int) -> Alcotest.fail "register 64 accepted"
      | exception Failure msg ->
        if not (String.starts_with ~prefix:"line 301:" msg) then
          Alcotest.failf "message %S does not name line 301" msg)

(* A pc must fit a non-negative int: analyzers key per-site tables by pc.
   Before the check, a text pc of 2^62 or more parsed to a negative int and
   a binary pc lost its top bit. *)
let test_trace_io_line_pc_range () =
  List.iter
    (fun (what, line) -> expect_failure what (fun () -> Trace_io.instr_of_line line))
    [
      ("pc 2^63 - 256", "7fffffffffffff00 load 1 -1 3 40 N 0");
      ("pc 2^62", "4000000000000000 int_alu 1 2 3 0 N 0");
      ("pc 2^63 + 5", "8000000000000005 int_alu 1 2 3 0 N 0");
    ];
  let i = Trace_io.instr_of_line "3fffffffffffffff int_alu 1 2 3 0 N 0" in
  Alcotest.(check int) "largest pc" max_int i.Instr.pc

let test_trace_io_binary_pc_range () =
  List.iter
    (fun (what, pc) ->
      with_corrupted_trace ~binary:true ~n:500 (set_record_pc 300 pc) (fun path ->
          expect_failure what (fun () -> replay_into_analyzer ~binary:true path)))
    [
      ("pc -1", -1L);
      ("pc 2^62", 0x4000_0000_0000_0000L);
      ("pc 2^63 + 5 (once read as 5)", 0x8000_0000_0000_0005L);
    ];
  with_corrupted_trace ~binary:true ~n:500 (set_record_pc 300 (Int64.of_int max_int)) (fun path ->
      let collected, read = Sink.collect ~limit:500 () in
      ignore (Trace_io.replay_binary ~path ~sink:collected : int);
      Alcotest.(check int) "largest pc" max_int (List.nth (read ()) 300).Instr.pc)

(* The CLI turns a replay [Failure] into a message and exit 2, not an
   uncaught exception (cmdliner's exit 125).  The binary is found next to
   this test executable's build directory, so the test runs from any
   working directory. *)
let mica_exe =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "mica.exe")

let run_mica args =
  let err = Filename.temp_file "mica_err" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let code =
        Sys.command (Filename.quote_command mica_exe args ~stdout:Filename.null ~stderr:err)
      in
      (code, In_channel.with_open_text err In_channel.input_all))

let test_characterize_trace_exit_codes () =
  let expect what ~binary corrupt want =
    with_corrupted_trace ~binary ~n:500 corrupt (fun path ->
        let args =
          [ "characterize-trace"; path; "--format"; (if binary then "binary" else "text") ]
        in
        let code, err = run_mica args in
        Alcotest.(check int) (what ^ ": exit code") want code;
        if want <> 0 && String.length err = 0 then Alcotest.failf "%s: no message" what)
  in
  expect "intact binary" ~binary:true Fun.id 0;
  expect "intact text" ~binary:false Fun.id 0;
  expect "bad source register" ~binary:true (set_record_byte 10 25 200) 2;
  expect "truncated record" ~binary:true (fun d -> String.sub d 0 (String.length d - 5)) 2;
  expect "garbage text" ~binary:false (fun d -> d ^ "not a trace line\n") 2;
  expect "negative pc" ~binary:true (set_record_pc_ff 10) 2;
  expect "pc past 2^62" ~binary:false (fun d -> d ^ "7fffffffffffff00 load 1 -1 3 40 N 0\n") 2

let test_trace_io_analysis_equivalence () =
  (* analyzing a replayed trace gives the same characteristics as live *)
  let p = P.single ~name:"trace-io-analysis" K.default in
  let live = Mica_analysis.Analyzer.analyze p ~icount:3_000 in
  let path = Filename.temp_file "mica_trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore (Trace_io.write_binary ~path p ~icount:3_000 : int);
      let analyzer = Mica_analysis.Analyzer.create () in
      ignore (Trace_io.replay_binary ~path ~sink:(Mica_analysis.Analyzer.sink analyzer) : int);
      Alcotest.(check bool) "same vector" true (Mica_analysis.Analyzer.vector analyzer = live))

let suite =
  ( "trace",
    [
      Alcotest.test_case "sink counter" `Quick test_sink_counter;
      Alcotest.test_case "sink fanout" `Quick test_sink_fanout;
      Alcotest.test_case "sink sample" `Quick test_sink_sample;
      Alcotest.test_case "sink sample identity" `Quick test_sink_sample_identity;
      Alcotest.test_case "sink sample invalid" `Quick test_sink_sample_invalid;
      Alcotest.test_case "sink collect" `Quick test_sink_collect;
      Alcotest.test_case "sink collect zero limit" `Quick test_sink_collect_zero_limit;
      Alcotest.test_case "sink collect negative limit" `Quick test_sink_collect_negative_limit;
      Alcotest.test_case "chunk roundtrip" `Quick test_chunk_roundtrip;
      Alcotest.test_case "chunk create invalid" `Quick test_chunk_create_invalid;
      Alcotest.test_case "generator chunk sizes" `Quick test_generator_chunk_sizes;
      Alcotest.test_case "chunking invariance" `Quick test_chunking_invariance;
      Alcotest.test_case "sample across chunks" `Quick test_sink_sample_across_chunks;
      Alcotest.test_case "collect across chunks" `Quick test_sink_collect_across_chunks;
      Alcotest.test_case "kernel validate" `Quick test_kernel_validate;
      Alcotest.test_case "kernel instantiate structure" `Quick test_kernel_instantiate_structure;
      Alcotest.test_case "generator emits the image" `Quick test_generator_emits_image;
      Alcotest.test_case "kernel mix rounding" `Quick test_kernel_mix_rounding;
      Alcotest.test_case "kernel chase self-dependence" `Quick test_kernel_chase_self_dependence;
      Alcotest.test_case "invalid instantiate raises" `Quick test_kernel_invalid_instantiate_raises;
      Alcotest.test_case "program validate" `Quick test_program_validate;
      Alcotest.test_case "program seeds" `Quick test_program_seed_derived_from_name;
      Alcotest.test_case "program kernels" `Quick test_program_kernels;
      Alcotest.test_case "generator exact icount" `Quick test_generator_exact_icount;
      Alcotest.test_case "generator zero icount" `Quick test_generator_zero_icount;
      Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
      Alcotest.test_case "generator name-seeded" `Quick test_generator_different_names_differ;
      Alcotest.test_case "generator rejects invalid" `Quick test_generator_invalid_program;
      Alcotest.test_case "stream well-formed" `Quick test_generator_stream_well_formed;
      Alcotest.test_case "control flow consistent" `Quick test_generator_control_flow_consistent;
      Alcotest.test_case "loop branch pattern" `Quick test_generator_loop_branch_pattern;
      Alcotest.test_case "phase interleaving" `Quick test_generator_phase_interleaving;
      prop_generator_icount;
      Alcotest.test_case "trace io line roundtrip" `Quick test_trace_io_line_roundtrip;
      Alcotest.test_case "trace io bad line" `Quick test_trace_io_bad_line;
      Alcotest.test_case "trace io text file" `Quick test_trace_io_text_file;
      Alcotest.test_case "trace io binary file" `Quick test_trace_io_binary_file;
      Alcotest.test_case "trace io rejects garbage" `Quick test_trace_io_binary_rejects_garbage;
      Alcotest.test_case "trace io analysis equivalence" `Quick test_trace_io_analysis_equivalence;
      Alcotest.test_case "trace io line pc range" `Quick test_trace_io_line_pc_range;
      Alcotest.test_case "trace io binary pc range" `Quick test_trace_io_binary_pc_range;
      Alcotest.test_case "trace io line register range" `Quick test_trace_io_line_register_range;
      Alcotest.test_case "trace io binary register range" `Quick
        test_trace_io_binary_register_range;
      Alcotest.test_case "trace io text register range" `Quick test_trace_io_text_register_range;
      Alcotest.test_case "characterize-trace exit codes" `Quick test_characterize_trace_exit_codes;
    ] )
