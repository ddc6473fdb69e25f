(* Shared helpers for the test suites. *)

module Instr = Mica_isa.Instr
module Opcode = Mica_isa.Opcode

(* The committed baseline datasets, from the test directory (dune runtest)
   or from the repository root. *)
let baseline_file name =
  let rel = "results/baseline/" ^ name in
  if Sys.file_exists ("../" ^ rel) then "../" ^ rel else rel

let baseline_csv = baseline_file "mica_dataset.csv"
let baseline_hpc_csv = baseline_file "hpc_dataset.csv"

(* [f dir] on a fresh temp directory, removed with everything in it after. *)
let with_temp_dir f =
  let dir = Filename.temp_file "mica_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> Mica_util.Artifact.remove_tree dir) (fun () -> f dir)

let feq = Alcotest.float 1e-9
let feq_loose = Alcotest.float 1e-6

(* Feed a list of instructions to a sink, in order (chunked transport
   underneath; a small capacity would exercise chunk boundaries). *)
let run_sink ?capacity sink instrs = Mica_trace.Sink.feed_list ?capacity sink instrs

(* Feed instructions one at a time: each becomes its own single-element
   chunk, for tests that interleave feeding with observing sink state. *)
let push_one sink ins = Mica_trace.Sink.feed_list ~capacity:1 sink [ ins ]

(* Instruction constructors with compact names for hand-built traces. *)
let alu ?(pc = 0x1000) ?(src1 = -1) ?(src2 = -1) ?(dst = -1) () =
  Instr.make ~pc ~op:Opcode.Int_alu ~src1 ~src2 ~dst ()

let load ?(pc = 0x1000) ?(src1 = -1) ~dst ~addr () =
  Instr.make ~pc ~op:Opcode.Load ~src1 ~dst ~addr ()

let store ?(pc = 0x1000) ?(src1 = -1) ?(src2 = -1) ~addr () =
  Instr.make ~pc ~op:Opcode.Store ~src1 ~src2 ~addr ()

let branch ?(pc = 0x1000) ?(src1 = -1) ~taken ?(target = 0x2000) () =
  Instr.make ~pc ~op:Opcode.Branch ~src1 ~taken ~target ()

let fp ?(pc = 0x1000) ?(src1 = -1) ?(src2 = -1) ?(dst = -1) () =
  Instr.make ~pc ~op:Opcode.Fp_add ~src1 ~src2 ~dst ()

(* A compiled-in preset machine by name. *)
let preset name =
  List.find
    (fun (c : Mica_uarch.Machine.config) -> c.Mica_uarch.Machine.name = name)
    (Mica_uarch.Machine_desc.presets ())

(* A small deterministic workload program for integration tests. *)
let tiny_program name =
  Mica_trace.Program.single ~name { Mica_trace.Kernel.default with Mica_trace.Kernel.name }

let qcheck_case ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)
