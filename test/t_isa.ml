module Opcode = Mica_isa.Opcode
module Reg = Mica_isa.Reg
module Instr = Mica_isa.Instr

let test_opcode_classes () =
  Alcotest.(check bool) "load is mem" true (Opcode.is_mem Opcode.Load);
  Alcotest.(check bool) "store is mem" true (Opcode.is_mem Opcode.Store);
  Alcotest.(check bool) "alu not mem" false (Opcode.is_mem Opcode.Int_alu);
  Alcotest.(check bool) "branch is control" true (Opcode.is_control Opcode.Branch);
  Alcotest.(check bool) "call is control" true (Opcode.is_control Opcode.Call);
  Alcotest.(check bool) "return is control" true (Opcode.is_control Opcode.Return);
  Alcotest.(check bool) "only branch is cond" true (Opcode.is_cond_branch Opcode.Branch);
  Alcotest.(check bool) "jump not cond" false (Opcode.is_cond_branch Opcode.Jump);
  Alcotest.(check bool) "fp_mul is fp" true (Opcode.is_fp Opcode.Fp_mul);
  Alcotest.(check bool) "int_mul not fp" false (Opcode.is_fp Opcode.Int_mul)

let test_opcode_exhaustive_classification () =
  (* every opcode belongs to at most one of the mem/control/fp partitions *)
  List.iter
    (fun op ->
      let groups =
        [ Opcode.is_mem op; Opcode.is_control op; Opcode.is_fp op;
          Opcode.is_int_alu op; Opcode.is_int_mul op ]
      in
      let hits = List.length (List.filter Fun.id groups) in
      if hits > 1 then
        Alcotest.failf "opcode %s in %d classes" (Opcode.to_string op) hits)
    Opcode.all

let test_latencies_positive () =
  List.iter
    (fun op ->
      if Opcode.latency op < 1 then
        Alcotest.failf "latency of %s < 1" (Opcode.to_string op))
    Opcode.all;
  Alcotest.(check bool) "div slower than add" true
    (Opcode.latency Opcode.Fp_div > Opcode.latency Opcode.Fp_add)

let test_reg_helpers () =
  Alcotest.(check bool) "none" true (Reg.is_none Reg.none);
  Alcotest.(check bool) "f0 is fp" true (Reg.is_fp Reg.fp_base);
  Alcotest.(check bool) "r31 carries no dependency" false (Reg.carries_dependency Reg.zero);
  Alcotest.(check bool) "r5 carries dependency" true (Reg.carries_dependency 5);
  Alcotest.(check bool) "none carries no dependency" false (Reg.carries_dependency Reg.none);
  Alcotest.(check string) "int name" "r4" (Reg.to_string 4);
  Alcotest.(check string) "fp name" "f2" (Reg.to_string (Reg.fp_base + 2));
  Alcotest.(check string) "none name" "-" (Reg.to_string Reg.none);
  Alcotest.(check int) "64 registers" 64 Reg.count

let test_instr_next_pc () =
  let i = Tutil.alu ~pc:0x100 () in
  Alcotest.(check int) "sequential" 0x104 (Instr.next_pc i);
  let b_taken = Tutil.branch ~pc:0x100 ~taken:true ~target:0x500 () in
  Alcotest.(check int) "taken branch" 0x500 (Instr.next_pc b_taken);
  let b_not = Tutil.branch ~pc:0x100 ~taken:false ~target:0x500 () in
  Alcotest.(check int) "not-taken branch" 0x104 (Instr.next_pc b_not)

let test_instr_source_count () =
  Alcotest.(check int) "no sources" 0 (Instr.source_count (Tutil.alu ()));
  Alcotest.(check int) "one source" 1 (Instr.source_count (Tutil.alu ~src1:3 ()));
  Alcotest.(check int) "two sources" 2 (Instr.source_count (Tutil.alu ~src1:3 ~src2:4 ()))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_instr_to_string () =
  let s = Instr.to_string (Tutil.load ~pc:0x40 ~src1:1 ~dst:2 ~addr:0xbeef ()) in
  Alcotest.(check bool) "mentions opcode" true (contains s "load");
  Alcotest.(check bool) "mentions address" true (contains s "beef");
  let b = Instr.to_string (Tutil.branch ~pc:0x40 ~taken:true ~target:0x80 ()) in
  Alcotest.(check bool) "taken marker" true (contains b "T->")

let suite =
  ( "isa",
    [
      Alcotest.test_case "opcode classes" `Quick test_opcode_classes;
      Alcotest.test_case "classification partition" `Quick test_opcode_exhaustive_classification;
      Alcotest.test_case "latencies" `Quick test_latencies_positive;
      Alcotest.test_case "registers" `Quick test_reg_helpers;
      Alcotest.test_case "next_pc" `Quick test_instr_next_pc;
      Alcotest.test_case "source_count" `Quick test_instr_source_count;
      Alcotest.test_case "to_string" `Quick test_instr_to_string;
    ] )
