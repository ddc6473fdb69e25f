module Instr = Mica_isa.Instr
module Opcode = Mica_isa.Opcode
module Reg = Mica_isa.Reg

(* Analyzers index per-register state by id, so a register below
   [Reg.none] or at or above [Reg.count] is malformed input, never an
   instruction. *)
let valid_reg r = r >= Reg.none && r < Reg.count

(* ---------------- text format ---------------- *)

let opcode_of_string s =
  match List.find_opt (fun op -> Opcode.to_string op = s) Opcode.all with
  | Some op -> op
  | None -> failwith (Printf.sprintf "unknown opcode %S" s)

let instr_to_line (i : Instr.t) =
  Printf.sprintf "%x %s %d %d %d %x %c %x" i.pc (Opcode.to_string i.op) i.src1 i.src2 i.dst
    i.addr
    (if i.taken then 'T' else 'N')
    i.target

let reg_of_string s =
  let r = int_of_string s in
  if valid_reg r then r else failwith (Printf.sprintf "register %d out of range" r)

let instr_of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ pc; op; src1; src2; dst; addr; taken; target ] -> (
    try
      Instr.make
        ~pc:(int_of_string ("0x" ^ pc))
        ~op:(opcode_of_string op) ~src1:(reg_of_string src1) ~src2:(reg_of_string src2)
        ~dst:(reg_of_string dst)
        ~addr:(int_of_string ("0x" ^ addr))
        ~taken:(match taken with "T" -> true | "N" -> false | _ -> failwith "bad taken flag")
        ~target:(int_of_string ("0x" ^ target))
        ()
    with Failure msg -> failwith (Printf.sprintf "malformed trace line %S: %s" line msg))
  | _ -> failwith (Printf.sprintf "malformed trace line %S" line)

let text_sink oc =
  Sink.of_instr_sink ~name:"trace-text-writer" (fun i ->
      output_string oc (instr_to_line i);
      output_char oc '\n')

let replay_text ~path ~sink =
  In_channel.with_open_text path (fun ic ->
      let push, flush = Sink.buffered sink in
      let count = ref 0 in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           if String.trim line <> "" then begin
             (try push (instr_of_line line)
              with Failure msg -> failwith (Printf.sprintf "line %d: %s" !lineno msg));
             incr count
           end
         done
       with End_of_file -> ());
      flush ();
      !count)

(* ---------------- binary format ---------------- *)

let magic = "MICATRC1"
let record_bytes = 28

(* record layout (little endian):
   0  pc      int64
   8  addr    int64
   16 target  int64
   24 op      uint8 (index into Opcode.all)
   25 src1+1  uint8    (+1 so Reg.none = -1 encodes as 0)
   26 src2+1  uint8
   27 dst+1 shifted with taken in the top bit *)

let opcode_index =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i op -> Hashtbl.replace tbl op i) Opcode.all;
  tbl

let opcode_array = Array.of_list Opcode.all

let encode buf (i : Instr.t) =
  Bytes.set_int64_le buf 0 (Int64.of_int i.pc);
  Bytes.set_int64_le buf 8 (Int64.of_int i.addr);
  Bytes.set_int64_le buf 16 (Int64.of_int i.target);
  Bytes.set_uint8 buf 24 (Hashtbl.find opcode_index i.op);
  Bytes.set_uint8 buf 25 (i.src1 + 1);
  Bytes.set_uint8 buf 26 (i.src2 + 1);
  Bytes.set_uint8 buf 27 ((i.dst + 1) lor if i.taken then 0x80 else 0)

let decode buf =
  let pc = Int64.to_int (Bytes.get_int64_le buf 0) in
  let addr = Int64.to_int (Bytes.get_int64_le buf 8) in
  let target = Int64.to_int (Bytes.get_int64_le buf 16) in
  let op_idx = Bytes.get_uint8 buf 24 in
  if op_idx >= Array.length opcode_array then failwith "corrupt trace: bad opcode";
  let src1 = Bytes.get_uint8 buf 25 - 1 in
  let src2 = Bytes.get_uint8 buf 26 - 1 in
  let b27 = Bytes.get_uint8 buf 27 in
  let taken = b27 land 0x80 <> 0 in
  let dst = (b27 land 0x7F) - 1 in
  if not (valid_reg src1 && valid_reg src2 && valid_reg dst) then
    failwith "corrupt trace: bad register";
  Instr.make ~pc ~op:opcode_array.(op_idx) ~src1 ~src2 ~dst ~addr ~taken ~target ()

let binary_sink oc =
  output_string oc magic;
  let buf = Bytes.create record_bytes in
  Sink.of_instr_sink ~name:"trace-binary-writer" (fun i ->
      encode buf i;
      output_bytes oc buf)

let replay_binary ~path ~sink =
  In_channel.with_open_bin path (fun ic ->
      let total = Int64.to_int (In_channel.length ic) in
      let header_len = String.length magic in
      if total < header_len then failwith "not a MICA binary trace (too short)";
      let header = really_input_string ic header_len in
      if header <> magic then failwith "not a MICA binary trace (bad magic)";
      let payload = total - header_len in
      if payload mod record_bytes <> 0 then failwith "corrupt trace: truncated record";
      let records = payload / record_bytes in
      let buf = Bytes.create record_bytes in
      let push, flush = Sink.buffered sink in
      for _ = 1 to records do
        (match In_channel.really_input ic buf 0 record_bytes with
        | Some () -> push (decode buf)
        | None -> failwith "corrupt trace: unexpected end of file")
      done;
      flush ();
      records)

let with_out_channel path ~binary f =
  let oc = if binary then open_out_bin path else open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let write_text ~path program ~icount =
  with_out_channel path ~binary:false (fun oc -> Generator.run program ~icount ~sink:(text_sink oc))

let write_binary ~path program ~icount =
  with_out_channel path ~binary:true (fun oc ->
      Generator.run program ~icount ~sink:(binary_sink oc))
