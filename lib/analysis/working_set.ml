module Opcode = Mica_isa.Opcode
module Chunk = Mica_trace.Chunk
module Int_map = Mica_util.Int_map

type result = { data_blocks : int; data_pages : int; instr_blocks : int; instr_pages : int }

(* The unique blocks and pages of one address stream.  [Int_map] used as
   a set: one multiplicative-hash probe per touch, no allocation, no
   boxing.  Block and page numbers are address shifts, so the
   non-negative-key requirement holds and -1 is never a key.  A stream
   remembers the last block and page it recorded: [add_if_absent] is
   idempotent, so a repeat of that key (straight-line code, a sequential
   sweep) skips the probe, and the page is tested only when the block
   changed, since the same 32-byte block lies in the same 4KB page. *)
type stream = {
  blocks : Int_map.t;
  pages : Int_map.t;
  mutable last_block : int;
  mutable last_page : int;
}

let stream ~blocks ~pages =
  {
    blocks = Int_map.create ~initial:blocks ();
    pages = Int_map.create ~initial:pages ();
    last_block = -1;
    last_page = -1;
  }

let touch s addr =
  let block = addr lsr 5 in
  if block <> s.last_block then begin
    s.last_block <- block;
    Int_map.add_if_absent s.blocks block;
    let page = addr lsr 12 in
    if page <> s.last_page then begin
      s.last_page <- page;
      Int_map.add_if_absent s.pages page
    end
  end

type t = { data : stream; instr : stream }

let create () = { data = stream ~blocks:4096 ~pages:256; instr = stream ~blocks:1024 ~pages:64 }

let is_mem_code = Array.init Opcode.count (fun i -> Opcode.is_mem (Opcode.of_int i))

let sink t =
  Mica_trace.Sink.make ~name:"working_set" (fun c ->
      let len = c.Chunk.len in
      let pcs = c.Chunk.pc and ops = c.Chunk.op and addrs = c.Chunk.addr in
      for i = 0 to len - 1 do
        touch t.instr (Array.unsafe_get pcs i);
        if Array.unsafe_get is_mem_code (Array.unsafe_get ops i) then
          touch t.data (Array.unsafe_get addrs i)
      done)

let result t =
  {
    data_blocks = Int_map.length t.data.blocks;
    data_pages = Int_map.length t.data.pages;
    instr_blocks = Int_map.length t.instr.blocks;
    instr_pages = Int_map.length t.instr.pages;
  }

let to_vector r =
  [|
    float_of_int r.data_blocks;
    float_of_int r.data_pages;
    float_of_int r.instr_blocks;
    float_of_int r.instr_pages;
  |]
