module Opcode = Mica_isa.Opcode
module Instr = Mica_isa.Instr

type t = {
  capacity : int;
  mutable len : int;
  pc : int array;
  op : int array;
  src1 : int array;
  src2 : int array;
  dst : int array;
  addr : int array;
  target : int array;
  taken : Bytes.t;
}

let default_capacity = 4096

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Chunk.create: capacity must be positive";
  {
    capacity;
    len = 0;
    pc = Array.make capacity 0;
    op = Array.make capacity 0;
    src1 = Array.make capacity 0;
    src2 = Array.make capacity 0;
    dst = Array.make capacity 0;
    addr = Array.make capacity 0;
    target = Array.make capacity 0;
    taken = Bytes.make capacity '\000';
  }

let length c = c.len
let is_full c = c.len = c.capacity
let clear c = c.len <- 0

let taken c i = Bytes.get c.taken i <> '\000'

let get c i : Instr.t =
  if i < 0 || i >= c.len then invalid_arg "Chunk.get: index out of bounds";
  {
    pc = Array.unsafe_get c.pc i;
    op = Opcode.of_int (Array.unsafe_get c.op i);
    src1 = Array.unsafe_get c.src1 i;
    src2 = Array.unsafe_get c.src2 i;
    dst = Array.unsafe_get c.dst i;
    addr = Array.unsafe_get c.addr i;
    taken = Bytes.unsafe_get c.taken i <> '\000';
    target = Array.unsafe_get c.target i;
  }

let push c (ins : Instr.t) =
  if c.len >= c.capacity then invalid_arg "Chunk.push: chunk is full";
  let i = c.len in
  Array.unsafe_set c.pc i ins.pc;
  Array.unsafe_set c.op i (Opcode.to_int ins.op);
  Array.unsafe_set c.src1 i ins.src1;
  Array.unsafe_set c.src2 i ins.src2;
  Array.unsafe_set c.dst i ins.dst;
  Array.unsafe_set c.addr i ins.addr;
  Array.unsafe_set c.target i ins.target;
  Bytes.unsafe_set c.taken i (if ins.taken then '\001' else '\000');
  c.len <- i + 1

let append src i dst =
  if i < 0 || i >= src.len then invalid_arg "Chunk.append: index out of bounds";
  if dst.len >= dst.capacity then invalid_arg "Chunk.append: destination is full";
  let j = dst.len in
  Array.unsafe_set dst.pc j (Array.unsafe_get src.pc i);
  Array.unsafe_set dst.op j (Array.unsafe_get src.op i);
  Array.unsafe_set dst.src1 j (Array.unsafe_get src.src1 i);
  Array.unsafe_set dst.src2 j (Array.unsafe_get src.src2 i);
  Array.unsafe_set dst.dst j (Array.unsafe_get src.dst i);
  Array.unsafe_set dst.addr j (Array.unsafe_get src.addr i);
  Array.unsafe_set dst.target j (Array.unsafe_get src.target i);
  Bytes.unsafe_set dst.taken j (Bytes.unsafe_get src.taken i);
  dst.len <- j + 1

let to_list c =
  let acc = ref [] in
  for i = c.len - 1 downto 0 do
    acc := get c i :: !acc
  done;
  !acc
