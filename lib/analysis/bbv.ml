module Opcode = Mica_isa.Opcode
module Chunk = Mica_trace.Chunk
module Rng = Mica_util.Rng

type t = {
  interval : int;
  mutable current : (int, int) Hashtbl.t;  (* block entry pc -> executions *)
  mutable in_interval : int;
  mutable finished : (int, int) Hashtbl.t list;  (* reverse order *)
  mutable at_block_start : bool;
  mutable finalized : bool;
}

let create ?(interval = 10_000) () =
  if interval <= 0 then invalid_arg "Bbv.create: interval must be positive";
  {
    interval;
    current = Hashtbl.create 256;
    in_interval = 0;
    finished = [];
    at_block_start = true;
    finalized = false;
  }

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let close_interval t =
  t.finished <- t.current :: t.finished;
  t.current <- Hashtbl.create 256;
  t.in_interval <- 0

let is_control_code = Array.init Opcode.count (fun i -> Opcode.is_control (Opcode.of_int i))

let sink t =
  Mica_trace.Sink.make ~name:"bbv" (fun c ->
      let len = c.Chunk.len in
      let pcs = c.Chunk.pc and ops = c.Chunk.op in
      for i = 0 to len - 1 do
        if t.at_block_start then begin
          bump t.current (Array.unsafe_get pcs i);
          t.at_block_start <- false
        end;
        (* a control transfer ends the current block; the next instruction
           starts a new one whether or not the transfer was taken *)
        if Array.unsafe_get is_control_code (Array.unsafe_get ops i) then
          t.at_block_start <- true;
        t.in_interval <- t.in_interval + 1;
        if t.in_interval >= t.interval then close_interval t
      done)

(* Flush the current partial interval (if at least half full); every
   accessor calls it. *)
let finalize t =
  if not t.finalized then begin
    if t.in_interval >= t.interval / 2 then close_interval t;
    t.finalized <- true
  end

let intervals_list t =
  finalize t;
  List.rev t.finished

let block_ids t =
  let union = Hashtbl.create 1024 in
  List.iter
    (fun tbl -> Hashtbl.iter (fun pc _ -> Hashtbl.replace union pc ()) tbl)
    (intervals_list t);
  let ids = Array.of_seq (Hashtbl.to_seq_keys union) in
  Array.sort compare ids;
  ids

let matrix t =
  let ids = block_ids t in
  let index = Hashtbl.create (Array.length ids) in
  Array.iteri (fun i pc -> Hashtbl.replace index pc i) ids;
  List.map
    (fun tbl ->
      let row = Array.make (Array.length ids) 0.0 in
      let total = Hashtbl.fold (fun _ c acc -> acc + c) tbl 0 in
      Hashtbl.iter
        (fun pc c ->
          row.(Hashtbl.find index pc) <-
            (if total > 0 then float_of_int c /. float_of_int total else 0.0))
        tbl;
      row)
    (intervals_list t)
  |> Array.of_list

let projected ?(dims = 15) ?(seed = 0xBB5L) t =
  let m = matrix t in
  let cols = if Array.length m = 0 then 0 else Array.length m.(0) in
  let rng = Rng.create ~seed in
  (* fixed random projection matrix, entries uniform in [-1, 1) *)
  let proj =
    Array.init cols (fun _ -> Array.init dims (fun _ -> Rng.float rng 2.0 -. 1.0))
  in
  Array.map
    (fun row ->
      let out = Array.make dims 0.0 in
      Array.iteri
        (fun c v ->
          if v <> 0.0 then
            for d = 0 to dims - 1 do
              out.(d) <- out.(d) +. (v *. proj.(c).(d))
            done)
        row;
      out)
    m
