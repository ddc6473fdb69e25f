let names =
  [|
    "IPC (Alpha 21164A, in-order)";
    "branch misprediction rate";
    "L1 D-cache miss rate";
    "L1 I-cache miss rate";
    "L2 cache miss rate";
    "D-TLB miss rate";
    "IPC (Alpha 21264A, out-of-order)";
  |]

let short_names = [| "ipc_ev56"; "br_miss"; "l1d_miss"; "l1i_miss"; "l2_miss"; "dtlb_miss"; "ipc_ev67" |]
let count = Array.length names

let ev56 () = List.hd (Machine_desc.presets ())
let ev67 = Machine_desc.paper_ev67

type t = { ev56 : Machine.t; ev67 : Machine.t }

let create () =
  { ev56 = Machine.create ~model:"ev56" (ev56 ()); ev67 = Machine.create ~model:"ev67" (ev67 ()) }

let sink t = Mica_trace.Sink.fanout [ Machine.sink t.ev56; Machine.sink t.ev67 ]

type result = {
  ipc_ev56 : float;
  branch_mispredict_rate : float;
  l1d_miss_rate : float;
  l1i_miss_rate : float;
  l2_miss_rate : float;
  dtlb_miss_rate : float;
  ipc_ev67 : float;
}

let result t =
  let io = Machine.result t.ev56 in
  let oo = Machine.result t.ev67 in
  {
    ipc_ev56 = io.Machine.ipc;
    branch_mispredict_rate = io.Machine.branch_mispredict_rate;
    l1d_miss_rate = io.Machine.l1d_miss_rate;
    l1i_miss_rate = io.Machine.l1i_miss_rate;
    l2_miss_rate = io.Machine.l2_miss_rate;
    dtlb_miss_rate = io.Machine.dtlb_miss_rate;
    ipc_ev67 = oo.Machine.ipc;
  }

let to_vector r =
  [|
    r.ipc_ev56;
    r.branch_mispredict_rate;
    r.l1d_miss_rate;
    r.l1i_miss_rate;
    r.l2_miss_rate;
    r.dtlb_miss_rate;
    r.ipc_ev67;
  |]

let measure program ~icount =
  let t = create () in
  let (_ : int) = Mica_trace.Generator.run program ~icount ~sink:(sink t) in
  result t
