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

type t = { inorder : Inorder.t; ooo : Ooo.t }

let create () = { inorder = Inorder.create (); ooo = Ooo.create () }
let sink t = Mica_trace.Sink.fanout [ Inorder.sink t.inorder; Ooo.sink t.ooo ]

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
  Inorder.record_events t.inorder ~model:"ev56";
  Ooo.record_events t.ooo ~model:"ev67";
  let io = Inorder.result t.inorder in
  let oo = Ooo.result t.ooo in
  {
    ipc_ev56 = io.Inorder.ipc;
    branch_mispredict_rate = io.Inorder.branch_mispredict_rate;
    l1d_miss_rate = io.Inorder.l1d_miss_rate;
    l1i_miss_rate = io.Inorder.l1i_miss_rate;
    l2_miss_rate = io.Inorder.l2_miss_rate;
    dtlb_miss_rate = io.Inorder.dtlb_miss_rate;
    ipc_ev67 = oo.Ooo.ipc;
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
