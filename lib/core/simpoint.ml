module W = Mica_workloads
module U = Mica_uarch

type interval_ipc = { instructions : int; cycles : int }

type t = {
  phases : Phases.t;
  interval_results : interval_ipc array;
  true_ipc : float;
  estimated_ipc : float;
  error : float;
}

(* Per-interval machine results come from one warm simulation: the EV56
   model's instruction and cycle counts are read at every interval
   boundary.  A chunked fanout of model and sampler would let the model
   run a whole chunk ahead of the sampler, so each chunk is fed to the
   model in pieces that end at interval boundaries. *)
let per_interval_ipc program ~icount ~interval =
  let model = U.Machine.create (U.Hw_counters.ev56 ()) in
  let boundaries = ref [] in
  let filled = ref 0 in  (* instructions of the current interval *)
  let sink =
    Mica_trace.Sink.make ~name:"interval-sampler" (fun c ->
        let pos = ref 0 in
        while !pos < c.Mica_trace.Chunk.len do
          let len = min (c.Mica_trace.Chunk.len - !pos) (interval - !filled) in
          U.Machine.feed model c ~pos:!pos ~len;
          pos := !pos + len;
          filled := !filled + len;
          if !filled = interval then begin
            filled := 0;
            boundaries := (U.Machine.instructions model, U.Machine.cycles model) :: !boundaries
          end
        done)
  in
  let (_ : int) = Mica_trace.Generator.run program ~icount ~sink in
  let cumulative = Array.of_list (List.rev !boundaries) in
  let intervals =
    Array.mapi
      (fun i (instrs, cycles) ->
        let prev_i, prev_c = if i = 0 then (0, 0) else cumulative.(i - 1) in
        { instructions = instrs - prev_i; cycles = cycles - prev_c })
      cumulative
  in
  (intervals, float_of_int (U.Machine.instructions model) /. float_of_int (U.Machine.cycles model))

let validate ?(interval = 10_000) (w : W.Workload.t) ~icount =
  (* the machine sampler closes no partial interval, while phase analysis
     keeps a trailing half one: with no whole interval the two share none *)
  if interval > icount then
    invalid_arg
      (Printf.sprintf "Simpoint.validate: interval %d is longer than the trace (%d instructions)"
         interval icount);
  let phases = Phases.analyze ~interval w.W.Workload.model ~icount in
  let interval_results, true_ipc = per_interval_ipc w.W.Workload.model ~icount ~interval in
  (* phase analysis and machine sampling may disagree by one trailing
     partial interval; align on the shorter *)
  let n = min (Array.length phases.Phases.assignments) (Array.length interval_results) in
  let cpi_of i =
    let r = interval_results.(i) in
    if r.instructions = 0 then 0.0 else float_of_int r.cycles /. float_of_int r.instructions
  in
  (* weight = share of instructions belonging to each phase (within the
     aligned prefix) *)
  let k = phases.Phases.k in
  let instr_per_phase = Array.make k 0 in
  for i = 0 to n - 1 do
    let p = phases.Phases.assignments.(i) in
    instr_per_phase.(p) <- instr_per_phase.(p) + interval_results.(i).instructions
  done;
  let total_instrs = Array.fold_left ( + ) 0 instr_per_phase in
  let estimated_cpi = ref 0.0 in
  for p = 0 to k - 1 do
    let rep = phases.Phases.representatives.(p) in
    if rep >= 0 && rep < n && total_instrs > 0 then
      estimated_cpi :=
        !estimated_cpi
        +. (float_of_int instr_per_phase.(p) /. float_of_int total_instrs *. cpi_of rep)
  done;
  let estimated_ipc = if !estimated_cpi > 0.0 then 1.0 /. !estimated_cpi else 0.0 in
  {
    phases;
    interval_results;
    true_ipc;
    estimated_ipc;
    error = (if true_ipc > 0.0 then Float.abs (estimated_ipc -. true_ipc) /. true_ipc else 0.0);
  }

let validate_many ?interval workloads ~icount =
  List.map (fun w -> (W.Workload.id w, validate ?interval w ~icount)) workloads

let render results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "SimPoint validation: phase-weighted representative IPC vs whole-trace IPC\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-40s %7s %9s %9s %7s\n" "workload" "phases" "true IPC" "est. IPC"
       "error");
  List.iter
    (fun (id, t) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-40s %7d %9.3f %9.3f %6.1f%%\n" id t.phases.Phases.k t.true_ipc
           t.estimated_ipc (100.0 *. t.error)))
    results;
  let errors = Array.of_list (List.map (fun (_, t) -> t.error) results) in
  if Array.length errors > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  mean error %.1f%%, max %.1f%%\n"
         (100.0 *. Mica_stats.Descriptive.mean errors)
         (100.0 *. snd (Mica_stats.Descriptive.min_max errors)));
  Buffer.contents buf
