module Machine = Mica_uarch.Machine
module W = Mica_workloads
module Pool = Mica_util.Pool
module Stats = Mica_stats

type t = {
  machine_names : string array;
  metric_names : string array;
  workload_ids : string array;
  matrix : float array array;
  icount : int;
}

(* ["<machine>.<metric>"], machine-major, matching [matrix] columns. *)
let column_names t =
  Array.concat
    (Array.to_list
       (Array.map
          (fun m -> Array.map (fun metric -> m ^ "." ^ metric) t.metric_names)
          t.machine_names))

let check_configs configs =
  if configs = [] then invalid_arg "Fleet.characterize: no machine configs";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (c : Machine.config) ->
      if Hashtbl.mem seen c.Machine.name then
        invalid_arg ("Fleet.characterize: duplicate machine name " ^ c.Machine.name);
      Hashtbl.add seen c.Machine.name ())
    configs

let assemble ~configs ~icount ~workloads rows =
  let n_metrics = Array.length Machine.metric_names in
  let n_machines = List.length configs in
  let matrix =
    Array.map
      (fun vecs ->
        let row = Array.make (n_machines * n_metrics) 0.0 in
        List.iteri (fun m v -> Array.blit v 0 row (m * n_metrics) n_metrics) vecs;
        row)
      rows
  in
  {
    machine_names = Array.of_list (List.map (fun (c : Machine.config) -> c.Machine.name) configs);
    metric_names = Array.copy Machine.metric_names;
    workload_ids = Array.map W.Workload.id workloads;
    matrix;
    icount;
  }

let characterize ?jobs ~configs ~icount workloads =
  check_configs configs;
  let ws = Array.of_list workloads in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  (* One generated trace per workload, fanned out to every machine model in
     a single pass; workloads are characterized pool-parallel.  Each index
     is pure and writes only its own slot, so the result is bit-identical
     at any [jobs]. *)
  let rows =
    Pool.using ~jobs (fun pool ->
        Pool.map pool (Array.length ws)
          (fun i ->
            Machine.measure_all configs ws.(i).W.Workload.model ~icount
            |> List.map Machine.to_vector))
  in
  assemble ~configs ~icount ~workloads:ws rows

let characterize_n_pass ~configs ~icount workloads =
  check_configs configs;
  let ws = Array.of_list workloads in
  (* One full pass over the corpus per machine: regenerates every
     workload's trace N times.  The fanout path must match this
     bit-for-bit; it exists as the differential oracle and bench
     baseline. *)
  let per_machine =
    List.map
      (fun cfg ->
        Array.map (fun (w : W.Workload.t) ->
            Machine.to_vector (Machine.measure cfg w.W.Workload.model ~icount))
          ws)
      configs
  in
  let rows =
    Array.init (Array.length ws) (fun i -> List.map (fun col -> col.(i)) per_machine)
  in
  assemble ~configs ~icount ~workloads:ws rows

let to_table t =
  { Mica_run.Run_dir.row_names = t.workload_ids; columns = column_names t; cells = t.matrix }

let machine_dataset t m =
  let n_metrics = Array.length t.metric_names in
  let data =
    Array.map (fun row -> Array.sub row (m * n_metrics) n_metrics) t.matrix
  in
  Dataset.create ~names:t.workload_ids ~features:t.metric_names data

type report_row = { machine : string; mica_corr : float; hpc_corr : float option }

type report = {
  rows : report_row list;
  cross : (string * string * float) list;
  spaces : (string * Space.t) list;
}

let report ?(mica : Space.t option) ?(hpc : Space.t option) t =
  let spaces =
    Array.to_list
      (Array.mapi
         (fun m name -> (name, Space.of_dataset (machine_dataset t m)))
         t.machine_names)
  in
  let corr a b = Stats.Correlation.pearson a.Space.distances b.Space.distances in
  let rows =
    List.map
      (fun (name, s) ->
        {
          machine = name;
          mica_corr = (match mica with Some ms -> corr s ms | None -> nan);
          hpc_corr = Option.map (fun hs -> corr s hs) hpc;
        })
      spaces
  in
  let cross =
    List.concat_map
      (fun (a, sa) ->
        List.filter_map
          (fun (b, sb) -> if a < b then Some (a, b, corr sa sb) else None)
          spaces)
      spaces
  in
  { rows; cross; spaces }

let transfer r =
  let distances name = (List.assoc name r.spaces).Space.distances in
  List.map
    (fun (a, b, _) ->
      (a, b, Classify.classify ~hpc_distances:(distances a) ~mica_distances:(distances b) ()))
    r.cross

let render_report r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "fleet counter spaces vs the microarchitecture-independent space\n\n";
  Buffer.add_string buf
    (Printf.sprintf "%-14s %10s %10s\n" "machine" "mica_corr" "hpc_corr");
  List.iter
    (fun row ->
      Buffer.add_string buf
        (Printf.sprintf "%-14s %10.3f %10s\n" row.machine row.mica_corr
           (match row.hpc_corr with Some c -> Printf.sprintf "%10.3f" c | None -> "-")))
    r.rows;
  Buffer.add_string buf "\ndistance correlation between machine counter spaces:\n";
  List.iter
    (fun (a, b, c) ->
      Buffer.add_string buf (Printf.sprintf "  %-14s vs %-14s %7.3f\n" a b c))
    r.cross;
  Buffer.contents buf

let render_transfer r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "cross-machine stability of counter-based similarity\n\n";
  Buffer.add_string buf "distance correlation between machine counter spaces:\n";
  List.iter
    (fun (a, b, c) -> Buffer.add_string buf (Printf.sprintf "  %-10s vs %-10s  %6.3f\n" a b c))
    r.cross;
  Buffer.add_string buf "\ndistance correlation of each machine space with the MICA space:\n";
  List.iter
    (fun row -> Buffer.add_string buf (Printf.sprintf "  %-10s %6.3f\n" row.machine row.mica_corr))
    r.rows;
  Buffer.add_string buf
    "\ntransfer of similarity verdicts between machines (20% thresholds):\n";
  List.iter
    (fun (a, b, counts) ->
      let f = Classify.fractions counts in
      Buffer.add_string buf
        (Printf.sprintf
           "  %s -> %s: %4.1f%% of pairs change verdict (%4.1f%% similar-on-%s-only, %4.1f%% \
            similar-on-%s-only)\n"
           a b
           (100.0 *. (f.Classify.f_false_pos +. f.Classify.f_false_neg))
           (100.0 *. f.Classify.f_false_pos) a (100.0 *. f.Classify.f_false_neg) b))
    (transfer r);
  Buffer.add_string buf
    "\n(the MICA space is microarchitecture-independent by construction: the same\n\
     vectors describe the workloads on every machine)\n";
  Buffer.contents buf
