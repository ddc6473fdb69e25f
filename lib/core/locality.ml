module W = Mica_workloads
module A = Mica_analysis

type row = {
  id : string;
  suite : W.Suite.t;
  mean_log2_distance : float;
  cold_fraction : float;
}

type suite_summary = { s_suite : W.Suite.t; s_mean : float; s_min : float; s_max : float }

type result = { rows : row list; suites : suite_summary list }

let measure_workload (w : W.Workload.t) ~icount =
  let reuse = A.Reuse.create () in
  let (_ : int) = Mica_trace.Generator.run w.W.Workload.model ~icount ~sink:(A.Reuse.sink reuse) in
  reuse

let run (ctx : Experiments.Context.t) =
  let icount = ctx.Experiments.Context.config.Pipeline.icount in
  let rows =
    List.map
      (fun (w : W.Workload.t) ->
        let reuse = measure_workload w ~icount in
        let accesses = A.Reuse.accesses reuse in
        {
          id = W.Workload.id w;
          suite = w.W.Workload.suite;
          mean_log2_distance = A.Reuse.mean_log2 reuse;
          cold_fraction =
            (if accesses = 0 then 0.0
             else float_of_int (A.Reuse.cold_misses reuse) /. float_of_int accesses);
        })
      ctx.Experiments.Context.workloads
  in
  let suites =
    List.filter_map
      (fun suite ->
        let members = List.filter (fun r -> r.suite = suite) rows in
        match members with
        | [] -> None
        | _ ->
          let values = Array.of_list (List.map (fun r -> r.mean_log2_distance) members) in
          let lo, hi = Mica_stats.Descriptive.min_max values in
          Some
            { s_suite = suite; s_mean = Mica_stats.Descriptive.mean values; s_min = lo; s_max = hi })
      W.Suite.all
  in
  let rows = List.sort (fun a b -> compare b.mean_log2_distance a.mean_log2_distance) rows in
  { rows; suites }

let capacities = [| 64; 256; 1024; 4096; 16384; 65536 |]

let miss_curve w ~icount =
  let reuse = measure_workload w ~icount in
  Array.map (fun c -> (c, A.Reuse.miss_rate_for_capacity reuse ~blocks:c)) capacities

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "temporal data locality per suite (mean log2 reuse distance)\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-22s %8s %8s %8s\n" "suite" "mean" "min" "max");
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  %-22s %8.2f %8.2f %8.2f\n" (W.Suite.name s.s_suite) s.s_mean s.s_min
           s.s_max))
    r.suites;
  Buffer.add_string buf "\npoorest temporal locality (top 8 benchmarks):\n";
  List.iteri
    (fun i row ->
      if i < 8 then
        Buffer.add_string buf
          (Printf.sprintf "  %-45s %6.2f (cold %4.1f%%)\n" row.id row.mean_log2_distance
             (100.0 *. row.cold_fraction)))
    r.rows;
  Buffer.add_string buf "\nbest temporal locality (bottom 4):\n";
  let n = List.length r.rows in
  List.iteri
    (fun i row ->
      if i >= n - 4 then
        Buffer.add_string buf
          (Printf.sprintf "  %-45s %6.2f (cold %4.1f%%)\n" row.id row.mean_log2_distance
             (100.0 *. row.cold_fraction)))
    r.rows;
  Buffer.contents buf
