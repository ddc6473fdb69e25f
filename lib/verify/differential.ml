module Pipeline = Mica_core.Pipeline
module Dataset = Mica_core.Dataset

type outcome = { law : string; ok : bool; detail : string }

(* Bit-exact float-array comparison; structural compare treats nan = nan,
   which is what we want — both sides computing the same nan is agreement. *)
let first_diff a b =
  if Array.length a <> Array.length b then
    Some (Printf.sprintf "lengths differ: %d vs %d" (Array.length a) (Array.length b))
  else begin
    let out = ref None in
    Array.iteri
      (fun i x ->
        if !out = None && compare x b.(i) <> 0 then
          out := Some (Printf.sprintf "index %d: %.17g vs %.17g" i x b.(i)))
      a;
    !out
  end

let seed_determinism program ~icount =
  let v1 = Mica_analysis.Analyzer.analyze program ~icount in
  let v2 = Mica_analysis.Analyzer.analyze program ~icount in
  match first_diff v1 v2 with
  | None ->
    {
      law = "seed-determinism";
      ok = true;
      detail = Printf.sprintf "%s: two runs at icount %d identical" program.Mica_trace.Program.name icount;
    }
  | Some d ->
    { law = "seed-determinism";
      ok = false;
      detail = Printf.sprintf "%s: %s" program.Mica_trace.Program.name d }

let prefix_law program ~n ~m =
  if n <= 0 || n > m then invalid_arg "Differential.prefix_law: need 0 < n <= m";
  let direct = Mica_analysis.Analyzer.analyze program ~icount:n in
  let collector, read = Mica_trace.Sink.collect ~limit:n () in
  let (_ : int) = Mica_trace.Generator.run program ~icount:m ~sink:collector in
  let analyzer = Mica_analysis.Analyzer.create () in
  let sink = Mica_analysis.Analyzer.sink analyzer in
  Mica_trace.Sink.feed_list sink (read ());
  match first_diff direct (Mica_analysis.Analyzer.vector analyzer) with
  | None ->
    {
      law = "prefix";
      ok = true;
      detail =
        Printf.sprintf "%s: icount %d equals first %d of %d" program.Mica_trace.Program.name n n m;
    }
  | Some d ->
    { law = "prefix";
      ok = false;
      detail = Printf.sprintf "%s: %s" program.Mica_trace.Program.name d }

let dataset_diff (a : Dataset.t) (b : Dataset.t) =
  if a.Dataset.names <> b.Dataset.names then Some "row labels differ"
  else if a.Dataset.features <> b.Dataset.features then Some "feature labels differ"
  else begin
    let out = ref None in
    Array.iteri
      (fun i row ->
        if !out = None then
          match first_diff row b.Dataset.data.(i) with
          | Some d -> out := Some (Printf.sprintf "row %s: %s" a.Dataset.names.(i) d)
          | None -> ())
      a.Dataset.data;
    !out
  end

let datasets_diff (am, ah) (bm, bh) =
  match dataset_diff am bm with
  | Some d -> Some ("mica " ^ d)
  | None -> (
    match dataset_diff ah bh with Some d -> Some ("hpc " ^ d) | None -> None)

let base_config icount =
  { Pipeline.default_config with Pipeline.icount; cache_dir = None; progress = false }

let jobs_equality ?jobs workloads ~icount =
  (* at least two domains even on small machines, or the law compares a run
     against itself *)
  let jobs =
    match jobs with Some j -> j | None -> max 2 Pipeline.default_config.Pipeline.jobs
  in
  let serial = Pipeline.datasets ~config:{ (base_config icount) with Pipeline.jobs = 1 } workloads in
  let parallel = Pipeline.datasets ~config:{ (base_config icount) with Pipeline.jobs } workloads in
  match datasets_diff serial parallel with
  | None ->
    {
      law = "jobs-equality";
      ok = true;
      detail =
        Printf.sprintf "jobs=1 and jobs=%d identical over %d workloads" jobs
          (List.length workloads);
    }
  | Some d -> { law = "jobs-equality"; ok = false; detail = d }

let fresh_cache_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mica_verify_cache_%d_%d" (Unix.getpid ()) !counter)

let cache_roundtrip workloads ~icount =
  let dir = fresh_cache_dir () in
  Fun.protect
    ~finally:(fun () -> Mica_util.Artifact.remove_tree dir)
    (fun () ->
      let config =
        { (base_config icount) with Pipeline.cache_dir = Some dir; jobs = 1 }
      in
      let computed = Pipeline.datasets ~config workloads in
      let cached = Pipeline.datasets ~config workloads in
      match datasets_diff computed cached with
      | None ->
        {
          law = "cache-roundtrip";
          ok = true;
          detail =
            Printf.sprintf "CSV cache reproduces %d workloads bit-exactly"
              (List.length workloads);
        }
      | Some d -> { law = "cache-roundtrip"; ok = false; detail = d })

let all ?jobs workloads ~icount =
  let per_workload =
    List.concat_map
      (fun (w : Mica_workloads.Workload.t) ->
        [
          seed_determinism w.Mica_workloads.Workload.model ~icount;
          prefix_law w.Mica_workloads.Workload.model ~n:(max 1 (icount / 2)) ~m:icount;
        ])
      workloads
  in
  per_workload @ [ jobs_equality ?jobs workloads ~icount; cache_roundtrip workloads ~icount ]
