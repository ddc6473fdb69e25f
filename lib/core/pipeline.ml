module Workload = Mica_workloads.Workload
module Fault = Mica_util.Fault
module Artifact = Mica_util.Artifact
module Csv = Mica_util.Csv
module Obs = Mica_obs.Obs

let m_cache_hits = Obs.counter "cache.hits"
let m_cache_misses = Obs.counter "cache.misses"
let m_cache_quarantined = Obs.counter "cache.quarantined"
let m_cache_resumed = Obs.counter "cache.resumed"
let m_workloads = Obs.counter "pipeline.workloads"

type run_sink = {
  run_root : string;
  run_tag : string;
  run_seeds : (string * string) list;
}

type config = {
  icount : int;
  ppm_order : int;
  cache_dir : string option;
  progress : bool;
  jobs : int;
  retries : int;
  run : run_sink option;
  sketch : int option;
  cancel : (unit -> bool) option;
}

let default_config =
  {
    icount = 200_000;
    ppm_order = 8;
    cache_dir = Some "results/cache";
    progress = false;
    jobs = Mica_util.Pool.default_jobs ();
    retries = 2;
    run = None;
    sketch = None;
    cancel = None;
  }

exception Cancelled

let model_version = "v3"

let characterize config w =
  Obs.span "pipeline.characterize" @@ fun () ->
  let counters = Mica_uarch.Hw_counters.create () in
  let mica_sink, mica_vector =
    match config.sketch with
    | None ->
      let analyzer = Mica_analysis.Analyzer.create ~ppm_order:config.ppm_order () in
      (Mica_analysis.Analyzer.sink analyzer, fun () -> Mica_analysis.Analyzer.vector analyzer)
    | Some bytes ->
      let sk =
        Mica_sketch.Sketch.create ~ppm_order:config.ppm_order
          ~plan:(Mica_sketch.Sketch.plan ~bytes ()) ()
      in
      (Mica_sketch.Sketch.sink sk, fun () -> Mica_sketch.Sketch.vector sk)
  in
  let sinks = [ mica_sink; Mica_uarch.Hw_counters.sink counters ] in
  let sinks =
    (* Cooperative cancellation: the check runs once per chunk (every
       [Chunk.capacity] instructions), first in the fanout so no analyzer
       consumes a chunk the deadline already forbids.  Abandoning a trace
       mid-stream is safe — analyzer state is per-call and discarded. *)
    match config.cancel with
    | None -> sinks
    | Some cancelled ->
      Mica_trace.Sink.make ~name:"cancel" (fun _chunk -> if cancelled () then raise Cancelled)
      :: sinks
  in
  let sink = Mica_trace.Sink.fanout sinks in
  (match config.cancel with
  | Some cancelled when cancelled () -> raise Cancelled
  | _ -> ());
  let (_ : int) = Mica_trace.Generator.run w.Workload.model ~icount:config.icount ~sink in
  (mica_vector (), Mica_uarch.Hw_counters.to_vector (Mica_uarch.Hw_counters.result counters))

let cache_path config kind =
  Option.map
    (fun dir -> Filename.concat dir (Printf.sprintf "%s-%s-%d.csv" kind model_version config.icount))
    config.cache_dir

(* ---------------- crash-safe file commits ----------------

   Cache and checkpoint files are committed through [Artifact.write]
   (temp file + rename) under an [Artifact.frame] checksum header:
   [#mica-cache <version> md5:<hex>] over the CSV body.  [load_cache]
   verifies it and quarantines (renames aside) any file whose body does
   not match its recorded digest, instead of silently consuming a
   half-written or bit-rotted table. *)

let cache_header_prefix = "#mica-cache "

let quarantine path reason =
  Obs.incr m_cache_quarantined;
  let dest = path ^ ".quarantined" in
  (try Sys.rename path dest with Sys_error _ -> ());
  Logs.warn (fun f -> f "cache %s %s; quarantined as %s, rows will be recomputed" path reason dest)

(* The CSV body: rows sorted by name, so two runs over the same workloads
   commit byte-identical files. *)
let cache_body ~features tbl =
  let entries = Hashtbl.fold (fun name row acc -> (name, row) :: acc) tbl [] in
  Csv.table ~columns:features (List.sort (fun (a, _) (b, _) -> compare a b) entries)

let save_cache path ~features tbl =
  Obs.span "cache.save" @@ fun () ->
  Artifact.write path
    (Artifact.frame ~prefix:cache_header_prefix ~version:model_version (cache_body ~features tbl))

(* ---------------- lenient cache loading ----------------

   A cache file is an optimization, never a dependency: this function
   never raises.  Files written by [save_cache] carry a checksum header
   and are quarantined wholesale on mismatch; headerless files (older
   caches, hand-edited tables) fall through to per-row parsing where any
   malformed row — wrong arity, unparsable or non-finite value — discards
   only that entry. *)
let load_cache ~features path =
  Obs.span "cache.load" @@ fun () ->
  let empty () = Hashtbl.create 64 in
  match Artifact.read path with
  | Error Artifact.Missing -> empty ()
  | Error e ->
    Logs.warn (fun f -> f "cache %s %s; recomputing" path (Artifact.describe_error e));
    empty ()
  | Ok contents -> (
      let csv =
        if not (String.starts_with ~prefix:cache_header_prefix contents) then
          Some contents (* legacy headerless cache: parse leniently *)
        else
          match Artifact.unframe ~prefix:cache_header_prefix ~version:model_version contents with
          | Ok body -> Some body
          | Error (Artifact.Foreign_version _) ->
            Logs.warn (fun f -> f "cache %s was written by another model version; ignoring" path);
            None
          | Error _ ->
            quarantine path "failed its content checksum";
            None
      in
      match csv with
      | None -> empty ()
      | Some csv ->
        let arity = Array.length features in
        let tbl = empty () in
        let dropped = ref 0 in
        let parse_row line =
          match Csv.parse_line line with
          | name :: fields when List.length fields = arity -> (
            let row = Array.make arity 0.0 in
            try
              List.iteri
                (fun j s ->
                  match float_of_string_opt s with
                  | Some v when Float.is_finite v -> row.(j) <- v
                  | Some _ | None -> raise Exit)
                fields;
              Hashtbl.replace tbl name row
            with Exit -> incr dropped)
          | "name" :: _ -> () (* feature header (arity checked below) *)
          | _ -> incr dropped
        in
        (match String.split_on_char '\n' csv with
        | [] -> ()
        | header :: body ->
          (* A header with different features means the whole table answers
             a different question (column mismatch): ignore it all. *)
          if Csv.parse_line header = "name" :: Array.to_list features then
            List.iter
              (fun line -> if String.trim line <> "" then parse_row line)
              body
          else
            Logs.warn (fun f -> f "cache %s has a foreign feature header; ignoring" path));
        if !dropped > 0 then
          Logs.warn (fun f -> f "cache %s: discarded %d malformed row(s)" path !dropped);
        tbl)

(* ---------------- cache warm-start / flush ----------------

   The serve daemon fronts the same on-disk caches as the CLI: at startup
   it absorbs every complete row (warm start), and on drain it merges its
   in-memory results back (flush), so served work survives restarts and is
   shared with direct [mica characterize] runs.  Both go through the same
   checksummed load/save as [datasets_report], so a flush commits exactly
   the bytes a direct run would. *)

let warm_cache config =
  match config.cache_dir with
  | None -> []
  | Some _ ->
    let mica_features = Mica_analysis.Characteristics.short_names in
    let hpc_features = Mica_uarch.Hw_counters.short_names in
    let load kind features =
      match cache_path config kind with
      | None -> Hashtbl.create 16
      | Some p -> load_cache ~features p
    in
    let mica_cache = load "mica" mica_features in
    let hpc_cache = load "hpc" hpc_features in
    Hashtbl.fold
      (fun id m acc ->
        match Hashtbl.find_opt hpc_cache id with
        | Some h
          when Array.length m = Mica_analysis.Characteristics.count
               && Array.length h = Mica_uarch.Hw_counters.count ->
          (id, m, h) :: acc
        | _ -> acc)
      mica_cache []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let flush_cache config entries =
  match config.cache_dir with
  | None -> ()
  | Some _ ->
    if entries <> [] then begin
      let mica_features = Mica_analysis.Characteristics.short_names in
      let hpc_features = Mica_uarch.Hw_counters.short_names in
      let mica_path = cache_path config "mica" and hpc_path = cache_path config "hpc" in
      (* Merge over the current on-disk tables so a concurrent direct run's
         rows are kept, then commit through the same atomic+checksummed
         writer. *)
      let mica_cache =
        Option.fold ~none:(Hashtbl.create 16) ~some:(load_cache ~features:mica_features) mica_path
      in
      let hpc_cache =
        Option.fold ~none:(Hashtbl.create 16) ~some:(load_cache ~features:hpc_features) hpc_path
      in
      List.iter
        (fun (id, (m, h)) ->
          Hashtbl.replace mica_cache id m;
          Hashtbl.replace hpc_cache id h)
        entries;
      try
        Option.iter (fun p -> save_cache p ~features:mica_features mica_cache) mica_path;
        Option.iter (fun p -> save_cache p ~features:hpc_features hpc_cache) hpc_path
      with Fault.Injected _ | Sys_error _ ->
        Logs.warn (fun f -> f "cache flush failed; served results not persisted")
    end

(* ---------------- per-workload checkpoints ----------------

   During [characterize_many] each worker commits its finished workload to
   a private checkpoint file (atomic rename, own checksum header), so a
   run killed mid-batch resumes from the last committed workload instead
   of the last committed batch.  Checkpoints are merged into the caches on
   the next run and deleted once the main cache commit succeeds. *)

let ckpt_header_prefix = "#mica-ckpt "

let checkpoint_dir config = Option.map (fun d -> Filename.concat d "checkpoints") config.cache_dir

let checkpoint_path config dir id =
  let key = Artifact.md5_hex (Printf.sprintf "%s|%d|%s" model_version config.icount id) in
  Filename.concat dir (Printf.sprintf "ckpt-%s.csv" key)

let checkpoint_body config id (m, h) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "%s,%d\n" (Csv.escape_field id) config.icount);
  let row values =
    Array.iteri
      (fun j v -> Buffer.add_string b (Printf.sprintf "%s%.17g" (if j = 0 then "" else ",") v))
      values;
    Buffer.add_char b '\n'
  in
  row m;
  row h;
  Buffer.contents b

(* Called from worker domains; each task owns a distinct file, and a
   checkpoint is pure optimization, so commit failures (disk, injected
   fault) are swallowed — the workload's result still reaches the caches
   through the outcome array. *)
let commit_checkpoint config dir w (m, h) =
  let id = Workload.id w in
  let framed =
    Artifact.frame ~prefix:ckpt_header_prefix ~version:model_version (checkpoint_body config id (m, h))
  in
  try Artifact.write (checkpoint_path config dir id) framed
  with Fault.Injected _ | Sys_error _ ->
    Logs.debug (fun f -> f "checkpoint for %s not committed" id)

let read_checkpoint config path =
  match
    Result.bind (Artifact.read path) (Artifact.unframe ~prefix:ckpt_header_prefix ~version:model_version)
  with
  | Error _ -> None
  | Ok body -> (
    let parse_row arity line =
      let fields = Csv.parse_line line in
      if List.length fields <> arity then None
      else begin
        let row = Array.make arity 0.0 in
        try
          List.iteri
            (fun j s ->
              match float_of_string_opt s with
              | Some v when Float.is_finite v -> row.(j) <- v
              | Some _ | None -> raise Exit)
            fields;
          Some row
        with Exit -> None
      end
    in
    match String.split_on_char '\n' body with
    | id_line :: m_line :: h_line :: _ -> (
      match
        ( Csv.parse_line id_line,
          parse_row Mica_analysis.Characteristics.count m_line,
          parse_row Mica_uarch.Hw_counters.count h_line )
      with
      | [ id; icount ], Some m, Some h when int_of_string_opt icount = Some config.icount ->
        Some (id, m, h)
      | _ -> None)
    | _ -> None)

(* Committed checkpoints of an interrupted run, in deterministic (sorted
   filename) order.  Unreadable or stale checkpoint files — including
   [.tmp] leftovers of a mid-commit kill — are deleted. *)
let load_checkpoints config =
  match checkpoint_dir config with
  | None -> []
  | Some dir ->
    if not (Sys.file_exists dir) then []
    else begin
      let files =
        (try Array.to_list (Sys.readdir dir) with Sys_error _ -> [])
        |> List.filter (fun f -> String.length f >= 5 && String.sub f 0 5 = "ckpt-")
        |> List.sort compare
      in
      List.filter_map
        (fun f ->
          let path = Filename.concat dir f in
          match read_checkpoint config path with
          | Some r -> Some (path, r)
          | None ->
            (try Sys.remove path with Sys_error _ -> ());
            Logs.debug (fun fmt -> fmt "discarded unusable checkpoint %s" path);
            None)
        files
    end

(* ---------------- supervised characterization ----------------

   Workloads fan out over the domain pool in supervised mode: a failing
   workload is retried up to [config.retries] extra attempts and then
   reported, never aborting its batch-mates.  Workloads are independent
   and internally deterministic, so the outcome array is identical at any
   parallelism.  Workers compute and commit their own checkpoint; the main
   cache files are only ever written by the calling domain. *)
let characterize_many config missing =
  let jobs = max 1 config.jobs in
  let work = Array.of_list missing in
  if Array.length work = 0 then [||]
  else begin
    if config.progress then
      if jobs = 1 || Array.length work = 1 then
        Array.iter
          (fun w ->
            Logs.app (fun f ->
                f "characterizing %s (%d instructions)" (Workload.id w) config.icount))
          work
      else
        Logs.app (fun f ->
            f "characterizing %d workloads on %d domains (%d instructions each)"
              (Array.length work) jobs config.icount);
    let ckpt_dir = checkpoint_dir config in
    Mica_util.Pool.using ~jobs (fun pool ->
        Mica_util.Pool.run_results ~retries:(max 0 config.retries) pool (Array.length work)
          (fun i ->
            let w = work.(i) in
            (* Stage cost is measured unconditionally (two clock and two GC
               counter reads per workload), so reports have the same shape
               whether or not metrics are enabled. *)
            let t0 = Unix.gettimeofday () in
            let minor0 = Gc.minor_words () in
            let m, h = characterize config w in
            let timing =
              {
                Run_report.elapsed_s = Unix.gettimeofday () -. t0;
                minor_words = Gc.minor_words () -. minor0;
              }
            in
            Option.iter (fun dir -> commit_checkpoint config dir w (m, h)) ckpt_dir;
            (Workload.id w, m, h, timing)))
  end

(* ---------------- run-directory commit ----------------

   With [config.run] set, every characterization batch commits a
   self-describing run directory under [run.run_root]: manifest (full
   config, seeds, git rev, fault spec), both datasets and the current
   metrics snapshot, each under a recorded checksum (Mica_run.Run_dir).
   The commit is an observation, never a dependency: failures degrade to
   a warning and results still flow to the caller.  The CLI refreshes the
   metrics artifact at exit via {!committed_run_dir}, so spans recorded
   after this point (e.g. the GA stage) reach the run too. *)

let last_run_dir = ref None
let committed_run_dir () = !last_run_dir

let commit_run_dir config sink (mica : Dataset.t) (hpc : Dataset.t) report =
  let module R = Mica_run.Run_dir in
  let manifest =
    {
      Mica_run.Manifest.schema = Mica_run.Manifest.schema_version;
      created = R.timestamp ();
      tag = sink.run_tag;
      subcommand = sink.run_tag;
      argv = Array.to_list Sys.argv;
      git_rev = Mica_run.Manifest.git_rev ();
      icount = config.icount;
      ppm_order = config.ppm_order;
      jobs = config.jobs;
      retries = config.retries;
      cache = config.cache_dir <> None;
      mica_jobs_env = Sys.getenv_opt "MICA_JOBS";
      fault_spec = Option.map Fault.to_string (Fault.installed ());
      seeds = sink.run_seeds;
      workloads = Dataset.rows mica;
      report = Run_report.summary report;
      files = [];
    }
  in
  let artifacts =
    [
      { R.filename = R.mica_file; contents = Dataset.csv mica };
      { R.filename = R.hpc_file; contents = Dataset.csv hpc };
      { R.filename = R.metrics_file; contents = Obs.to_json (Obs.snapshot ()) };
    ]
  in
  match R.commit ~root:sink.run_root ~manifest ~artifacts () with
  | dir ->
    last_run_dir := Some dir;
    Logs.debug (fun f -> f "committed run directory %s" dir)
  | exception (Fault.Injected _ | Sys_error _) ->
    Logs.warn (fun f -> f "run directory commit failed; results are unaffected")

let datasets_report ?(config = default_config) workloads =
  (* Sketched vectors are bounded-error estimates: never mix them into
     the exact characterization cache or checkpoints, in either
     direction. *)
  let config = if config.sketch = None then config else { config with cache_dir = None } in
  let mica_features = Mica_analysis.Characteristics.short_names in
  let hpc_features = Mica_uarch.Hw_counters.short_names in
  let mica_path = cache_path config "mica" and hpc_path = cache_path config "hpc" in
  let mica_cache =
    Option.fold ~none:(Hashtbl.create 16) ~some:(load_cache ~features:mica_features) mica_path
  in
  let hpc_cache =
    Option.fold ~none:(Hashtbl.create 16) ~some:(load_cache ~features:hpc_features) hpc_path
  in
  (* Fold in per-workload checkpoints left by an interrupted run. *)
  let checkpoints = load_checkpoints config in
  let resumed_ids = Hashtbl.create 16 in
  List.iter
    (fun (_, (id, m, h)) ->
      if not (Hashtbl.mem mica_cache id && Hashtbl.mem hpc_cache id) then
        Hashtbl.replace resumed_ids id ();
      Hashtbl.replace mica_cache id m;
      Hashtbl.replace hpc_cache id h)
    checkpoints;
  let cached id =
    match (Hashtbl.find_opt mica_cache id, Hashtbl.find_opt hpc_cache id) with
    | Some m, Some h
      when Array.length m = Mica_analysis.Characteristics.count
           && Array.length h = Mica_uarch.Hw_counters.count ->
      Some (m, h)
    | _ -> None
  in
  let missing = List.filter (fun w -> cached (Workload.id w) = None) workloads in
  Obs.add m_workloads (float_of_int (List.length workloads));
  Obs.add m_cache_misses (float_of_int (List.length missing));
  let served w = cached (Workload.id w) <> None in
  let resumed w = Hashtbl.mem resumed_ids (Workload.id w) in
  Obs.add m_cache_hits
    (float_of_int (List.length (List.filter (fun w -> served w && not (resumed w)) workloads)));
  Obs.add m_cache_resumed
    (float_of_int (List.length (List.filter (fun w -> served w && resumed w) workloads)));
  let outcomes = characterize_many config missing in
  let missing_arr = Array.of_list missing in
  let outcome_entries = Hashtbl.create 16 in
  Array.iteri
    (fun i (o : _ Mica_util.Pool.outcome) ->
      let id = Workload.id missing_arr.(i) in
      let status, timing =
        match o.Mica_util.Pool.result with
        | Ok (id', m, h, timing) ->
          Hashtbl.replace mica_cache id' m;
          Hashtbl.replace hpc_cache id' h;
          (Run_report.Computed { attempts = o.Mica_util.Pool.attempts }, Some timing)
        | Error { Mica_util.Pool.error; backtrace } ->
          ( Run_report.Failed
              {
                attempts = o.Mica_util.Pool.attempts;
                error = Printexc.to_string error;
                backtrace;
              },
            None )
      in
      Hashtbl.replace outcome_entries id (status, timing))
    outcomes;
  let report =
    Run_report.create
      (List.map
         (fun w ->
           let id = Workload.id w in
           let status, timing =
             match Hashtbl.find_opt outcome_entries id with
             | Some st -> st
             | None ->
               ((if Hashtbl.mem resumed_ids id then Run_report.Resumed else Run_report.Cached), None)
           in
           { Run_report.id; status; timing })
         workloads)
  in
  (* Commit the merged caches.  A failed commit (disk trouble, injected
     write fault) degrades to a warning — results still flow to the caller
     — and keeps the checkpoints so the work is not lost for next time. *)
  let computed_ok =
    Array.exists
      (fun (o : _ Mica_util.Pool.outcome) ->
        match o.Mica_util.Pool.result with Ok _ -> true | Error _ -> false)
      outcomes
  in
  if computed_ok || checkpoints <> [] then begin
    let saved =
      try
        Option.iter (fun p -> save_cache p ~features:mica_features mica_cache) mica_path;
        Option.iter (fun p -> save_cache p ~features:hpc_features hpc_cache) hpc_path;
        true
      with Fault.Injected _ | Sys_error _ ->
        Logs.warn (fun f -> f "cache commit failed; keeping checkpoints for resume");
        false
    in
    if saved then begin
      (* Checkpoints are subsumed by the committed caches. *)
      List.iter (fun (p, _) -> try Sys.remove p with Sys_error _ -> ()) checkpoints;
      match checkpoint_dir config with
      | None -> ()
      | Some dir ->
        Array.iteri
          (fun i (o : _ Mica_util.Pool.outcome) ->
            match o.Mica_util.Pool.result with
            | Ok _ -> (
              let p = checkpoint_path config dir (Workload.id missing_arr.(i)) in
              try Sys.remove p with Sys_error _ -> ())
            | Error _ -> ())
          outcomes
    end
  end;
  let rows =
    List.filter_map
      (fun w ->
        let id = Workload.id w in
        Option.map (fun (m, h) -> (id, m, h)) (cached id))
      workloads
  in
  let names = Array.of_list (List.map (fun (id, _, _) -> id) rows) in
  let mica =
    Dataset.create ~names ~features:mica_features
      (Array.of_list (List.map (fun (_, m, _) -> m) rows))
  in
  let hpc =
    Dataset.create ~names ~features:hpc_features
      (Array.of_list (List.map (fun (_, _, h) -> h) rows))
  in
  (match config.run with
  | None -> ()
  | Some sink -> commit_run_dir config sink mica hpc report);
  (mica, hpc, report)

let datasets ?config workloads =
  let mica, hpc, report = datasets_report ?config workloads in
  (match Run_report.failures report with
  | [] -> ()
  | { Run_report.id; status = Failed { attempts; error; _ }; _ } :: _ ->
    failwith
      (Printf.sprintf "Pipeline.datasets: workload %s failed after %d attempt(s): %s" id attempts
         error)
  | _ :: _ -> assert false);
  (mica, hpc)

let mica_dataset ?config workloads = fst (datasets ?config workloads)
