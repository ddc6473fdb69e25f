(* Mutation fuzz of every artifact reader.  Each kind of file the tree
   commits and reads back is written from the fixed inputs of [T_artifact],
   then damaged in every way below and handed to the reader the program
   uses, which must never raise and must return the original values or
   reject the file:

   - every truncation (each proper prefix of the file);
   - all eight bits of every header and framing byte;
   - one bit of every other byte, cycling through the eight. *)

module Core = Mica_core
module Pipeline = Mica_core.Pipeline
module R = Mica_run
module Artifact = Mica_util.Artifact
module Fault = Mica_util.Fault
module W = Mica_workloads

type mutation = Truncate of int | Flip of int * int

let describe = function
  | Truncate k -> Printf.sprintf "truncated to %d bytes" k
  | Flip (i, bit) -> Printf.sprintf "bit %d of byte %d flipped" bit i

let apply s = function
  | Truncate k -> String.sub s 0 k
  | Flip (i, bit) ->
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl bit)));
    Bytes.to_string b

(* The first [framing] bytes get every bit flipped, the rest one each. *)
let mutations ~framing s =
  let n = String.length s in
  List.init n (fun k -> Truncate k)
  @ List.concat
      (List.init n (fun i ->
           if i < framing then List.init 8 (fun bit -> Flip (i, bit)) else [ Flip (i, i mod 8) ]))

(* The length of the first line, newline included: the checksum header of
   a framed file, the column header of a CSV. *)
let first_line s = match String.index_opt s '\n' with Some i -> i + 1 | None -> String.length s

(* Run [check] on every mutation of [original]; [check] returns [Some
   reason] for a wrong value.  Fails on the first wrong value or
   exception, naming the mutation.  Returns the number of mutations. *)
let fuzz what ~framing original check =
  let ms = mutations ~framing original in
  List.iter
    (fun m ->
      match check (apply original m) with
      | None -> ()
      | Some reason -> Alcotest.failf "%s, %s: %s" what (describe m) reason
      | exception e ->
        Alcotest.failf "%s, %s: raised %s" what (describe m) (Printexc.to_string e))
    ms;
  List.length ms

let read_exn path =
  match Artifact.read path with
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: %s" path (Artifact.describe_error e)

(* A damaged file goes to disk with a plain overwrite: the fuzz writes
   thousands, and the reader is what is under test. *)
let put path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let bits a = Array.map Int64.bits_of_float a

(* ---------------- cache pair, through warm_cache ---------------- *)

let test_cache_pair () =
  Tutil.with_temp_dir (fun dir ->
      let config = T_artifact.cache_config dir in
      Pipeline.flush_cache config T_artifact.cache_entries;
      let original = Pipeline.warm_cache config in
      Alcotest.(check int) "the pair serves its three rows" 3 (List.length original);
      let files = [ "mica"; "hpc" ] in
      let name kind = Printf.sprintf "%s-%s-1000.csv" kind Pipeline.model_version in
      let texts = List.map (fun kind -> (kind, read_exn (Filename.concat dir (name kind)))) files in
      let same rows =
        List.length rows = List.length original
        && List.for_all2
             (fun (id, m, h) (id', m', h') -> id = id' && bits m = bits m' && bits h = bits h')
             rows original
      in
      (* A rejected file is quarantined (renamed aside), so each damaged
         copy is written afresh; the other file of the pair stays intact. *)
      let total =
        List.fold_left
          (fun total kind ->
            let path = Filename.concat dir (name kind) and text = List.assoc kind texts in
            let n =
              fuzz ("cache " ^ name kind) ~framing:(first_line text) text (fun damaged ->
                  put path damaged;
                  match Pipeline.warm_cache config with
                  | [] -> None
                  | rows when same rows -> None
                  | rows ->
                    Some (Printf.sprintf "served %d rows that are not the original" (List.length rows)))
            in
            put path text;
            total + n)
          0 files
      in
      Alcotest.(check bool) "mutations applied" true (total > 5_000))

(* ---------------- checkpoint, through datasets_report ---------------- *)

let test_checkpoint () =
  Tutil.with_temp_dir (fun dir ->
      (* a short trace: most mutations recompute the workload *)
      let config = { (T_artifact.cache_config dir) with Pipeline.icount = 100 } in
      let pair = List.map W.Registry.find_exn [ "MiBench/sha/large"; "SPEC2000/mcf/ref" ] in
      let w = List.nth pair 1 in
      (* The interrupted run: the cache commit and task 0's checkpoint
         fail, so only the second workload's checkpoint is left. *)
      let plan = match Fault.parse "seed=1,cache.write=1@0" with Ok p -> p | Error e -> failwith e in
      let m0, h0, _ =
        Fault.with_plan (Some plan) (fun () -> Pipeline.datasets_report ~config pair)
      in
      let ckpt_dir = Filename.concat dir "checkpoints" in
      let path =
        match Sys.readdir ckpt_dir with
        | [| f |] -> Filename.concat ckpt_dir f
        | fs -> Alcotest.failf "expected one checkpoint, found %d" (Array.length fs)
      in
      let text = read_exn path in
      let expected = (bits m0.Core.Dataset.data.(1), bits h0.Core.Dataset.data.(1)) in
      (* Resume [w] from [contents] with every commit failing, so no cache
         file is written and a resumed checkpoint is kept for next time:
         the checkpoint must be resumed as the original, or deleted and
         the workload recomputed. *)
      let no_commits = match Fault.parse "seed=1,cache.write=1" with Ok p -> p | Error e -> failwith e in
      let resume contents =
        put path contents;
        let m, h, report =
          Fault.with_plan (Some no_commits) (fun () -> Pipeline.datasets_report ~config [ w ])
        in
        let module Rr = Core.Run_report in
        if (bits m.Core.Dataset.data.(0), bits h.Core.Dataset.data.(0)) <> expected then
          Some "values differ from the original"
        else if Rr.resumed report = 1 then None
        else if Rr.computed report <> 1 then Some ("not recomputed: " ^ Rr.summary report)
        else if Sys.file_exists path then Some "recomputed but the checkpoint was kept"
        else None
      in
      Option.iter (Alcotest.failf "intact checkpoint: %s") (resume text);
      Alcotest.(check bool) "the intact checkpoint is resumed and kept" true (Sys.file_exists path);
      let total = fuzz "checkpoint" ~framing:(first_line text) text resume in
      Alcotest.(check bool) "mutations applied" true (total > 1_000))

(* ---------------- run directory, through Run_dir.load ---------------- *)

let test_run_dir () =
  Tutil.with_temp_dir (fun root ->
      let dir =
        R.Run_dir.commit ~root ~dirname:"run" ~manifest:T_artifact.run_manifest
          ~artifacts:T_artifact.run_artifacts ()
      in
      let original =
        match R.Run_dir.load dir with Ok r -> r | Error e -> Alcotest.failf "run: %s" e
      in
      let files =
        [ "manifest.json"; R.Run_dir.mica_file; R.Run_dir.hpc_file; R.Run_dir.metrics_file ]
      in
      let texts = List.map (fun f -> (f, read_exn (Filename.concat dir f))) files in
      let total =
        List.fold_left
          (fun total file ->
            let text = List.assoc file texts in
            let result =
              fuzz ("run " ^ file) ~framing:(first_line text) text (fun damaged ->
                  put (Filename.concat dir file) damaged;
                  match R.Run_dir.load dir with
                  | Error _ -> None
                  | Ok r when r = original -> None
                  | Ok _ -> Some "loaded a run that is not the original")
            in
            put (Filename.concat dir file) text;
            total + result)
          0 files
      in
      Alcotest.(check bool) "mutations applied" true (total > 2_000))

(* ---------------- MICD store, through verify then load ---------------- *)

let test_store () =
  Tutil.with_temp_dir (fun dir ->
      let path = Filename.concat dir "store.micd" in
      let ds = T_artifact.store_dataset () in
      Core.Dataset_store.write path ds;
      let text = read_exn path in
      let data_offset = Int32.to_int (String.get_int32_le text 20) in
      let identical (t : Core.Dataset_store.t) =
        t.Core.Dataset_store.names = ds.Core.Dataset.names
        && t.Core.Dataset_store.features = ds.Core.Dataset.features
        && Array.map bits (Mica_stats.Colmat.to_matrix t.Core.Dataset_store.data)
           = Array.map bits ds.Core.Dataset.data
      in
      let total =
        fuzz "MICD store" ~framing:data_offset text (fun damaged ->
            put path damaged;
            match (Core.Dataset_store.verify path, Core.Dataset_store.load path) with
            | Error _, _ -> None
            | Ok (), Ok t when identical t -> None
            | Ok (), Ok _ -> Some "verified and loaded a dataset that is not the original"
            | Ok (), Error e -> Some ("verified but did not load: " ^ Artifact.describe_error e))
      in
      Alcotest.(check bool) "mutations applied" true (total > 1_000))

(* ---------------- machine description, through parse_string and load ---------------- *)

let test_machine_desc () =
  Tutil.with_temp_dir (fun dir ->
      let text = read_exn (Filename.concat T_fleet.machines_dir "ev56.json") in
      let path = Filename.concat dir "ev56.json" in
      (* Every bit of every byte in memory; through the file, every
         truncation and one bit a byte, where [load] must agree with
         [parse_string]. *)
      let parsed =
        fuzz "machines/ev56.json" ~framing:(String.length text) text (fun damaged ->
            match Mica_uarch.Machine_desc.parse_string ~source:path damaged with
            | Ok _ | Error _ -> None)
      in
      let loaded =
        fuzz "machines/ev56.json on disk" ~framing:0 text (fun damaged ->
            put path damaged;
            if Mica_uarch.Machine_desc.load path = Mica_uarch.Machine_desc.parse_string ~source:path damaged
            then None
            else Some "load and parse_string disagree")
      in
      Alcotest.(check bool) "mutations applied" true (parsed > 10_000 && loaded > 2_000))

let suite =
  ( "mutation",
    [
      Alcotest.test_case "cache pair" `Quick test_cache_pair;
      Alcotest.test_case "checkpoint" `Quick test_checkpoint;
      Alcotest.test_case "run directory" `Quick test_run_dir;
      Alcotest.test_case "MICD store" `Quick test_store;
      Alcotest.test_case "machine description" `Quick test_machine_desc;
    ] )
