module Json = Mica_obs.Json
module Csv = Mica_util.Csv
module Artifact = Mica_util.Artifact

type table = {
  row_names : string array;
  columns : string array;
  cells : float array array;
}

type t = {
  dir : string;
  manifest : Manifest.t;
  mica : table option;
  hpc : table option;
  metrics : Json.t option;
  bench : Json.t option;
}

let manifest_file = "manifest.json"
let mica_file = "mica_dataset.csv"
let hpc_file = "hpc_dataset.csv"
let metrics_file = "metrics.json"
let bench_file = "bench.json"

(* The manifest's checksum header: [#mica-run <version> md5:<hex>].  The
   version is bumped when the run-directory schema changes incompatibly. *)
let header_prefix = "#mica-run "
let format_version = "v1"

let timestamp () =
  let tm = Unix.localtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d%02d%02d-%02d%02d%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let csv_of_table t =
  Csv.table ~columns:t.columns (Array.to_list (Array.map2 (fun n row -> (n, row)) t.row_names t.cells))

let table_of_csv csv =
  match String.split_on_char '\n' csv with
  | [] | [ "" ] -> Error "empty dataset"
  | header :: body -> (
    match Csv.parse_line header with
    | "name" :: columns ->
      let columns = Array.of_list columns in
      let arity = Array.length columns in
      let rows =
        List.fold_left
          (fun acc line ->
            match acc with
            | Error _ as e -> e
            | Ok acc ->
              if String.trim line = "" then Ok acc
              else begin
                match Csv.parse_line line with
                | name :: fields when List.length fields = arity -> (
                  let row = Array.make arity 0.0 in
                  try
                    List.iteri
                      (fun j s ->
                        match float_of_string_opt s with
                        | Some v -> row.(j) <- v
                        | None -> raise Exit)
                      fields;
                    Ok ((name, row) :: acc)
                  with Exit -> Error (Printf.sprintf "unparsable value in row %S" name))
                | name :: _ -> Error (Printf.sprintf "row %S has the wrong arity" name)
                | [] -> Ok acc
              end)
          (Ok []) body
      in
      Result.map
        (fun rows ->
          let rows = List.rev rows in
          {
            row_names = Array.of_list (List.map fst rows);
            columns;
            cells = Array.of_list (List.map snd rows);
          })
        rows
    | _ -> Error "dataset header does not start with 'name'")

type artifact = { filename : string; contents : string }

let write_manifest dir manifest =
  Artifact.write (Filename.concat dir manifest_file)
    (Artifact.frame ~prefix:header_prefix ~version:format_version
       (Json.to_string ~pretty:true (Manifest.to_json manifest) ^ "\n"))

let commit ~root ?dirname ~manifest ~artifacts () =
  let base =
    match dirname with
    | Some d -> d
    | None -> Printf.sprintf "%s-%s" manifest.Manifest.created manifest.Manifest.tag
  in
  Artifact.mkdir_p root;
  (* Uniquify: concurrent or same-second runs get .2, .3, ...  The claim is
     the [mkdir] itself, so two commits never share a directory, and the
     rollback below removes only a directory this call created. *)
  let rec claim n =
    let candidate = if n = 1 then base else Printf.sprintf "%s.%d" base n in
    let path = Filename.concat root candidate in
    match Unix.mkdir path 0o755 with
    | () -> path
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> claim (n + 1)
    | exception Unix.Unix_error (e, _, _) -> raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  in
  let dir = claim 1 in
  match
    List.iter (fun a -> Artifact.write (Filename.concat dir a.filename) a.contents) artifacts;
    let files =
      List.sort compare (List.map (fun a -> (a.filename, Artifact.md5_hex a.contents)) artifacts)
    in
    write_manifest dir { manifest with Manifest.files }
  with
  | () -> dir
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Artifact.remove_tree dir;
      Printexc.raise_with_backtrace e bt

let read_manifest dir =
  match
    Result.bind
      (Artifact.read (Filename.concat dir manifest_file))
      (Artifact.unframe ~prefix:header_prefix ~version:format_version)
  with
  | Error Artifact.Missing -> Error (Printf.sprintf "%s: no %s (not a run directory)" dir manifest_file)
  | Error e -> Error (Printf.sprintf "%s: %s %s" dir manifest_file (Artifact.describe_error e))
  | Ok body -> (
    match Json.parse body with
    | Error msg -> Error (Printf.sprintf "%s: %s does not parse: %s" dir manifest_file msg)
    | Ok json -> (
      match Manifest.of_json json with
      | Error msg -> Error (Printf.sprintf "%s: %s: %s" dir manifest_file msg)
      | Ok m -> Ok m))

let refresh_artifact ~dir ~filename ~contents =
  match read_manifest dir with
  | Error msg -> failwith ("Run_dir.refresh_artifact: " ^ msg)
  | Ok manifest ->
    Artifact.write (Filename.concat dir filename) contents;
    let files =
      List.sort compare
        ((filename, Artifact.md5_hex contents)
        :: List.remove_assoc filename manifest.Manifest.files)
    in
    write_manifest dir { manifest with Manifest.files }

let load dir =
  let ( let* ) = Result.bind in
  let* manifest = read_manifest dir in
  (* Every artifact the manifest records must be a plain file name of this
     directory, present and matching its digest: the run loads
     all-or-nothing, and never reads outside its directory. *)
  let plain f = f <> "" && f <> "." && f <> ".." && not (String.contains f '/') in
  let* artifacts =
    List.fold_left
      (fun acc (filename, digest) ->
        let* acc = acc in
        if not (plain filename) then
          Error
            (Printf.sprintf "%s: %s names %S, which is not a file of the run directory" dir
               manifest_file filename)
        else
          match Artifact.read (Filename.concat dir filename) with
          | Error e -> Error (Printf.sprintf "%s: %s %s" dir filename (Artifact.describe_error e))
          | Ok contents ->
            if Artifact.md5_hex contents <> digest then
              Error
                (Printf.sprintf "%s: %s corrupt: content does not match its manifest digest" dir
                   filename)
            else Ok ((filename, contents) :: acc))
      (Ok []) manifest.Manifest.files
  in
  let find name = List.assoc_opt name artifacts in
  let* mica =
    match find mica_file with
    | None -> Ok None
    | Some csv -> (
      match table_of_csv csv with
      | Ok t -> Ok (Some t)
      | Error msg -> Error (Printf.sprintf "%s: %s: %s" dir mica_file msg))
  in
  let* hpc =
    match find hpc_file with
    | None -> Ok None
    | Some csv -> (
      match table_of_csv csv with
      | Ok t -> Ok (Some t)
      | Error msg -> Error (Printf.sprintf "%s: %s: %s" dir hpc_file msg))
  in
  let parse_json name = function
    | None -> Ok None
    | Some body -> (
      match Json.parse body with
      | Ok j -> Ok (Some j)
      | Error msg -> Error (Printf.sprintf "%s: %s does not parse: %s" dir name msg))
  in
  let* metrics = parse_json metrics_file (find metrics_file) in
  let* bench = parse_json bench_file (find bench_file) in
  Ok { dir; manifest; mica; hpc; metrics; bench }

let list_runs root =
  if not (Sys.file_exists root) then []
  else begin
    let entries = try Array.to_list (Sys.readdir root) with Sys_error _ -> [] in
    entries
    |> List.filter (fun name ->
           let dir = Filename.concat root name in
           (try Sys.is_directory dir with Sys_error _ -> false)
           && Sys.file_exists (Filename.concat dir manifest_file))
    |> List.sort compare
  end

let latest root =
  match List.rev (list_runs root) with
  | [] -> None
  | name :: _ -> Some (Filename.concat root name)

(* Distinguish "this argument names a run" from "this argument is not
   about runs at all" from "this argument clearly meant a run but cannot
   resolve to one" — the CLI falls through to workload resolution only on
   [`Not_run], so a dangling symlink or an empty runs/ root produces a
   run-specific diagnostic instead of a confusing `no workload matches'. *)
let resolve p =
  let is_dir d = try Sys.is_directory d with Sys_error _ -> false in
  let is_run d = is_dir d && Sys.file_exists (Filename.concat d manifest_file) in
  let dangling_symlink d =
    (* [lstat] sees the link itself; [file_exists] follows it. *)
    match Unix.lstat d with
    | { Unix.st_kind = Unix.S_LNK; _ } -> not (Sys.file_exists d)
    | _ -> false
    | exception Unix.Unix_error _ -> false
  in
  if is_run p then `Run p
  else if dangling_symlink p then
    `Error
      (Printf.sprintf "%s is a dangling symlink (its target no longer exists); remove it or point it at a run directory" p)
  else if Filename.basename p = "latest" then begin
    let root = Filename.dirname p in
    if not (Sys.file_exists root) then
      `Error
        (Printf.sprintf "%s: cannot resolve latest run: %s does not exist (no runs have been committed yet)" p root)
    else begin
      match latest root with
      | Some d -> `Run d
      | None ->
        `Error
          (Printf.sprintf "%s: cannot resolve latest run: %s contains no run directories (run a characterizing subcommand first, or pass a run directory explicitly)" p root)
    end
  end
  else if is_dir p then
    `Error (Printf.sprintf "%s is a directory but not a run directory (it has no %s)" p manifest_file)
  else `Not_run
