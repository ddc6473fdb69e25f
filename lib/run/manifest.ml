module Json = Mica_obs.Json

type t = {
  schema : string;
  created : string;
  tag : string;
  subcommand : string;
  argv : string list;
  git_rev : string;
  icount : int;
  ppm_order : int;
  jobs : int;
  retries : int;
  cache : bool;
  mica_jobs_env : string option;
  fault_spec : string option;
  seeds : (string * string) list;
  workloads : int;
  report : string;
  files : (string * string) list;
}

let schema_version = "mica-run/v1"

let opt_str = function None -> Json.Null | Some s -> Json.Str s
let num i = Json.Num (float_of_int i)

(* Key order is the schema: the golden test pins this exact sequence. *)
let to_json m =
  Json.Obj
    [
      ("schema", Json.Str m.schema);
      ("created", Json.Str m.created);
      ("tag", Json.Str m.tag);
      ("subcommand", Json.Str m.subcommand);
      ("argv", Json.List (List.map (fun a -> Json.Str a) m.argv));
      ("git_rev", Json.Str m.git_rev);
      ( "config",
        Json.Obj
          [
            ("icount", num m.icount);
            ("ppm_order", num m.ppm_order);
            ("jobs", num m.jobs);
            ("retries", num m.retries);
            ("cache", Json.Bool m.cache);
          ] );
      ("mica_jobs_env", opt_str m.mica_jobs_env);
      ("fault_spec", opt_str m.fault_spec);
      ("seeds", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) m.seeds));
      ("workloads", num m.workloads);
      ("report", Json.Str m.report);
      ("files", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) m.files));
    ]

(* Strict field-by-field decoding: a manifest that parses as JSON but
   does not match the schema is a foreign or damaged run, reported as
   such rather than defaulted over. *)
let of_json json =
  let ( let* ) = Result.bind in
  let field name j = Option.to_result ~none:("missing field " ^ name) (Json.member name j) in
  let str name j =
    let* v = field name j in
    match Json.to_str v with Some s -> Ok s | None -> Error (name ^ " is not a string")
  in
  let int_field name j =
    let* v = field name j in
    Option.to_result ~none:(name ^ " is not an integer") (Json.to_int v)
  in
  let opt_str_field name j =
    let* v = field name j in
    match v with
    | Json.Null -> Ok None
    | Json.Str s -> Ok (Some s)
    | _ -> Error (name ^ " is not a string or null")
  in
  let str_assoc name j =
    let* v = field name j in
    match v with
    | Json.Obj kvs ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          match Json.to_str v with
          | Some s -> Ok ((k, s) :: acc)
          | None -> Error (Printf.sprintf "%s.%s is not a string" name k))
        (Ok []) kvs
      |> Result.map List.rev
    | _ -> Error (name ^ " is not an object")
  in
  let* schema = str "schema" json in
  if schema <> schema_version then Error (Printf.sprintf "unsupported schema %S" schema)
  else
    let* created = str "created" json in
    let* tag = str "tag" json in
    let* subcommand = str "subcommand" json in
    let* argv_json = field "argv" json in
    let* argv =
      match argv_json with
      | Json.List items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match Json.to_str item with
            | Some s -> Ok (s :: acc)
            | None -> Error "argv element is not a string")
          (Ok []) items
        |> Result.map List.rev
      | _ -> Error "argv is not a list"
    in
    let* git_rev = str "git_rev" json in
    let* config = field "config" json in
    let* icount = int_field "icount" config in
    let* ppm_order = int_field "ppm_order" config in
    let* jobs = int_field "jobs" config in
    let* retries = int_field "retries" config in
    let* cache =
      match Json.member "cache" config with
      | Some (Json.Bool b) -> Ok b
      | _ -> Error "config.cache is not a bool"
    in
    let* mica_jobs_env = opt_str_field "mica_jobs_env" json in
    let* fault_spec = opt_str_field "fault_spec" json in
    let* seeds = str_assoc "seeds" json in
    let* workloads = int_field "workloads" json in
    let* report = str "report" json in
    let* files = str_assoc "files" json in
    Ok
      {
        schema;
        created;
        tag;
        subcommand;
        argv;
        git_rev;
        icount;
        ppm_order;
        jobs;
        retries;
        cache;
        mica_jobs_env;
        fault_spec;
        seeds;
        workloads;
        report;
        files;
      }

(* HEAD without forking: resolve [.git/HEAD] through loose refs and
   [packed-refs], walking up from the current directory (run directories
   are created from the repo root in practice, but tests may chdir). *)
let git_rev () =
  let read path = Result.to_option (Mica_util.Artifact.read path) in
  let rec find_git dir depth =
    if depth > 6 then None
    else
      let candidate = Filename.concat dir ".git" in
      if Sys.file_exists candidate then Some candidate
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else find_git parent (depth + 1)
  in
  match find_git (Sys.getcwd ()) 0 with
  | exception Sys_error _ -> "unknown"
  | None -> "unknown"
  | Some git_dir -> (
    match read (Filename.concat git_dir "HEAD") with
    | None -> "unknown"
    | Some head -> (
      let head = String.trim head in
      match String.length head >= 5 && String.sub head 0 5 = "ref: " with
      | false -> if head = "" then "unknown" else head
      | true -> (
        let refname = String.trim (String.sub head 5 (String.length head - 5)) in
        match read (Filename.concat git_dir refname) with
        | Some rev when String.trim rev <> "" -> String.trim rev
        | _ -> (
          (* loose ref absent: look in packed-refs *)
          match read (Filename.concat git_dir "packed-refs") with
          | None -> "unknown"
          | Some packed ->
            let lines = String.split_on_char '\n' packed in
            let matching =
              List.find_opt
                (fun line ->
                  match String.index_opt line ' ' with
                  | Some i -> String.sub line (i + 1) (String.length line - i - 1) = refname
                  | None -> false)
                lines
            in
            (match matching with
            | Some line -> (
              match String.index_opt line ' ' with
              | Some i -> String.sub line 0 i
              | None -> "unknown")
            | None -> "unknown")))))
