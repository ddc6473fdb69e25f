module Json = Mica_obs.Json
module Opcode = Mica_isa.Opcode

type cache_level = {
  level_name : string;
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  latency : int;
}

type core_model =
  | In_order of { issue_width : int }
  | Out_of_order of { width : int; window : int }

type predictor = { family : string; entries : int; history_bits : int }

type op_timing = { op : Opcode.t; latency : int; recip_throughput : int }

type t = {
  name : string;
  core : core_model;
  levels : cache_level list;
  tlb_entries : int;
  page_bytes : int;
  tlb_penalty : int;
  predictor : predictor;
  prefetch_next_line : bool;
  mem_latency : int;
  mispredict_penalty : int;
  ops : op_timing list;
}

let families = [ "bimodal"; "gshare"; "local"; "tournament" ]
let required_levels = [ "l1i"; "l1d"; "l2" ]

(* ---------------- result-returning JSON field access ---------------- *)

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt

let field name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> err "missing required field %S" name

let opt_field name json = Json.member name json

let as_int ~what json =
  match Json.to_num json with
  | Some f when Float.is_integer f && Float.abs f < 1e15 -> Ok (int_of_float f)
  | Some _ -> err "%s must be an integer" what
  | None -> err "%s must be a number" what

let int_field ~what name json =
  let* v = field name json in
  as_int ~what:(what ^ "." ^ name) v

let str_field ~what name json =
  let* v = field name json in
  match Json.to_str v with Some s -> Ok s | None -> err "%s.%s must be a string" what name

let bool_field ~default name json =
  match opt_field name json with
  | None -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> err "field %S must be a boolean" name

let obj_list ~what json =
  match json with Json.List l -> Ok l | _ -> err "%s must be an array" what

(* ---------------- parsing ---------------- *)

let parse_core json =
  let what = "core" in
  let* kind = str_field ~what "kind" json in
  match kind with
  | "in_order" ->
    let* issue_width = int_field ~what "issue_width" json in
    Ok (In_order { issue_width })
  | "out_of_order" ->
    let* width = int_field ~what "width" json in
    let* window = int_field ~what "window" json in
    Ok (Out_of_order { width; window })
  | other -> err "core.kind %S is not supported (expected \"in_order\" or \"out_of_order\")" other

let parse_level json =
  let* level_name = str_field ~what:"cache level" "name" json in
  let what = "cache level " ^ level_name in
  let* size_bytes = int_field ~what "size_bytes" json in
  let* line_bytes = int_field ~what "line_bytes" json in
  let* assoc = int_field ~what "assoc" json in
  let* latency = int_field ~what "latency" json in
  Ok { level_name; size_bytes; line_bytes; assoc; latency }

let parse_levels json =
  let* items = obj_list ~what:"cache_levels" json in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | item :: rest ->
      let* level = parse_level item in
      go (level :: acc) rest
  in
  go [] items

let parse_predictor json =
  let what = "predictor" in
  let* family = str_field ~what "family" json in
  if not (List.mem family families) then
    err "predictor family %S is unknown (expected one of: %s)" family
      (String.concat ", " families)
  else
    let* entries = int_field ~what "entries" json in
    let* history_bits =
      match opt_field "history_bits" json with
      | None -> Ok 0
      | Some v -> as_int ~what:"predictor.history_bits" v
    in
    if family <> "bimodal" && opt_field "history_bits" json = None then
      err "predictor family %S requires history_bits" family
    else Ok { family; entries; history_bits }

let opcode_of_name name =
  List.find_opt (fun op -> Opcode.to_string op = name) Opcode.all

let parse_ops json =
  match json with
  | Json.Obj fields ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (name, timing) :: rest -> (
        match opcode_of_name name with
        | None ->
          err "ops: %S is not an opcode class (expected one of: %s)" name
            (String.concat ", " (List.map Opcode.to_string Opcode.all))
        | Some op ->
          let what = "ops." ^ name in
          let* latency = int_field ~what "latency" timing in
          let* recip_throughput = int_field ~what "recip_throughput" timing in
          go ({ op; latency; recip_throughput } :: acc) rest)
    in
    go [] fields
  | _ -> err "ops must be an object mapping opcode classes to timings"

let of_json json =
  match json with
  | Json.Obj _ ->
    let what = "machine" in
    let* name = str_field ~what "name" json in
    let* core = field "core" json in
    let* core = parse_core core in
    let* levels = field "cache_levels" json in
    let* levels = parse_levels levels in
    let* dtlb = field "dtlb" json in
    let* tlb_entries = int_field ~what:"dtlb" "entries" dtlb in
    let* page_bytes = int_field ~what:"dtlb" "page_bytes" dtlb in
    let* tlb_penalty = int_field ~what:"dtlb" "miss_penalty" dtlb in
    let* predictor = field "predictor" json in
    let* predictor = parse_predictor predictor in
    let* prefetch_next_line = bool_field ~default:false "prefetch_next_line" json in
    let* mem_latency = int_field ~what "mem_latency" json in
    let* mispredict_penalty = int_field ~what "mispredict_penalty" json in
    let* ops =
      match opt_field "ops" json with None -> Ok [] | Some o -> parse_ops o
    in
    Ok
      {
        name;
        core;
        levels;
        tlb_entries;
        page_bytes;
        tlb_penalty;
        predictor;
        prefetch_next_line;
        mem_latency;
        mispredict_penalty;
        ops;
      }
  | _ -> err "machine description must be a JSON object"

(* ---------------- semantic validation ---------------- *)

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate_level (l : cache_level) =
  let what = l.level_name in
  if l.size_bytes <= 0 then
    err "cache level %S: size_bytes must be positive (got %d)" what l.size_bytes
  else if not (is_pow2 l.line_bytes) then
    err "cache level %S: line_bytes must be a power of two (got %d)" what l.line_bytes
  else if l.line_bytes < 2 then
    err "cache level %S: line_bytes must be at least 2 (got %d)" what l.line_bytes
  else if l.assoc <= 0 then err "cache level %S: assoc must be positive (got %d)" what l.assoc
  else if l.size_bytes mod (l.line_bytes * l.assoc) <> 0 then
    err "cache level %S: size_bytes (%d) must be a multiple of line_bytes * assoc (%d)" what
      l.size_bytes (l.line_bytes * l.assoc)
  else if not (is_pow2 (l.size_bytes / (l.line_bytes * l.assoc))) then
    err "cache level %S: set count %d is not a power of two (adjust size or assoc)" what
      (l.size_bytes / (l.line_bytes * l.assoc))
  else if l.latency < 0 then err "cache level %S: latency must be non-negative" what
  else Ok ()

let validate t =
  let* () = if t.name = "" then err "machine name must be non-empty" else Ok () in
  let* () =
    match t.core with
    | In_order { issue_width } ->
      if issue_width >= 1 then Ok () else err "core.issue_width must be at least 1"
    | Out_of_order { width; window } ->
      if width < 1 then err "core.width must be at least 1"
      else if window < 1 then err "core.window must be at least 1"
      else Ok ()
  in
  let* () =
    let seen = Hashtbl.create 4 in
    let rec go = function
      | [] -> Ok ()
      | (l : cache_level) :: rest ->
        if Hashtbl.mem seen l.level_name then
          err "duplicate cache level %S (each level may appear once)" l.level_name
        else begin
          Hashtbl.add seen l.level_name ();
          let* () = validate_level l in
          go rest
        end
    in
    let* () = go t.levels in
    let missing =
      List.filter (fun n -> not (List.exists (fun l -> l.level_name = n) t.levels)) required_levels
    in
    match missing with
    | [] ->
      if List.length t.levels > List.length required_levels then
        err "unsupported cache level(s): this model simulates exactly %s"
          (String.concat ", " required_levels)
      else Ok ()
    | ms -> err "missing cache level(s): %s (the model needs %s)" (String.concat ", " ms)
             (String.concat ", " required_levels)
  in
  let* () =
    if t.tlb_entries <= 0 then err "dtlb.entries must be positive (got %d)" t.tlb_entries
    else if not (is_pow2 t.page_bytes) then
      err "dtlb.page_bytes must be a power of two (got %d)" t.page_bytes
    else if t.page_bytes < 2 then err "dtlb.page_bytes must be at least 2 (got %d)" t.page_bytes
    else if t.tlb_penalty < 0 then err "dtlb.miss_penalty must be non-negative"
    else Ok ()
  in
  let* () =
    let p = t.predictor in
    if not (List.mem p.family families) then
      err "predictor family %S is unknown (expected one of: %s)" p.family
        (String.concat ", " families)
    else if not (is_pow2 p.entries) then
      err "predictor.entries must be a positive power of two (got %d)" p.entries
    else if p.family <> "bimodal" && (p.history_bits < 1 || p.history_bits > 24) then
      err "predictor.history_bits must lie in [1, 24] (got %d)" p.history_bits
    else Ok ()
  in
  let* () =
    if t.mem_latency < 0 then err "mem_latency must be non-negative"
    else if t.mispredict_penalty < 0 then err "mispredict_penalty must be non-negative"
    else Ok ()
  in
  let rec check_ops seen = function
    | [] -> Ok ()
    | (o : op_timing) :: rest ->
      let name = Opcode.to_string o.op in
      if List.mem o.op seen then err "ops: duplicate entry for %S" name
      else if o.latency < 1 then err "ops.%s: latency must be at least 1" name
      else if o.recip_throughput < 1 then err "ops.%s: recip_throughput must be at least 1" name
      else check_ops (o.op :: seen) rest
  in
  check_ops [] t.ops

(* ---------------- conversion to and from Machine.config ---------------- *)

let level t name = List.find (fun (l : cache_level) -> l.level_name = name) t.levels

let geometry (l : cache_level) =
  { Machine.size_bytes = l.size_bytes; line_bytes = l.line_bytes; assoc = l.assoc }

let to_config t =
  let* () = validate t in
  let l1i = level t "l1i" and l1d = level t "l1d" and l2 = level t "l2" in
  let core =
    match t.core with
    | In_order { issue_width } -> Machine.In_order { issue_width }
    | Out_of_order { width; window } -> Machine.Out_of_order { width; window }
  in
  let predictor =
    let { family; entries; history_bits } = t.predictor in
    match family with
    | "bimodal" -> Machine.Bimodal { entries }
    | "gshare" -> Machine.Gshare { entries; history_bits }
    | "local" -> Machine.Local_two_level { entries; history_bits }
    | "tournament" -> Machine.Tournament { entries; history_bits }
    | _ -> assert false (* validated above *)
  in
  let ops = Array.copy Machine.default_ops in
  List.iter
    (fun (o : op_timing) ->
      ops.(Opcode.to_int o.op) <-
        { Machine.op_latency = o.latency; op_recip = o.recip_throughput })
    t.ops;
  Ok
    {
      Machine.name = t.name;
      core;
      l1i = geometry l1i;
      l1d = geometry l1d;
      l2 = geometry l2;
      dtlb_entries = t.tlb_entries;
      page_bytes = t.page_bytes;
      predictor;
      prefetch_next_line = t.prefetch_next_line;
      l1i_latency = l1i.latency;
      l1_latency = l1d.latency;
      l2_latency = l2.latency;
      mem_latency = t.mem_latency;
      mispredict_penalty = t.mispredict_penalty;
      dtlb_penalty = t.tlb_penalty;
      ops;
    }

let of_config (cfg : Machine.config) =
  let level level_name (g : Machine.cache_geometry) latency =
    { level_name; size_bytes = g.size_bytes; line_bytes = g.line_bytes; assoc = g.assoc; latency }
  in
  let core =
    match cfg.core with
    | Machine.In_order { issue_width } -> In_order { issue_width }
    | Machine.Out_of_order { width; window } -> Out_of_order { width; window }
  in
  let predictor =
    match cfg.predictor with
    | Machine.Bimodal { entries } -> { family = "bimodal"; entries; history_bits = 0 }
    | Machine.Gshare { entries; history_bits } -> { family = "gshare"; entries; history_bits }
    | Machine.Local_two_level { entries; history_bits } ->
      { family = "local"; entries; history_bits }
    | Machine.Tournament { entries; history_bits } ->
      { family = "tournament"; entries; history_bits }
  in
  let ops =
    List.map
      (fun op ->
        let timing = cfg.ops.(Opcode.to_int op) in
        { op; latency = timing.Machine.op_latency; recip_throughput = timing.Machine.op_recip })
      Opcode.all
  in
  {
    name = cfg.name;
    core;
    levels =
      [
        level "l1i" cfg.l1i cfg.l1i_latency;
        level "l1d" cfg.l1d cfg.l1_latency;
        level "l2" cfg.l2 cfg.l2_latency;
      ];
    tlb_entries = cfg.dtlb_entries;
    page_bytes = cfg.page_bytes;
    tlb_penalty = cfg.dtlb_penalty;
    predictor;
    prefetch_next_line = cfg.prefetch_next_line;
    mem_latency = cfg.mem_latency;
    mispredict_penalty = cfg.mispredict_penalty;
    ops;
  }

(* ---------------- serialization ---------------- *)

let to_json t =
  let num i = Json.Num (float_of_int i) in
  let core =
    match t.core with
    | In_order { issue_width } ->
      Json.Obj [ ("kind", Json.Str "in_order"); ("issue_width", num issue_width) ]
    | Out_of_order { width; window } ->
      Json.Obj [ ("kind", Json.Str "out_of_order"); ("width", num width); ("window", num window) ]
  in
  let level (l : cache_level) =
    Json.Obj
      [
        ("name", Json.Str l.level_name);
        ("size_bytes", num l.size_bytes);
        ("line_bytes", num l.line_bytes);
        ("assoc", num l.assoc);
        ("latency", num l.latency);
      ]
  in
  let predictor =
    let base = [ ("family", Json.Str t.predictor.family); ("entries", num t.predictor.entries) ] in
    Json.Obj
      (if t.predictor.family = "bimodal" then base
       else base @ [ ("history_bits", num t.predictor.history_bits) ])
  in
  let ops =
    Json.Obj
      (List.map
         (fun (o : op_timing) ->
           ( Opcode.to_string o.op,
             Json.Obj
               [ ("latency", num o.latency); ("recip_throughput", num o.recip_throughput) ] ))
         t.ops)
  in
  Json.Obj
    [
      ("name", Json.Str t.name);
      ("core", core);
      ("cache_levels", Json.List (List.map level t.levels));
      ( "dtlb",
        Json.Obj
          [
            ("entries", num t.tlb_entries);
            ("page_bytes", num t.page_bytes);
            ("miss_penalty", num t.tlb_penalty);
          ] );
      ("predictor", predictor);
      ("prefetch_next_line", Json.Bool t.prefetch_next_line);
      ("mem_latency", num t.mem_latency);
      ("mispredict_penalty", num t.mispredict_penalty);
      ("ops", ops);
    ]

let to_string t = Json.to_string ~pretty:true (to_json t) ^ "\n"

(* ---------------- file loading ---------------- *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> err "cannot read machine description: %s" msg

let parse_string ~source contents =
  let prefix msg = Printf.sprintf "%s: %s" source msg in
  match Json.parse contents with
  | Error msg ->
    Error (prefix (Printf.sprintf "not valid JSON (%s) — is the file truncated?" msg))
  | Ok json -> (
    match Result.bind (of_json json) (fun t -> Result.map (fun () -> t) (validate t)) with
    | Ok t -> Ok t
    | Error msg -> Error (prefix msg))

let load path =
  let* contents = read_file path in
  parse_string ~source:path contents

let load_config path =
  let* t = load path in
  Result.map_error (fun msg -> Printf.sprintf "%s: %s" path msg) (to_config t)

let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> err "cannot list machine directory: %s" msg
  | entries ->
    let files =
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort String.compare
    in
    if files = [] then err "no machine descriptions (*.json) found in %s" dir
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | f :: rest ->
          let* cfg = load_config (Filename.concat dir f) in
          go ((f, cfg) :: acc) rest
      in
      let* machines = go [] files in
      let rec dup_name seen = function
        | [] -> Ok ()
        | (f, (cfg : Machine.config)) :: rest -> (
          match List.assoc_opt cfg.Machine.name seen with
          | Some other ->
            err "machine name %S appears in both %s and %s (names must be unique)"
              cfg.Machine.name other f
          | None -> dup_name ((cfg.Machine.name, f) :: seen) rest)
      in
      let* () = dup_name [] machines in
      Ok (List.map (fun (_, (cfg : Machine.config)) -> (cfg.Machine.name, cfg)) machines)
