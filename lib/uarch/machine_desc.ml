module Json = Mica_obs.Json
module Opcode = Mica_isa.Opcode

let families = [ "bimodal"; "gshare"; "local"; "tournament" ]
let required_levels = [ "l1i"; "l1d"; "l2" ]

(* The historical timing assumptions, written as a uops.info-style table
   that a description's [ops] entries override: an in-order core stalls
   [recip - 1] cycles behind a long operation (a non-pipelined divider
   stalls fully, the multiplier roughly half), while the out-of-order core
   sees the full result latency through the dependence graph. *)
let default_op_timing op =
  let lat = Opcode.latency op in
  let recip =
    match (op : Opcode.t) with
    | Fp_div -> lat
    | Int_mul -> ((lat - 1) / 2) + 1
    | Load | Store | Branch | Jump | Call | Return | Int_alu | Fp_add | Fp_mul | Nop -> 1
  in
  { Machine.op_latency = lat; op_recip = recip }

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

(* ---------------- parsing: the shape of the document ---------------- *)

let parse_core json =
  let what = "core" in
  let* kind = str_field ~what "kind" json in
  match kind with
  | "in_order" ->
    let* issue_width = int_field ~what "issue_width" json in
    Ok (Machine.In_order { issue_width })
  | "out_of_order" ->
    let* width = int_field ~what "width" json in
    let* window = int_field ~what "window" json in
    Ok (Machine.Out_of_order { width; window })
  | other -> err "core.kind %S is not supported (expected \"in_order\" or \"out_of_order\")" other

(* a level is its name, its geometry and its latency *)
let parse_level json =
  let* level_name = str_field ~what:"cache level" "name" json in
  let what = "cache level " ^ level_name in
  let* size_bytes = int_field ~what "size_bytes" json in
  let* line_bytes = int_field ~what "line_bytes" json in
  let* assoc = int_field ~what "assoc" json in
  let* latency = int_field ~what "latency" json in
  Ok (level_name, ({ Machine.size_bytes; line_bytes; assoc }, latency))

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
    else
      Ok
        (match family with
        | "bimodal" -> Machine.Bimodal { entries }
        | "gshare" -> Machine.Gshare { entries; history_bits }
        | "local" -> Machine.Local_two_level { entries; history_bits }
        | _ -> Machine.Tournament { entries; history_bits })

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
          go ((op, latency, recip_throughput) :: acc) rest)
    in
    go [] fields
  | _ -> err "ops must be an object mapping opcode classes to timings"

(* ---------------- semantic checks, once the shape has parsed ------------ *)

let is_pow2 n = n > 0 && n land (n - 1) = 0

let check_level (what, ((g : Machine.cache_geometry), latency)) =
  if g.size_bytes <= 0 then
    err "cache level %S: size_bytes must be positive (got %d)" what g.size_bytes
  else if not (is_pow2 g.line_bytes) then
    err "cache level %S: line_bytes must be a power of two (got %d)" what g.line_bytes
  else if g.line_bytes < 2 then
    err "cache level %S: line_bytes must be at least 2 (got %d)" what g.line_bytes
  else if g.assoc <= 0 then err "cache level %S: assoc must be positive (got %d)" what g.assoc
  else if g.size_bytes mod (g.line_bytes * g.assoc) <> 0 then
    err "cache level %S: size_bytes (%d) must be a multiple of line_bytes * assoc (%d)" what
      g.size_bytes (g.line_bytes * g.assoc)
  else if not (is_pow2 (g.size_bytes / (g.line_bytes * g.assoc))) then
    err "cache level %S: set count %d is not a power of two (adjust size or assoc)" what
      (g.size_bytes / (g.line_bytes * g.assoc))
  else if latency < 0 then err "cache level %S: latency must be non-negative" what
  else Ok ()

let check_core = function
  | Machine.In_order { issue_width } ->
    if issue_width >= 1 then Ok () else err "core.issue_width must be at least 1"
  | Machine.Out_of_order { width; window } ->
    if width < 1 then err "core.width must be at least 1"
    else if window < 1 then err "core.window must be at least 1"
    else Ok ()

let check_levels levels =
  let rec go seen = function
    | [] -> Ok ()
    | ((name, _) as level) :: rest ->
      if List.mem name seen then err "duplicate cache level %S (each level may appear once)" name
      else
        let* () = check_level level in
        go (name :: seen) rest
  in
  let* () = go [] levels in
  match List.filter (fun n -> not (List.mem_assoc n levels)) required_levels with
  | [] ->
    if List.length levels > List.length required_levels then
      err "unsupported cache level(s): this model simulates exactly %s"
        (String.concat ", " required_levels)
    else Ok ()
  | ms ->
    err "missing cache level(s): %s (the model needs %s)" (String.concat ", " ms)
      (String.concat ", " required_levels)

let check_predictor predictor =
  let entries, history_bits =
    match predictor with
    | Machine.Bimodal { entries } -> (entries, None)
    | Gshare { entries; history_bits }
    | Local_two_level { entries; history_bits }
    | Tournament { entries; history_bits } ->
      (entries, Some history_bits)
  in
  if not (is_pow2 entries) then
    err "predictor.entries must be a positive power of two (got %d)" entries
  else
    match history_bits with
    | Some h when h < 1 || h > 24 -> err "predictor.history_bits must lie in [1, 24] (got %d)" h
    | Some _ | None -> Ok ()

(* the timing table: defaults, overridden by the description's entries *)
let ops_table ops =
  let table = Array.init Opcode.count (fun i -> default_op_timing (Opcode.of_int i)) in
  let rec go seen = function
    | [] -> Ok table
    | (op, latency, recip) :: rest ->
      let name = Opcode.to_string op in
      if List.mem op seen then err "ops: duplicate entry for %S" name
      else if latency < 1 then err "ops.%s: latency must be at least 1" name
      else if recip < 1 then err "ops.%s: recip_throughput must be at least 1" name
      else begin
        table.(Opcode.to_int op) <- { Machine.op_latency = latency; op_recip = recip };
        go (op :: seen) rest
      end
  in
  go [] ops

let of_json json =
  match json with
  | Json.Obj _ ->
    let what = "machine" in
    let* name = str_field ~what "name" json in
    let* core = Result.bind (field "core" json) parse_core in
    let* levels = Result.bind (field "cache_levels" json) parse_levels in
    let* dtlb = field "dtlb" json in
    let* dtlb_entries = int_field ~what:"dtlb" "entries" dtlb in
    let* page_bytes = int_field ~what:"dtlb" "page_bytes" dtlb in
    let* dtlb_penalty = int_field ~what:"dtlb" "miss_penalty" dtlb in
    let* predictor = Result.bind (field "predictor" json) parse_predictor in
    let* prefetch_next_line = bool_field ~default:false "prefetch_next_line" json in
    let* mem_latency = int_field ~what "mem_latency" json in
    let* mispredict_penalty = int_field ~what "mispredict_penalty" json in
    let* ops = match opt_field "ops" json with None -> Ok [] | Some o -> parse_ops o in
    let* () = if name = "" then err "machine name must be non-empty" else Ok () in
    let* () = check_core core in
    let* () = check_levels levels in
    let* () =
      if dtlb_entries <= 0 then err "dtlb.entries must be positive (got %d)" dtlb_entries
      else if not (is_pow2 page_bytes) then
        err "dtlb.page_bytes must be a power of two (got %d)" page_bytes
      else if page_bytes < 2 then err "dtlb.page_bytes must be at least 2 (got %d)" page_bytes
      else if dtlb_penalty < 0 then err "dtlb.miss_penalty must be non-negative"
      else Ok ()
    in
    let* () = check_predictor predictor in
    let* () =
      if mem_latency < 0 then err "mem_latency must be non-negative"
      else if mispredict_penalty < 0 then err "mispredict_penalty must be non-negative"
      else Ok ()
    in
    let* ops = ops_table ops in
    (* check_levels found each required level exactly once *)
    let l1i, l1i_latency = List.assoc "l1i" levels in
    let l1d, l1_latency = List.assoc "l1d" levels in
    let l2, l2_latency = List.assoc "l2" levels in
    Ok
      {
        Machine.name;
        core;
        l1i;
        l1d;
        l2;
        dtlb_entries;
        page_bytes;
        predictor;
        prefetch_next_line;
        l1i_latency;
        l1_latency;
        l2_latency;
        mem_latency;
        mispredict_penalty;
        dtlb_penalty;
        ops;
      }
  | _ -> err "machine description must be a JSON object"

(* ---------------- documents and files ---------------- *)

let parse_string ~source contents =
  let prefix msg = Printf.sprintf "%s: %s" source msg in
  match Json.parse contents with
  | Error msg ->
    Error (prefix (Printf.sprintf "not valid JSON (%s) — is the file truncated?" msg))
  | Ok json -> Result.map_error prefix (of_json json)

let load path =
  match Mica_util.Artifact.read path with
  | Ok contents -> parse_string ~source:path contents
  | Error e ->
    err "cannot read machine description %s: %s" path (Mica_util.Artifact.describe_error e)

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
          let* cfg = load (Filename.concat dir f) in
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

(* ---------------- compiled-in descriptions ---------------- *)

(* The texts are the committed files, embedded by the dune rule; one that
   does not parse is a broken build, not bad input. *)
let compiled_in file text =
  match parse_string ~source:("machines/" ^ file) text with
  | Ok cfg -> cfg
  | Error msg -> failwith ("compiled-in machine description " ^ msg)

(* Parsed by the first use, not at module initialization, so a process
   that runs no machine pays nothing.  Under a mutex rather than a
   [Lazy.t]: pool worker domains build the paper's counters concurrently,
   and a [Lazy.force] racing another domain raises. *)
let compiled = Atomic.make None
let compiled_mutex = Mutex.create ()

let get_compiled () =
  match Atomic.get compiled with
  | Some c -> c
  | None ->
    Mutex.protect compiled_mutex (fun () ->
        match Atomic.get compiled with
        | Some c -> c
        | None ->
          let c =
            ( [
                compiled_in "ev56.json" Preset_files.ev56;
                compiled_in "ev67.json" Preset_files.ev67;
                compiled_in "embedded.json" Preset_files.embedded;
                compiled_in "wide.json" Preset_files.wide;
              ],
              compiled_in "paper/ev67.json" Preset_files.paper_ev67 )
          in
          Atomic.set compiled (Some c);
          c)

let presets () = fst (get_compiled ())
let paper_ev67 () = snd (get_compiled ())
