module Json = Mica_obs.Json

type op =
  | Characterize of { workload : string; estimate : bool }
  | Distance of { a : string; b : string }
  | Classify of { workload : string; threshold : float }
  | Knn of { workload : string; k : int }
  | Health
  | Metrics

type request = { id : int; op : op; deadline_ms : float option }

type status = Ok | Error | Overloaded | Deadline | Quarantined | Draining

type payload =
  | Vector of { mica : float array; hpc : float array; estimated : bool; cached : bool }
  | Number of float
  | Classification of { nearest : string; distance : float; threshold : float; within : bool }
  | Neighbors of (string * float) list
  | Health_info of { queue_depth : int; queue_capacity : int; draining : bool; warm : int }
  | Text of string

type response = {
  rid : int;
  status : status;
  payload : payload option;
  error : string option;
  backtrace : string option;
  elapsed_ms : float;
  retry_after_ms : float option;
}

let status_name = function
  | Ok -> "ok"
  | Error -> "error"
  | Overloaded -> "overloaded"
  | Deadline -> "deadline"
  | Quarantined -> "quarantined"
  | Draining -> "draining"

let status_of_name = function
  | "ok" -> Some Ok
  | "error" -> Some Error
  | "overloaded" -> Some Overloaded
  | "deadline" -> Some Deadline
  | "quarantined" -> Some Quarantined
  | "draining" -> Some Draining
  | _ -> None

(* ---------------- encoding ---------------- *)

let num_list a = Json.List (Array.to_list (Array.map (fun v -> Json.Num v) a))

let encode_op = function
  | Characterize { workload; estimate } ->
    [ ("op", Json.Str "characterize"); ("workload", Json.Str workload);
      ("estimate", Json.Bool estimate) ]
  | Distance { a; b } -> [ ("op", Json.Str "distance"); ("a", Json.Str a); ("b", Json.Str b) ]
  | Classify { workload; threshold } ->
    [ ("op", Json.Str "classify"); ("workload", Json.Str workload);
      ("threshold", Json.Num threshold) ]
  | Knn { workload; k } ->
    [ ("op", Json.Str "knn"); ("workload", Json.Str workload); ("k", Json.Num (float_of_int k)) ]
  | Health -> [ ("op", Json.Str "health") ]
  | Metrics -> [ ("op", Json.Str "metrics") ]

let encode_request r =
  let fields =
    (("id", Json.Num (float_of_int r.id)) :: encode_op r.op)
    @ match r.deadline_ms with None -> [] | Some d -> [ ("deadline_ms", Json.Num d) ]
  in
  Json.to_string ~bare_non_finite:true (Json.Obj fields)

let encode_payload = function
  | Vector { mica; hpc; estimated; cached } ->
    Json.Obj
      [ ("kind", Json.Str "vector"); ("estimated", Json.Bool estimated);
        ("cached", Json.Bool cached); ("mica", num_list mica); ("hpc", num_list hpc) ]
  | Number v -> Json.Obj [ ("kind", Json.Str "number"); ("value", Json.Num v) ]
  | Classification { nearest; distance; threshold; within } ->
    Json.Obj
      [ ("kind", Json.Str "classification"); ("nearest", Json.Str nearest);
        ("distance", Json.Num distance); ("threshold", Json.Num threshold);
        ("within", Json.Bool within) ]
  | Neighbors items ->
    Json.Obj
      [ ("kind", Json.Str "neighbors");
        ( "items",
          Json.List
            (List.map
               (fun (name, d) ->
                 Json.Obj [ ("name", Json.Str name); ("distance", Json.Num d) ])
               items) ) ]
  | Health_info { queue_depth; queue_capacity; draining; warm } ->
    Json.Obj
      [ ("kind", Json.Str "health"); ("queue_depth", Json.Num (float_of_int queue_depth));
        ("queue_capacity", Json.Num (float_of_int queue_capacity));
        ("draining", Json.Bool draining); ("warm", Json.Num (float_of_int warm)) ]
  | Text s -> Json.Obj [ ("kind", Json.Str "text"); ("text", Json.Str s) ]

let encode_response r =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  let fields =
    [ ("id", Json.Num (float_of_int r.rid)); ("status", Json.Str (status_name r.status)) ]
    @ opt "payload" encode_payload r.payload
    @ opt "error" (fun s -> Json.Str s) r.error
    @ opt "backtrace" (fun s -> Json.Str s) r.backtrace
    @ [ ("elapsed_ms", Json.Num r.elapsed_ms) ]
    @ opt "retry_after_ms" (fun v -> Json.Num v) r.retry_after_ms
  in
  Json.to_string ~bare_non_finite:true (Json.Obj fields)

(* ---------------- decoding ---------------- *)

let ( let* ) = Result.bind

let field name j = Option.to_result ~none:(Printf.sprintf "missing field %S" name) (Json.member name j)

let str name j =
  let* v = field name j in
  Option.to_result ~none:(Printf.sprintf "field %S is not a string" name) (Json.to_str v)

let num name j =
  let* v = field name j in
  Option.to_result ~none:(Printf.sprintf "field %S is not a number" name) (Json.to_num v)

(* An integer field: a JSON number with no fractional part within
   [±2^53] ([Json.to_int]). *)
let integer name j =
  let* x = num name j in
  Option.to_result
    ~none:(Printf.sprintf "field %S is not an integer within +/-2^53" name)
    (Json.to_int (Json.Num x))

let boolean name j =
  let* v = field name j in
  match v with Json.Bool b -> Result.Ok b | _ -> Result.Error (Printf.sprintf "field %S is not a bool" name)

let opt_num name j =
  match Json.member name j with
  | None | Some Json.Null -> Result.Ok None
  | Some v ->
    Option.to_result
      ~none:(Printf.sprintf "field %S is not a number" name)
      (Option.map Option.some (Json.to_num v))

let opt_str name j =
  match Json.member name j with
  | None | Some Json.Null -> Result.Ok None
  | Some v ->
    Option.to_result
      ~none:(Printf.sprintf "field %S is not a string" name)
      (Option.map Option.some (Json.to_str v))

let floats name j =
  let* v = field name j in
  match v with
  | Json.List items ->
    let rec go acc = function
      | [] -> Result.Ok (Array.of_list (List.rev acc))
      | Json.Num x :: rest -> go (x :: acc) rest
      | _ -> Result.Error (Printf.sprintf "field %S holds a non-number" name)
    in
    go [] items
  | _ -> Result.Error (Printf.sprintf "field %S is not an array" name)

let decode_op j =
  let* op = str "op" j in
  match op with
  | "characterize" ->
    let* workload = str "workload" j in
    let estimate = match Json.member "estimate" j with Some (Json.Bool b) -> b | _ -> false in
    Result.Ok (Characterize { workload; estimate })
  | "distance" ->
    let* a = str "a" j in
    let* b = str "b" j in
    Result.Ok (Distance { a; b })
  | "classify" ->
    let* workload = str "workload" j in
    let* threshold = num "threshold" j in
    Result.Ok (Classify { workload; threshold })
  | "knn" ->
    let* workload = str "workload" j in
    let* k = integer "k" j in
    Result.Ok (Knn { workload; k })
  | "health" -> Result.Ok Health
  | "metrics" -> Result.Ok Metrics
  | other -> Result.Error (Printf.sprintf "unknown op %S" other)

let decode_request line =
  let* j = Json.parse line in
  let* id = integer "id" j in
  let* op = decode_op j in
  let* deadline_ms = opt_num "deadline_ms" j in
  Result.Ok { id; op; deadline_ms }

let decode_payload j =
  let* kind = str "kind" j in
  match kind with
  | "vector" ->
    let* estimated = boolean "estimated" j in
    let* cached = boolean "cached" j in
    let* mica = floats "mica" j in
    let* hpc = floats "hpc" j in
    Result.Ok (Vector { mica; hpc; estimated; cached })
  | "number" ->
    let* value = num "value" j in
    Result.Ok (Number value)
  | "classification" ->
    let* nearest = str "nearest" j in
    let* distance = num "distance" j in
    let* threshold = num "threshold" j in
    let* within = boolean "within" j in
    Result.Ok (Classification { nearest; distance; threshold; within })
  | "neighbors" ->
    let* items = field "items" j in
    let* items =
      match items with
      | Json.List l ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* name = str "name" item in
            let* d = num "distance" item in
            Result.Ok ((name, d) :: acc))
          (Result.Ok []) l
        |> Result.map List.rev
      | _ -> Result.Error "field \"items\" is not an array"
    in
    Result.Ok (Neighbors items)
  | "health" ->
    let* queue_depth = integer "queue_depth" j in
    let* queue_capacity = integer "queue_capacity" j in
    let* draining = boolean "draining" j in
    let* warm = integer "warm" j in
    Result.Ok (Health_info { queue_depth; queue_capacity; draining; warm })
  | "text" ->
    let* text = str "text" j in
    Result.Ok (Text text)
  | other -> Result.Error (Printf.sprintf "unknown payload kind %S" other)

let decode_response line =
  let* j = Json.parse line in
  let* rid = integer "id" j in
  let* status_s = str "status" j in
  let* status =
    Option.to_result ~none:(Printf.sprintf "unknown status %S" status_s) (status_of_name status_s)
  in
  let* payload =
    match Json.member "payload" j with
    | None | Some Json.Null -> Result.Ok None
    | Some p -> Result.map Option.some (decode_payload p)
  in
  let* error = opt_str "error" j in
  let* backtrace = opt_str "backtrace" j in
  let* elapsed_ms = num "elapsed_ms" j in
  let* retry_after_ms = opt_num "retry_after_ms" j in
  Result.Ok { rid; status; payload; error; backtrace; elapsed_ms; retry_after_ms }

let error_response ~rid ?backtrace ?(elapsed_ms = 0.0) msg =
  {
    rid;
    status = Error;
    payload = None;
    error = Some msg;
    backtrace;
    elapsed_ms;
    retry_after_ms = None;
  }
