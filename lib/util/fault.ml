type point =
  | Trace_gen
  | Analyzer_chunk
  | Cache_read
  | Cache_write
  | Pool_worker
  | Pool_crash

let all_points =
  [ Trace_gen; Analyzer_chunk; Cache_read; Cache_write; Pool_worker; Pool_crash ]

let point_name = function
  | Trace_gen -> "trace.gen"
  | Analyzer_chunk -> "analyzer.chunk"
  | Cache_read -> "cache.read"
  | Cache_write -> "cache.write"
  | Pool_worker -> "pool.worker"
  | Pool_crash -> "pool.crash"

let point_of_name s =
  List.find_opt (fun p -> String.equal (point_name p) s) all_points

let point_index = function
  | Trace_gen -> 1
  | Analyzer_chunk -> 2
  | Cache_read -> 3
  | Cache_write -> 4
  | Pool_worker -> 5
  | Pool_crash -> 6

exception Injected of string

type rule = { prob : float; only_task : int option }
type t = { seed : int; rules : (point * rule) list }

(* ---- spec parsing: "seed=N,point=prob[@task],..." ---- *)

let parse spec =
  let items =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let exception Bad of string in
  try
    if items = [] then raise (Bad "empty fault spec");
    let seed = ref 0 and rules = ref [] in
    List.iter
      (fun item ->
        match String.index_opt item '=' with
        | None -> raise (Bad (Printf.sprintf "%S: expected key=value" item))
        | Some eq ->
          let key = String.trim (String.sub item 0 eq) in
          let value =
            String.trim (String.sub item (eq + 1) (String.length item - eq - 1))
          in
          if String.equal key "seed" then
            match int_of_string_opt value with
            | Some s -> seed := s
            | None -> raise (Bad (Printf.sprintf "seed=%S: not an integer" value))
          else begin
            let point =
              match point_of_name key with
              | Some p -> p
              | None ->
                raise
                  (Bad
                     (Printf.sprintf "unknown injection point %S (one of %s)" key
                        (String.concat ", " (List.map point_name all_points))))
            in
            if List.mem_assoc point !rules then
              raise (Bad (Printf.sprintf "duplicate rule for %s" key));
            let prob_str, only_task =
              match String.index_opt value '@' with
              | None -> (value, None)
              | Some at ->
                let task =
                  String.sub value (at + 1) (String.length value - at - 1)
                in
                (match int_of_string_opt task with
                | Some task when task >= 0 ->
                  (String.sub value 0 at, Some task)
                | _ ->
                  raise
                    (Bad (Printf.sprintf "%s=%s: bad @task index" key value)))
            in
            match float_of_string_opt prob_str with
            | Some prob when Float.is_finite prob && prob >= 0.0 && prob <= 1.0
              ->
              rules := (point, { prob; only_task }) :: !rules
            | _ ->
              raise
                (Bad
                   (Printf.sprintf "%s=%S: probability must lie in [0, 1]" key
                      prob_str))
          end)
      items;
    if !rules = [] then raise (Bad "no injection points given");
    Ok { seed = !seed; rules = List.rev !rules }
  with Bad msg -> Error msg

let to_string t =
  let rule (p, { prob; only_task }) =
    match only_task with
    | None -> Printf.sprintf "%s=%g" (point_name p) prob
    | Some task -> Printf.sprintf "%s=%g@%d" (point_name p) prob task
  in
  String.concat "," (Printf.sprintf "seed=%d" t.seed :: List.map rule t.rules)

(* ---- installed plan ---- *)

let current : t option Atomic.t = Atomic.make None
let install plan = Atomic.set current plan
let installed () = Atomic.get current
let enabled () = Atomic.get current <> None

let with_plan plan f =
  let prev = Atomic.get current in
  Atomic.set current plan;
  Fun.protect ~finally:(fun () -> Atomic.set current prev) f

(* ---- ambient (task, attempt) identity, per domain ---- *)

let context_key : (int * int) Domain.DLS.key = Domain.DLS.new_key (fun () -> (0, 0))

let with_context ~task ~attempt f =
  let prev = Domain.DLS.get context_key in
  Domain.DLS.set context_key (task, attempt);
  Fun.protect ~finally:(fun () -> Domain.DLS.set context_key prev) f

(* ---- firing decision: splitmix64 over (seed, point, task, attempt, key) ---- *)

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let golden = 0x9E3779B97F4A7C15L

let feed h x = mix64 (Int64.add (Int64.mul h golden) (Int64.of_int x))

let uniform t point ~task ~attempt ~key =
  let h = feed (feed (feed (feed (feed 0x5DEECE66DL t.seed) (point_index point)) task) attempt) key in
  (* top 53 bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53

let fires_with t point ~task ~attempt ~key =
  match List.assoc_opt point t.rules with
  | None -> false
  | Some { prob; only_task } ->
    (match only_task with
    | Some only when only <> task -> false
    | _ -> prob > 0.0 && uniform t point ~task ~attempt ~key < prob)

let m_injected = Mica_obs.Obs.counter "fault.injected"

let check point ~key =
  match Atomic.get current with
  | None -> ()
  | Some t ->
    let task, attempt = Domain.DLS.get context_key in
    if fires_with t point ~task ~attempt ~key then begin
      Mica_obs.Obs.incr m_injected;
      raise
        (Injected
           (Printf.sprintf "injected fault at %s (task %d, attempt %d, site %d)"
              (point_name point) task attempt key))
    end

(* MICA_FAULTS makes the plan ambient for whole-process runs (CI, CLI). *)
let () =
  match Sys.getenv_opt "MICA_FAULTS" with
  | None | Some "" -> ()
  | Some spec ->
    (match parse spec with
    | Ok plan -> install (Some plan)
    | Error msg -> Printf.eprintf "mica: ignoring bad MICA_FAULTS: %s\n%!" msg)
