type status =
  | Computed of { attempts : int }
  | Cached
  | Resumed
  | Failed of { attempts : int; error : string; backtrace : string }

type timing = { elapsed_s : float; minor_words : float }
type entry = { id : string; status : status; timing : timing option }
type t = { entries : entry list }

let create entries = { entries }
let entries t = t.entries

let count pred t =
  List.fold_left (fun n e -> if pred e.status then n + 1 else n) 0 t.entries

let computed = count (function Computed _ -> true | _ -> false)
let cached = count (function Cached -> true | _ -> false)
let resumed = count (function Resumed -> true | _ -> false)

let retried =
  count (function
    | Computed { attempts } | Failed { attempts; _ } -> attempts > 1
    | _ -> false)

let failures t =
  List.filter (fun e -> match e.status with Failed _ -> true | _ -> false) t.entries

let timings t =
  List.filter_map (fun e -> Option.map (fun tm -> (e.id, tm)) e.timing) t.entries

let all_ok t = failures t = []

let summary t =
  let retried = retried t in
  Printf.sprintf "%d computed%s, %d cached, %d resumed, %d failed" (computed t)
    (if retried > 0 then Printf.sprintf " (%d retried)" retried else "")
    (cached t) (resumed t)
    (List.length (failures t))

let render t =
  let b = Buffer.create 256 in
  Buffer.add_string b (summary t);
  Buffer.add_char b '\n';
  List.iter
    (fun e ->
      match e.status with
      | Failed { attempts; error; backtrace } ->
        Buffer.add_string b
          (Printf.sprintf "FAILED %s after %d attempt%s: %s\n" e.id attempts
             (if attempts = 1 then "" else "s")
             error);
        let backtrace = String.trim backtrace in
        if backtrace <> "" then
          String.split_on_char '\n' backtrace
          |> List.iter (fun line ->
                 Buffer.add_string b "  ";
                 Buffer.add_string b line;
                 Buffer.add_char b '\n')
      | _ -> ())
    t.entries;
  Buffer.contents b
