module Json = Mica_obs.Json
module Descriptive = Mica_stats.Descriptive

type row = {
  metric : string;
  present : int;
  dropped : int;
  stats : Descriptive.summary;
  noisy : bool;
}

type t = {
  budget : float;
  runs : string list;
  rows : row list;
}

let default_budget = 0.2

let column_means (table : Run_dir.table) =
  let rows = Array.length table.Run_dir.cells in
  Array.to_list
    (Array.mapi
       (fun ci name ->
         let acc = ref 0.0 in
         for ri = 0 to rows - 1 do
           acc := !acc +. table.Run_dir.cells.(ri).(ci)
         done;
         (name, if rows = 0 then 0.0 else !acc /. float_of_int rows))
       table.Run_dir.columns)

let bench_metrics json =
  match Json.member "results" json with
  | Some (Json.List items) ->
    List.filter_map
      (fun item ->
        match (Json.member "name" item, Json.member "ns_per_run" item) with
        | Some (Json.Str name), Some v ->
          (* a null measurement (the bench writes null for a failed OLS
             fit) surfaces as a non-finite sample so [analyze] can count
             it as dropped instead of losing it silently *)
          Some ("bench/" ^ name, Option.value (Json.to_float v) ~default:Float.nan)
        | _ -> None)
      items
  | _ -> []

let span_metrics json =
  match Json.member "spans" json with
  | Some (Json.Obj spans) ->
    List.filter_map
      (fun (name, v) ->
        match Json.member "total_s" v with
        | Some t -> Option.map (fun s -> ("span/" ^ name, s)) (Json.to_float t)
        | None -> None)
      spans
  | _ -> []

let metrics_of_run (r : Run_dir.t) =
  let table prefix = function
    | None -> []
    | Some t -> List.map (fun (name, v) -> (prefix ^ name, v)) (column_means t)
  in
  table "char/" r.Run_dir.mica
  @ table "counter/" r.Run_dir.hpc
  @ (match r.Run_dir.bench with None -> [] | Some j -> bench_metrics j)
  @ match r.Run_dir.metrics with None -> [] | Some j -> span_metrics j

let analyze ?(budget = default_budget) runs =
  let per_run = List.map metrics_of_run runs in
  (* first-seen order of metric names across runs *)
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (List.iter (fun (name, _) ->
         if not (Hashtbl.mem seen name) then begin
           Hashtbl.replace seen name ();
           order := name :: !order
         end))
    per_run;
  let rows =
    List.rev !order
    |> List.filter_map (fun metric ->
           let found =
             List.filter_map (fun metrics -> List.assoc_opt metric metrics) per_run
           in
           (* non-finite samples (NaN characteristics, null bench fits)
              can't enter the summary; count them so the report says
              dropped=<n> instead of silently shrinking n *)
           let samples = List.filter Float.is_finite found in
           let dropped = List.length found - List.length samples in
           let present = List.length samples in
           if present < 2 then None
           else begin
             let stats = Descriptive.summarize (Array.of_list samples) in
             Some { metric; present; dropped; stats; noisy = stats.Descriptive.cv > budget }
           end)
  in
  let by_cv a b = compare b.stats.Descriptive.cv a.stats.Descriptive.cv in
  {
    budget;
    runs = List.map (fun (r : Run_dir.t) -> r.Run_dir.dir) runs;
    rows = List.stable_sort by_cv rows;
  }

let noisy t = List.filter (fun r -> r.noisy) t.rows

let render t =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "variance over %d runs (noise budget CV %.3g):\n" (List.length t.runs)
       t.budget);
  List.iter (fun r -> Buffer.add_string b (Printf.sprintf "  run %s\n" r)) t.runs;
  Buffer.add_string b
    (Printf.sprintf "%-44s %4s %14s %12s %8s\n" "metric" "n" "mean" "stddev" "cv");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-44s %4d %14.6g %12.4g %8.4f%s%s\n" r.metric r.present
           r.stats.Descriptive.mean_v r.stats.Descriptive.stddev_v r.stats.Descriptive.cv
           (if r.dropped > 0 then Printf.sprintf "  dropped=%d" r.dropped else "")
           (if r.noisy then "  NOISY" else "")))
    t.rows;
  let n = List.length (noisy t) in
  Buffer.add_string b
    (if n = 0 then "all metrics within the noise budget\n"
     else Printf.sprintf "%d metric(s) exceed the noise budget\n" n);
  Buffer.contents b

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str "mica-variance/v1");
      ("budget", Json.Num t.budget);
      ("runs", Json.List (List.map (fun r -> Json.Str r) t.runs));
      ("noisy", Json.Num (float_of_int (List.length (noisy t))));
      ( "metrics",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("metric", Json.Str r.metric);
                   ("n", Json.Num (float_of_int r.present));
                   ("dropped", Json.Num (float_of_int r.dropped));
                   ("mean", Json.Num r.stats.Descriptive.mean_v);
                   ("stddev", Json.Num r.stats.Descriptive.stddev_v);
                   ("cv", Json.Num r.stats.Descriptive.cv);
                   ("noisy", Json.Bool r.noisy);
                 ])
             t.rows) );
    ]
