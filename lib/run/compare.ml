module Json = Mica_obs.Json

type tolerance = { char_rel : float; bench_rel : float }

let default_tolerance = { char_rel = 1e-6; bench_rel = 0.5 }

type cell_delta = {
  column : string;
  worst_row : string;
  a : float;
  b : float;
  rel : float;
  exceeded : bool;
}

type bench_delta = {
  bench : string;
  a_ns : float;
  b_ns : float;
  rel_ns : float;
  regression : bool;
  improvement : bool;
}

type t = {
  run_a : string;
  run_b : string;
  tol : tolerance;
  char_deltas : cell_delta list;
  counter_deltas : cell_delta list;
  bench_deltas : bench_delta list;
  notes : string list;
}

(* Antisymmetric under swap and total: [compare] orders NaNs, so two
   bit-equal non-finite cells read as zero delta, while a finite/NaN pair
   falls through to the non-finite branch and is flagged. *)
let symrel a b =
  if compare a b = 0 then 0.0
  else if not (Float.is_finite a && Float.is_finite b) then Float.nan
  else (b -. a) /. Float.max (Float.abs a) (Float.abs b)

let index_of arr =
  let tbl = Hashtbl.create (Array.length arr) in
  Array.iteri (fun i x -> Hashtbl.replace tbl x i) arr;
  tbl

(* One delta per column present in both tables: the worst (largest |rel|)
   cell over the rows the tables share, with the workload it occurs at. *)
let table_deltas ~tol_rel (ta : Run_dir.table) (tb : Run_dir.table) =
  let rows_b = index_of tb.Run_dir.row_names in
  let cols_b = index_of tb.Run_dir.columns in
  (* (name, row index in A, row index in B) for the rows both tables hold *)
  let common_rows =
    Array.to_list
      (Array.mapi
         (fun ri name -> Option.map (fun rj -> (name, ri, rj)) (Hashtbl.find_opt rows_b name))
         ta.Run_dir.row_names)
    |> List.filter_map Fun.id
  in
  let deltas =
    Array.to_list ta.Run_dir.columns
    |> List.mapi (fun ci column -> (ci, column))
    |> List.filter_map (fun (ci, column) ->
           match Hashtbl.find_opt cols_b column with
           | None -> None
           | Some cj ->
             let worst = ref { column; worst_row = ""; a = 0.0; b = 0.0; rel = 0.0; exceeded = false } in
             let worst_mag = ref (-1.0) in
             List.iter
               (fun (name, ri, rj) ->
                 let a = ta.Run_dir.cells.(ri).(ci) in
                 let b = tb.Run_dir.cells.(rj).(cj) in
                 let rel = symrel a b in
                 let mag = if Float.is_nan rel then Float.infinity else Float.abs rel in
                 if mag > !worst_mag then begin
                   worst_mag := mag;
                   worst :=
                     {
                       column;
                       worst_row = name;
                       a;
                       b;
                       rel;
                       exceeded = Float.is_nan rel || Float.abs rel > tol_rel;
                     }
                 end)
               common_rows;
             if common_rows = [] then None else Some !worst)
  in
  let only_in label (xs : string array) (other : (string, int) Hashtbl.t) =
    let missing = Array.to_list xs |> List.filter (fun x -> not (Hashtbl.mem other x)) in
    match missing with
    | [] -> []
    | _ ->
      [
        Printf.sprintf "%s only in one run: %s" label
          (String.concat ", " (if List.length missing > 6 then
             List.filteri (fun i _ -> i < 6) missing @ [ Printf.sprintf "... (%d total)" (List.length missing) ]
           else missing));
      ]
  in
  let rows_a = index_of ta.Run_dir.row_names in
  let cols_a = index_of ta.Run_dir.columns in
  let notes =
    only_in "workloads" ta.Run_dir.row_names rows_b
    @ only_in "workloads" tb.Run_dir.row_names rows_a
    @ only_in "columns" ta.Run_dir.columns cols_b
    @ only_in "columns" tb.Run_dir.columns cols_a
  in
  (deltas, notes)

(* bench.json results: [{"name": ..., "ns_per_run": ...}, ...] *)
let bench_results json =
  match Json.member "results" json with
  | Some (Json.List items) ->
    List.filter_map
      (fun item ->
        match (Json.member "name" item, Json.member "ns_per_run" item) with
        | Some (Json.Str name), Some v -> Option.map (fun ns -> (name, ns)) (Json.to_float v)
        | _ -> None)
      items
  | _ -> []

let bench_deltas ~tol_rel a b =
  let ra = bench_results a and rb = bench_results b in
  let deltas =
    List.filter_map
      (fun (name, a_ns) ->
        match List.assoc_opt name rb with
        | None -> None
        | Some b_ns ->
          let rel_ns = symrel a_ns b_ns in
          Some
            {
              bench = name;
              a_ns;
              b_ns;
              rel_ns;
              regression = Float.is_nan rel_ns || rel_ns > tol_rel;
              improvement = (not (Float.is_nan rel_ns)) && rel_ns < -.tol_rel;
            })
      ra
  in
  let only label xs other =
    match List.filter (fun (n, _) -> List.assoc_opt n other = None) xs with
    | [] -> []
    | missing ->
      [ Printf.sprintf "benches only in %s: %s" label (String.concat ", " (List.map fst missing)) ]
  in
  (deltas, only "A" ra rb @ only "B" rb ra)

let run ?(tol = default_tolerance) (a : Run_dir.t) (b : Run_dir.t) =
  let pair f oa ob =
    match (oa, ob) with Some x, Some y -> f x y | _ -> ([], [])
  in
  let char_deltas, char_notes =
    pair (table_deltas ~tol_rel:tol.char_rel) a.Run_dir.mica b.Run_dir.mica
  in
  let counter_deltas, counter_notes =
    pair (table_deltas ~tol_rel:tol.char_rel) a.Run_dir.hpc b.Run_dir.hpc
  in
  let bench_deltas, bench_notes =
    pair (bench_deltas ~tol_rel:tol.bench_rel) a.Run_dir.bench b.Run_dir.bench
  in
  let shape_notes =
    List.filter_map
      (fun (label, in_a, in_b) ->
        match (in_a, in_b) with
        | true, false -> Some (Printf.sprintf "%s present only in A" label)
        | false, true -> Some (Printf.sprintf "%s present only in B" label)
        | _ -> None)
      [
        ("mica dataset", a.Run_dir.mica <> None, b.Run_dir.mica <> None);
        ("hpc dataset", a.Run_dir.hpc <> None, b.Run_dir.hpc <> None);
        ("bench results", a.Run_dir.bench <> None, b.Run_dir.bench <> None);
      ]
  in
  {
    run_a = a.Run_dir.dir;
    run_b = b.Run_dir.dir;
    tol;
    char_deltas;
    counter_deltas;
    bench_deltas;
    notes = char_notes @ counter_notes @ bench_notes @ shape_notes;
  }

let drift t = List.filter (fun d -> d.exceeded) (t.char_deltas @ t.counter_deltas)
let regressions t = List.filter (fun d -> d.regression) t.bench_deltas
let ok t = drift t = [] && regressions t = []

let render t =
  let b = Buffer.create 2048 in
  Buffer.add_string b (Printf.sprintf "compare %s -> %s\n" t.run_a t.run_b);
  Buffer.add_string b
    (Printf.sprintf "tolerances: characteristics %.3g rel, bench %.3g rel\n" t.tol.char_rel
       t.tol.bench_rel);
  let cells label deltas =
    let exceeded = List.filter (fun d -> d.exceeded) deltas in
    Buffer.add_string b
      (Printf.sprintf "%s: %d compared, %d beyond tolerance\n" label (List.length deltas)
         (List.length exceeded));
    List.iter
      (fun d ->
        Buffer.add_string b
          (Printf.sprintf "  DRIFT %-12s at %-45s %14.6g -> %-14.6g (rel %+.3g)\n" d.column
             d.worst_row d.a d.b d.rel))
      exceeded
  in
  cells "characteristics" t.char_deltas;
  cells "counters" t.counter_deltas;
  let regs = regressions t in
  let imps = List.filter (fun d -> d.improvement) t.bench_deltas in
  Buffer.add_string b
    (Printf.sprintf "benches: %d compared, %d regressions, %d improvements\n"
       (List.length t.bench_deltas) (List.length regs) (List.length imps));
  List.iter
    (fun d ->
      Buffer.add_string b
        (Printf.sprintf "  REGRESSION %-36s %12.0f ns -> %12.0f ns (rel %+.3f)\n" d.bench d.a_ns
           d.b_ns d.rel_ns))
    regs;
  List.iter
    (fun d ->
      Buffer.add_string b
        (Printf.sprintf "  improved   %-36s %12.0f ns -> %12.0f ns (rel %+.3f)\n" d.bench d.a_ns
           d.b_ns d.rel_ns))
    imps;
  List.iter (fun n -> Buffer.add_string b (Printf.sprintf "  note: %s\n" n)) t.notes;
  Buffer.add_string b (if ok t then "verdict: OK\n" else "verdict: REGRESSION\n");
  Buffer.contents b

let to_json t =
  let cell d =
    Json.Obj
      [
        ("column", Json.Str d.column);
        ("worst_row", Json.Str d.worst_row);
        ("a", Json.Num d.a);
        ("b", Json.Num d.b);
        ("rel", Json.Num d.rel);
        ("exceeded", Json.Bool d.exceeded);
      ]
  in
  let bench d =
    Json.Obj
      [
        ("bench", Json.Str d.bench);
        ("a_ns", Json.Num d.a_ns);
        ("b_ns", Json.Num d.b_ns);
        ("rel", Json.Num d.rel_ns);
        ("regression", Json.Bool d.regression);
        ("improvement", Json.Bool d.improvement);
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str "mica-compare/v1");
      ("run_a", Json.Str t.run_a);
      ("run_b", Json.Str t.run_b);
      ( "tolerance",
        Json.Obj
          [ ("char_rel", Json.Num t.tol.char_rel); ("bench_rel", Json.Num t.tol.bench_rel) ] );
      ("ok", Json.Bool (ok t));
      ("drift", Json.Num (float_of_int (List.length (drift t))));
      ("regressions", Json.Num (float_of_int (List.length (regressions t))));
      ("characteristics", Json.List (List.map cell t.char_deltas));
      ("counters", Json.List (List.map cell t.counter_deltas));
      ("benches", Json.List (List.map bench t.bench_deltas));
      ("notes", Json.List (List.map (fun n -> Json.Str n) t.notes));
    ]
