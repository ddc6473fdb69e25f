module Matrix = Mica_stats.Matrix
module Csv = Mica_util.Csv
module Artifact = Mica_util.Artifact

type t = { names : string array; features : string array; data : Matrix.t }

let create ~names ~features data =
  let rows, cols = Matrix.dims data in
  if rows <> Array.length names then invalid_arg "Dataset.create: row label count mismatch";
  if rows > 0 && cols <> Array.length features then
    invalid_arg "Dataset.create: feature label count mismatch";
  { names; features; data }

let rows t = Array.length t.names
let cols t = Array.length t.features

let index_of labels needle =
  let n = Array.length labels in
  let rec go i = if i >= n then None else if labels.(i) = needle then Some i else go (i + 1) in
  go 0

let row_index t name = index_of t.names name

let row_exn t name =
  match row_index t name with
  | Some i -> t.data.(i)
  | None -> invalid_arg (Printf.sprintf "Dataset.row_exn: unknown row %S" name)

let select_features t idx =
  {
    names = t.names;
    features = Array.map (fun j -> t.features.(j)) idx;
    data = Matrix.select_columns t.data idx;
  }

let csv t =
  Csv.table ~columns:t.features (Array.to_list (Array.map2 (fun n row -> (n, row)) t.names t.data))

let to_csv t path = Artifact.write path (csv t)

let of_csv path =
  match Csv.of_file path with
  | [] -> failwith (Printf.sprintf "Dataset.of_csv: %s is empty" path)
  | header :: body ->
    let features =
      match header with
      | "name" :: rest -> Array.of_list rest
      | _ -> failwith (Printf.sprintf "Dataset.of_csv: %s lacks a 'name' header" path)
    in
    let parse_row row =
      match row with
      | name :: values ->
        if List.length values <> Array.length features then
          failwith (Printf.sprintf "Dataset.of_csv: %s: row %s has wrong arity" path name);
        (name, Array.of_list (List.map float_of_string values))
      | [] -> failwith (Printf.sprintf "Dataset.of_csv: %s has an empty row" path)
    in
    let parsed = List.map parse_row body in
    {
      names = Array.of_list (List.map fst parsed);
      features;
      data = Array.of_list (List.map snd parsed);
    }
