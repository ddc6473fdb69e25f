(* Interface guard: every value exported from a lib/*/*.mli must have a
   caller outside its own module, in lib/, bin/, bench/, examples/ or
   perfbench/, or be named in test/interface_allow.txt as a test oracle, a
   seam tests drive production code through, or a safety check.

   The search is by word, with comments and string literals stripped: an
   export is used when its name appears as a whole identifier in any
   scanned file other than its own module's .ml and .mli.  A name another
   module also happens to use counts as used, so the guard can miss a dead
   value but never flags a live one. *)

(* [src] with every comment (nested), string literal, quoted string
   ([{id|...|id}]) and character literal blanked to spaces, newlines kept. *)
let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i j =
    for k = i to min n j - 1 do
      if Bytes.get out k <> '\n' then Bytes.set out k ' '
    done
  in
  let is_ident c =
    match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true | _ -> false
  in
  (* Index just past the literal that starts at [i], if one does. *)
  let string_end i =
    let rec go j =
      if j >= n then n else match src.[j] with '"' -> j + 1 | '\\' -> go (j + 2) | _ -> go (j + 1)
    in
    go (i + 1)
  in
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if !j >= n || src.[!j] <> '|' then None
    else
      let close = "|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let rec find k =
        if k + m > n then n else if String.sub src k m = close then k + m else find (k + 1)
      in
      Some (find (!j + 1))
  in
  let char_end i =
    if i > 0 && is_ident src.[i - 1] then None
    else if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' then Some (i + 3)
    else if i + 1 < n && src.[i + 1] = '\\' then
      let rec go j = if j >= n || j > i + 6 then None else if src.[j] = '\'' then Some (j + 1) else go (j + 1) in
      go (i + 3)
    else None
  in
  (* A literal at [i] (in code or inside a comment): its end, if any. *)
  let literal_end i =
    match src.[i] with
    | '"' -> Some (string_end i)
    | '{' -> quoted_end i
    | '\'' -> char_end i
    | _ -> None
  in
  let rec comment_end depth i =
    if i >= n then n
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then comment_end (depth + 1) (i + 2)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment_end (depth - 1) (i + 2)
    else match literal_end i with Some j -> comment_end depth j | None -> comment_end depth (i + 1)
  in
  let rec code i =
    if i < n then
      if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
        let j = comment_end 1 (i + 2) in
        blank i j;
        code j
      end
      else
        match literal_end i with
        | Some j ->
            blank i j;
            code j
        | None -> code (i + 1)
  in
  code 0;
  Bytes.to_string out

(* The identifiers of stripped text, with the index each starts at.  A
   number is skipped whole, so [1e9] yields no [e9]. *)
let idents text =
  let n = String.length text in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match text.[i] with
      | 'A' .. 'Z' | 'a' .. 'z' | '_' | '0' .. '9' ->
          let j = ref i in
          while
            !j < n
            && match text.[!j] with
               | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true
               | _ -> false
          do
            incr j
          done;
          let acc =
            match text.[i] with '0' .. '9' -> acc | _ -> (i, String.sub text i (!j - i)) :: acc
          in
          go !j acc
      | _ -> go (i + 1) acc
  in
  go 0 []

(* Every [val name] of a stripped .mli, nested signatures included, in
   order.  An operator ([val ( + )]) is no identifier this search can
   find, so only a name right after [val] counts. *)
let vals_of text =
  let rec go = function
    | (i, "val") :: (j, name) :: rest when String.trim (String.sub text (i + 3) (j - i - 3)) = "" ->
        name :: go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go (idents text)

(* [lib/util/pool.mli] -> [lib/util/pool]: the module a file belongs to. *)
let module_of path = Filename.remove_extension path

let is_export path =
  Filename.check_suffix path ".mli"
  && match String.split_on_char '/' path with [ "lib"; _; _ ] -> true | _ -> false

(* The exports of [files] (repository-relative path, contents) whose names
   appear in no file of another module, as [(mli path, value)], sorted. *)
let unused_exports files =
  let stripped = List.map (fun (path, src) -> (path, strip src)) files in
  let users = Hashtbl.create 4096 in
  List.iter
    (fun (path, text) ->
      let m = module_of path in
      List.iter
        (fun (_, id) ->
          let ms = Option.value ~default:[] (Hashtbl.find_opt users id) in
          if not (List.mem m ms) then Hashtbl.replace users id (m :: ms))
        (idents text))
    stripped;
  List.concat_map
    (fun (path, text) ->
      if not (is_export path) then []
      else
        let m = module_of path in
        vals_of text
        |> List.sort_uniq compare
        |> List.filter (fun v ->
               let ms = Option.value ~default:[] (Hashtbl.find_opt users v) in
               not (List.exists (fun m' -> m' <> m) ms))
        |> List.map (fun v -> (path, v)))
    stripped
  |> List.sort compare

type entry = { mli : string; value : string; kind : string; test : string }

let kinds = [ "oracle"; "seam"; "check" ]

(* One entry per line: [<mli path> <value> <oracle|seam|check> <test file>];
   blank lines and [#] comments are skipped.  A malformed line is [Error]. *)
let parse_allow text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char ' ' line |> List.filter (( <> ) "") with
           | [ mli; value; kind; test ] when List.mem kind kinds -> Some (Ok { mli; value; kind; test })
           | _ -> Some (Error line))

type offence =
  | Unlisted of string * string  (** unused, not on the list *)
  | Stale of string * string  (** on the list, not an unused export *)
  | Unmentioned of string * string  (** its test file does not name it *)
  | Malformed of string

(* [test_text file] is the named test file's contents, if it exists. *)
let check ~files ~allow ~test_text =
  let unused = unused_exports files in
  let entries = parse_allow allow in
  let listed = List.filter_map Result.to_option entries in
  let on_list (mli, v) = List.exists (fun e -> e.mli = mli && e.value = v) listed in
  List.filter_map (function Error l -> Some (Malformed l) | Ok _ -> None) entries
  @ List.filter_map (fun u -> if on_list u then None else Some (Unlisted (fst u, snd u))) unused
  @ List.filter_map
      (fun e -> if List.mem (e.mli, e.value) unused then None else Some (Stale (e.mli, e.value)))
      listed
  @ List.filter_map
      (fun e ->
        let mentions =
          match test_text e.test with
          | None -> false
          | Some src -> List.exists (fun (_, id) -> id = e.value) (idents (strip src))
        in
        if mentions then None else Some (Unmentioned (e.mli, e.value)))
      listed

let report offences =
  let section title pick =
    match List.filter_map pick offences with
    | [] -> []
    | lines -> (title ^ ":") :: lines
  in
  String.concat "\n"
    (section "unused exports (delete them, drop them from the .mli, or list them)"
       (function Unlisted (m, v) -> Some (Printf.sprintf "%s: %s" m v) | _ -> None)
    @ section "allow-list entries that are not unused exports (remove the line)"
        (function Stale (m, v) -> Some (Printf.sprintf "%s: %s" m v) | _ -> None)
    @ section "allow-list entries whose test file does not use the value"
        (function Unmentioned (m, v) -> Some (Printf.sprintf "%s: %s" m v) | _ -> None)
    @ section "malformed allow-list lines"
        (function Malformed l -> Some l | _ -> None))

(* ---------------- the repository ---------------- *)

(* From the test directory (dune runtest) or from the repository root. *)
let root = if Sys.file_exists "../lib/util/artifact.mli" then ".." else "."

let read_file path = In_channel.with_open_bin path In_channel.input_all

let source path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

(* Repository-relative paths of the sources under [dir], recursively
   when [deep]. *)
let rec sources ~deep dir =
  let full = Filename.concat root dir in
  if not (Sys.file_exists full) then []
  else
    Sys.readdir full |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let rel = dir ^ "/" ^ name in
           if name.[0] = '.' then []
           else if Sys.is_directory (Filename.concat root rel) then if deep then sources ~deep rel else []
           else if source name then [ rel ]
           else [])

let repository_files () =
  (sources ~deep:true "lib" @ sources ~deep:false "bin" @ sources ~deep:false "bench"
 @ sources ~deep:false "examples" @ [ "perfbench/mbench.ml" ])
  |> List.map (fun p -> (p, read_file (Filename.concat root p)))

let test_guard () =
  let files = repository_files () in
  let allow = read_file (Filename.concat root "test/interface_allow.txt") in
  let test_text f =
    let p = Filename.concat root ("test/" ^ f) in
    if Sys.file_exists p then Some (read_file p) else None
  in
  Alcotest.(check bool) "scanned lib/" true (List.exists (fun (p, _) -> is_export p) files);
  match check ~files ~allow ~test_text with
  | [] -> ()
  | offences ->
      print_endline (report offences);
      Alcotest.failf "%d interface offences (listed above)" (List.length offences)

(* ---------------- the scanner on a small tree ---------------- *)

let tree =
  [
    ( "lib/a/m.mli",
      "val used : int\nval dead : int\n(** [val ghost] *)\nval ( +! ) : int -> int -> int\n\
       module S : sig val inner : int end\n" );
    ("lib/a/m.ml", "let used = 1 let dead = used let inner = dead\n");
    ("lib/b/n.ml", "let x = M.used + M.S.inner (* M.dead *) let s = \"M.dead\" let q = {|dead|}\n");
    ("bin/main.ml", "let c = '\"' let y = N.x (* \"*)\" dead *)\n");
  ]

let test_scanner_flags () =
  Alcotest.(check (list (pair string string)))
    "only dead is unused"
    [ ("lib/a/m.mli", "dead") ]
    (unused_exports tree)

let test_scanner_strip () =
  Alcotest.(check (list string))
    "comments, strings, quoted strings and chars blanked"
    [ "let"; "c"; "let"; "y"; "N"; "x"; "let"; "z" ]
    (List.map snd (idents (strip "let c = '\"' let y = N.x (* (* \"*)\" *) a *) let z = {id|b|}|id}")))

let test_allow_list () =
  let test_text = function "t_m.ml" -> Some "let _ = M.dead (* inner *)" | _ -> None in
  let offences allow = check ~files:tree ~allow ~test_text in
  Alcotest.(check int) "listed dead passes" 0
    (List.length (offences "# comment\nlib/a/m.mli dead oracle t_m.ml\n"));
  (match offences "" with
  | [ Unlisted ("lib/a/m.mli", "dead") ] -> ()
  | _ -> Alcotest.fail "unlisted dead export not flagged");
  (match offences "lib/a/m.mli dead oracle t_m.ml\nlib/a/m.mli used seam t_m.ml\n" with
  | [ Stale ("lib/a/m.mli", "used"); Unmentioned ("lib/a/m.mli", "used") ] -> ()
  | _ -> Alcotest.fail "stale entry not flagged");
  (match offences "lib/a/m.mli dead oracle t_other.ml\n" with
  | [ Unmentioned ("lib/a/m.mli", "dead") ] -> ()
  | _ -> Alcotest.fail "entry whose test file lacks the value not flagged");
  match offences "lib/a/m.mli dead helper t_m.ml\n" with
  | [ Malformed _; Unlisted _ ] -> ()
  | _ -> Alcotest.fail "unknown kind not rejected"

let suite =
  ( "interface",
    [
      Alcotest.test_case "scanner flags unused" `Quick test_scanner_flags;
      Alcotest.test_case "scanner strips" `Quick test_scanner_strip;
      Alcotest.test_case "allow-list" `Quick test_allow_list;
      Alcotest.test_case "no unused exports" `Quick test_guard;
    ] )
