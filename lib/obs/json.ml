type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of int * string

let fail pos msg = raise (Parse_error (pos, msg))

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail c.pos (Printf.sprintf "expected %C, found %C" ch x)
  | None -> fail c.pos (Printf.sprintf "expected %C, found end of input" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos (Printf.sprintf "invalid literal, expected %s" word)

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail c.pos "unterminated escape"
        | Some e ->
            advance c;
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if c.pos + 4 > String.length c.src then fail c.pos "truncated \\u escape";
                let hex = String.sub c.src c.pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail c.pos "invalid \\u escape"
                in
                c.pos <- c.pos + 4;
                (* Encode the code point as UTF-8; surrogate pairs are not
                   recombined (the exporter never emits them). *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
            | _ -> fail (c.pos - 1) "invalid escape character");
            go ())
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  let rec go () =
    match peek c with
    | Some ch when is_num_char ch ->
        advance c;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail start (Printf.sprintf "invalid number %S" s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let members = ref [] in
        let rec go () =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          members := (key, v) :: !members;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              go ()
          | Some '}' -> advance c
          | _ -> fail c.pos "expected ',' or '}'"
        in
        go ();
        Obj (List.rev !members)
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let items = ref [] in
        let rec go () =
          let v = parse_value c in
          items := v :: !items;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              go ()
          | Some ']' -> advance c
          | _ -> fail c.pos "expected ',' or ']'"
        in
        go ();
        List (List.rev !items)
      end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' ->
      if c.pos + 3 <= String.length c.src && String.sub c.src c.pos 3 = "nan" then begin
        c.pos <- c.pos + 3;
        Num Float.nan
      end
      else literal c "null" Null
  | Some 'i' -> literal c "inf" (Num Float.infinity)
  | Some '-' when c.pos + 4 <= String.length c.src && String.sub c.src c.pos 4 = "-inf" ->
      c.pos <- c.pos + 4;
      Num Float.neg_infinity
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> fail c.pos (Printf.sprintf "unexpected character %C" ch)

let parse src =
  let c = { src; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length src then fail c.pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) -> Error (Printf.sprintf "at byte %d: %s" pos msg)

let parse_exn src =
  match parse src with Ok v -> v | Error msg -> failwith ("Json.parse: " ^ msg)

(* ---------------- writer ----------------

   The inverse of [parse], used by the run-directory subsystem to commit
   manifests and comparison reports.  Key order is preserved exactly as
   given (writers build ordered assoc lists), so serialized documents are
   stable byte-for-byte and can be golden-tested and checksummed.
   Standard JSON has no non-finite number, so NaN and the infinities are
   written as [null], unless the caller asks for the bare tokens the
   parser accepts (the serve wire format, where every float must come back
   to the bit). *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_to_string ~bare_non_finite f =
  if not (Float.is_finite f) then
    if not bare_non_finite then "null"
    else if Float.is_nan f then "nan"
    else if f > 0.0 then "inf"
    else "-inf"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string ?(pretty = false) ?(bare_non_finite = false) t =
  let buf = Buffer.create 256 in
  let pad depth = if pretty then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let newline () = if pretty then Buffer.add_char buf '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number_to_string ~bare_non_finite f)
    | Str s -> escape_to buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      newline ();
      List.iteri
        (fun i v ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (depth + 1);
          go (depth + 1) v)
        items;
      newline ();
      pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
      Buffer.add_char buf '{';
      newline ();
      List.iteri
        (fun i (k, v) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (depth + 1);
          escape_to buf k;
          Buffer.add_string buf (if pretty then ": " else ":");
          go (depth + 1) v)
        kvs;
      newline ();
      pad depth;
      Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_num = function Num f -> Some f | _ -> None
let to_float = function Num f -> Some f | Null -> Some Float.nan | _ -> None

let to_str = function Str s -> Some s | _ -> None
