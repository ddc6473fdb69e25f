type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of int * string

let fail pos msg = raise (Parse_error (pos, msg))

(* ---------------- reader ----------------

   A byte-index cursor over the document.  Containers are read with an
   explicit stack of open frames, so nesting depth costs heap in
   proportion, never the call stack; a document is read in one pass. *)

type cursor = { src : string; len : int; mutable pos : int }

let at c ch = c.pos < c.len && String.unsafe_get c.src c.pos = ch

let rec skip_ws c =
  if c.pos < c.len then
    match String.unsafe_get c.src c.pos with
    | ' ' | '\t' | '\n' | '\r' ->
      c.pos <- c.pos + 1;
      skip_ws c
    | _ -> ()

let expect c ch =
  if c.pos >= c.len then fail c.pos (Printf.sprintf "expected %C, found end of input" ch)
  else begin
    let x = String.unsafe_get c.src c.pos in
    if x = ch then c.pos <- c.pos + 1
    else fail c.pos (Printf.sprintf "expected %C, found %C" ch x)
  end

let looking_at c word =
  let n = String.length word in
  let rec same i = i = n || (String.unsafe_get c.src (c.pos + i) = word.[i] && same (i + 1)) in
  c.pos + n <= c.len && same 0

let literal c word value =
  if looking_at c word then begin
    c.pos <- c.pos + String.length word;
    value
  end
  else fail c.pos ("invalid literal, expected " ^ word)

(* The first quote or backslash at or after [i], or [len]. *)
let rec plain_end src len i =
  if i < len then
    match String.unsafe_get src i with '"' | '\\' -> i | _ -> plain_end src len (i + 1)
  else len

(* The rest of a string holding escapes, from [c.pos] to past its closing
   quote, appended to [buf]. *)
let rec unescape c buf =
  let start = c.pos in
  let i = plain_end c.src c.len start in
  Buffer.add_substring buf c.src start (i - start);
  if i >= c.len then fail i "unterminated string"
  else if String.unsafe_get c.src i = '"' then c.pos <- i + 1
  else begin
    c.pos <- i + 1;
    if c.pos >= c.len then fail c.pos "unterminated escape";
    let e = String.unsafe_get c.src c.pos in
    c.pos <- c.pos + 1;
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
      if c.pos + 4 > c.len then fail c.pos "truncated \\u escape";
      let code =
        match int_of_string_opt ("0x" ^ String.sub c.src c.pos 4) with
        | Some code -> code
        | None -> fail c.pos "invalid \\u escape"
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
    unescape c buf
  end

(* An escape-free string is one slice of the source. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  let i = plain_end c.src c.len start in
  if i < c.len && String.unsafe_get c.src i = '"' then begin
    c.pos <- i + 1;
    String.sub c.src start (i - start)
  end
  else begin
    let buf = Buffer.create (i - start + 16) in
    unescape c buf;
    Buffer.contents buf
  end

let is_num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

(* A number is the longest run of number characters, converted by
   [float_of_string].  A run of at most 15 digits, optionally after a
   minus, is an integer below 2^53: it is accumulated during the scan and
   converted exactly, as [float_of_string] would ("-0" is -0.0). *)
let parse_number c =
  let src = c.src and len = c.len and start = c.pos in
  let neg = String.unsafe_get src start = '-' in
  let first = if neg then start + 1 else start in
  let i = ref first and value = ref 0 in
  while
    !i < len && match String.unsafe_get src !i with '0' .. '9' -> true | _ -> false
  do
    value := (!value * 10) + Char.code (String.unsafe_get src !i) - 48;
    incr i
  done;
  let digits_end = !i in
  while !i < len && is_num_char (String.unsafe_get src !i) do
    incr i
  done;
  c.pos <- !i;
  if !i = digits_end && digits_end > first && digits_end - first <= 15 then
    let f = float_of_int !value in
    if neg then -.f else f
  else begin
    let s = String.sub src start (!i - start) in
    match float_of_string_opt s with
    | Some f -> f
    | None -> fail start (Printf.sprintf "invalid number %S" s)
  end

(* A value that opens no container; [c.pos] is at its first byte. *)
let parse_scalar c =
  match String.unsafe_get c.src c.pos with
  | '"' -> Str (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' ->
    if looking_at c "nan" then begin
      c.pos <- c.pos + 3;
      Num Float.nan
    end
    else literal c "null" Null
  | 'i' -> literal c "inf" (Num Float.infinity)
  | '-' when looking_at c "-inf" ->
    c.pos <- c.pos + 4;
    Num Float.neg_infinity
  | '-' | '0' .. '9' -> Num (parse_number c)
  | ch -> fail c.pos (Printf.sprintf "unexpected character %C" ch)

type frame =
  | In_list of { mutable items : t list }
  | In_obj of { mutable members : (string * t) list; mutable key : string }

(* An object key and its colon. *)
let parse_key c =
  skip_ws c;
  let key = parse_string c in
  skip_ws c;
  expect c ':';
  key

(* [value stack] reads a value inside the open containers [stack];
   [close stack v] hands a finished value to the innermost of them. *)
let parse_value c =
  let rec value stack =
    skip_ws c;
    if c.pos >= c.len then fail c.pos "unexpected end of input";
    match String.unsafe_get c.src c.pos with
    | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c '}' then begin
        c.pos <- c.pos + 1;
        close stack (Obj [])
      end
      else
        let key = parse_key c in
        value (In_obj { members = []; key } :: stack)
    | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c ']' then begin
        c.pos <- c.pos + 1;
        close stack (List [])
      end
      else value (In_list { items = [] } :: stack)
    | _ -> close stack (parse_scalar c)
  and close stack v =
    match stack with
    | [] -> v
    | In_list l :: rest ->
      l.items <- v :: l.items;
      skip_ws c;
      if at c ',' then begin
        c.pos <- c.pos + 1;
        value stack
      end
      else if at c ']' then begin
        c.pos <- c.pos + 1;
        close rest (List (List.rev l.items))
      end
      else fail c.pos "expected ',' or ']'"
    | In_obj o :: rest ->
      o.members <- (o.key, v) :: o.members;
      skip_ws c;
      if at c ',' then begin
        c.pos <- c.pos + 1;
        o.key <- parse_key c;
        value stack
      end
      else if at c '}' then begin
        c.pos <- c.pos + 1;
        close rest (Obj (List.rev o.members))
      end
      else fail c.pos "expected ',' or '}'"
  in
  value []

let parse src =
  let c = { src; len = String.length src; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> c.len then fail c.pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) -> Error (Printf.sprintf "at byte %d: %s" pos msg)

(* ---------------- writer ----------------

   The inverse of [parse], used by the run-directory subsystem to commit
   manifests and comparison reports.  Key order is preserved exactly as
   given (writers build ordered assoc lists), so serialized documents are
   stable byte-for-byte and can be golden-tested and checksummed.
   Standard JSON has no non-finite number, so NaN and the infinities are
   written as [null], unless the caller asks for the bare tokens the
   parser accepts (the serve wire format, where every float must come back
   to the bit). *)

let hex_digits = "0123456789abcdef"

(* Runs of bytes that need no escape are copied whole. *)
let escape_to buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let rec go from i =
    if i = n then Buffer.add_substring buf s from (i - from)
    else
      match String.unsafe_get s i with
      | ('"' | '\\' | '\000' .. '\031') as c ->
        Buffer.add_substring buf s from (i - from);
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex_digits.[Char.code c lsr 4];
          Buffer.add_char buf hex_digits.[Char.code c land 15]);
        go (i + 1) (i + 1)
      | _ -> go from (i + 1)
  in
  go 0 0;
  Buffer.add_char buf '"'

(* The C conversion [Printf]'s [%.17g] ends in, called directly: the same
   bytes without the format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* Integral values below 1e15 in magnitude print as the exact integer,
   which is what [%.0f] prints for them ("-0" for -0.0); everything else
   finite as [%.17g], which always reads back to the same bits. *)
let add_number buf ~bare_non_finite f =
  if not (Float.is_finite f) then
    Buffer.add_string buf
      (if not bare_non_finite then "null"
       else if Float.is_nan f then "nan"
       else if f > 0.0 then "inf"
       else "-inf")
  else if Float.is_integer f && Float.abs f < 1e15 then begin
    if Float.sign_bit f then Buffer.add_char buf '-';
    add_digits buf (int_of_float (Float.abs f))
  end
  else Buffer.add_string buf (format_float "%.17g" f)

let to_string ?(pretty = false) ?(bare_non_finite = false) t =
  let buf = Buffer.create 256 in
  let pad depth = if pretty then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let newline () = if pretty then Buffer.add_char buf '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> add_number buf ~bare_non_finite f
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

(* Within [±2^53] every integer is exact as a float and fits an int. *)
let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 9_007_199_254_740_992.0 -> Some (int_of_float f)
  | _ -> None

let to_float = function Num f -> Some f | Null -> Some Float.nan | _ -> None

let to_str = function Str s -> Some s | _ -> None
