module Colmat = Mica_stats.Colmat
module Artifact = Mica_util.Artifact

type t = { names : string array; features : string array; data : Colmat.t }

let magic = "MICD"
let version = 1
let header_bytes = 56
let host_endian_tag = if Sys.big_endian then 2 else 1

let align8 n = (n + 7) land lnot 7

let add_u32 buf n = Buffer.add_int32_le buf (Int32.of_int n)

let add_lp_string buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let metadata_blob ~names ~features =
  let buf = Buffer.create 4096 in
  Array.iter (add_lp_string buf) names;
  Array.iter (add_lp_string buf) features;
  Buffer.contents buf

let data_bytes (m : Mica_stats.Matrix.t) ~rows ~cols =
  let b = Bytes.create (rows * cols * 8) in
  let set = if Sys.big_endian then Bytes.set_int64_be else Bytes.set_int64_le in
  for j = 0 to cols - 1 do
    let base = j * rows in
    for i = 0 to rows - 1 do
      set b ((base + i) * 8) (Int64.bits_of_float m.(i).(j))
    done
  done;
  Bytes.unsafe_to_string b

let write path (ds : Dataset.t) =
  let rows = Dataset.rows ds and cols = Dataset.cols ds in
  let meta = metadata_blob ~names:ds.Dataset.names ~features:ds.Dataset.features in
  let data = data_bytes ds.Dataset.data ~rows ~cols in
  let data_offset = align8 (header_bytes + String.length meta) in
  let buf = Buffer.create (data_offset + String.length data) in
  Buffer.add_string buf magic;
  Buffer.add_uint8 buf version;
  Buffer.add_uint8 buf host_endian_tag;
  Buffer.add_uint8 buf 0;
  Buffer.add_uint8 buf 0;
  add_u32 buf (String.length meta);
  add_u32 buf rows;
  add_u32 buf cols;
  add_u32 buf data_offset;
  Buffer.add_string buf (Digest.string meta);
  Buffer.add_string buf (Digest.string data);
  Buffer.add_string buf meta;
  Buffer.add_string buf (String.make (data_offset - header_bytes - String.length meta) '\000');
  Buffer.add_string buf data;
  Artifact.write path (Buffer.contents buf)

(* --- reading ------------------------------------------------------- *)

let corrupt fmt = Printf.ksprintf (fun s -> Error (Artifact.Corrupt s)) fmt

let u32 s off =
  let v = Int32.to_int (String.get_int32_le s off) in
  if v < 0 then None else Some v

let read_exact ic len =
  try Ok (really_input_string ic len)
  with End_of_file -> corrupt "file shorter than %d bytes" len

let ( let* ) = Result.bind

(* parse the length-prefixed string table: [count] entries starting at
   [off] in [blob]; returns (strings, next offset) *)
let parse_table blob off count =
  let arr = Array.make count "" in
  let rec go i off =
    if i = count then Ok off
    else if off + 4 > String.length blob then corrupt "metadata table truncated"
    else
      match u32 blob off with
      | None -> corrupt "negative string length in metadata"
      | Some len ->
          if off + 4 + len > String.length blob then corrupt "metadata table truncated"
          else begin
            arr.(i) <- String.sub blob (off + 4) len;
            go (i + 1) (off + 4 + len)
          end
  in
  let* last = go 0 off in
  Ok (arr, last)

type header = {
  h_meta_len : int;
  h_rows : int;
  h_cols : int;
  h_data_offset : int;
  h_meta_md5 : string;
  h_data_md5 : string;
}

let parse_header h =
  if String.sub h 0 4 <> magic then corrupt "bad magic (not a MICD dataset)"
  else if Char.code h.[4] <> version then
    Error (Artifact.Foreign_version (Printf.sprintf "dataset format v%d" (Char.code h.[4])))
  else if Char.code h.[5] <> host_endian_tag then
    corrupt "endianness mismatch (dataset written on a %s-endian host)"
      (if Char.code h.[5] = 2 then "big" else "little")
  else
    match (u32 h 8, u32 h 12, u32 h 16, u32 h 20) with
    | Some h_meta_len, Some h_rows, Some h_cols, Some h_data_offset ->
        Ok
          {
            h_meta_len;
            h_rows;
            h_cols;
            h_data_offset;
            h_meta_md5 = String.sub h 24 16;
            h_data_md5 = String.sub h 40 16;
          }
    | _ -> corrupt "negative field in header"

let with_open_in path f =
  match open_in_bin path with
  | exception Sys_error _ ->
      if Sys.file_exists path then Error (Artifact.Unreadable path) else Error Artifact.Missing
  | ic -> Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let load_header ic path =
  let* h = read_exact ic header_bytes in
  let* hd = parse_header h in
  let file_size = in_channel_length ic in
  let expected = hd.h_data_offset + (hd.h_rows * hd.h_cols * 8) in
  if hd.h_data_offset < align8 (header_bytes + hd.h_meta_len) then
    corrupt "data offset overlaps metadata"
  else if file_size <> expected then
    corrupt "truncated or padded: %d bytes, want %d (%s)" file_size expected path
  else
    let* meta = read_exact ic hd.h_meta_len in
    if Digest.string meta <> hd.h_meta_md5 then corrupt "metadata digest mismatch"
    else
      let* names, off = parse_table meta 0 hd.h_rows in
      let* features, last = parse_table meta off hd.h_cols in
      if last <> String.length meta then corrupt "trailing bytes in metadata"
      else Ok (hd, names, features)

let load path =
  with_open_in path @@ fun ic ->
  let* hd, names, features = load_header ic path in
  match
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.map_file fd ~pos:(Int64.of_int hd.h_data_offset) Bigarray.float64 Bigarray.c_layout
          false
          [| hd.h_rows * hd.h_cols |])
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Artifact.Unreadable (path ^ ": " ^ Unix.error_message e))
  | genarray ->
      let data =
        Colmat.of_array1 ~rows:hd.h_rows ~cols:hd.h_cols (Bigarray.array1_of_genarray genarray)
      in
      Ok { names; features; data }

let verify path =
  with_open_in path @@ fun ic ->
  let* hd, _, _ = load_header ic path in
  seek_in ic hd.h_data_offset;
  let* data = read_exact ic (hd.h_rows * hd.h_cols * 8) in
  if Digest.string data <> hd.h_data_md5 then corrupt "data digest mismatch" else Ok ()
