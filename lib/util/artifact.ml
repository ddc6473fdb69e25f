type read_error =
  | Missing
  | Unreadable of string
  | Corrupt of string
  | Foreign_version of string

let describe_error = function
  | Missing -> "missing"
  | Unreadable msg -> "unreadable: " ^ msg
  | Corrupt msg -> "corrupt: " ^ msg
  | Foreign_version v -> "written by foreign format version " ^ v

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      (match Sys.readdir path with
      | names -> Array.iter (fun f -> remove_tree (Filename.concat path f)) names
      | exception Sys_error _ -> ());
      (try Sys.rmdir path with Sys_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let write path contents =
  Fault.check Fault.Cache_write ~key:(Hashtbl.hash path);
  mkdir_p (Filename.dirname path);
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  try
    output_string oc contents;
    close_out oc;
    Sys.rename tmp path
  with e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let read path =
  if not (Sys.file_exists path) then Error Missing
  else
    match
      Fault.check Fault.Cache_read ~key:(Hashtbl.hash path);
      In_channel.with_open_bin path In_channel.input_all
    with
    | contents -> Ok contents
    | exception (Fault.Injected msg | Sys_error msg) -> Error (Unreadable msg)

let md5_hex s = Digest.to_hex (Digest.string s)

let frame ~prefix ~version body =
  String.concat "" [ prefix; version; " md5:"; md5_hex body; "\n"; body ]

let unframe ~prefix ~version text =
  if not (String.starts_with ~prefix text) then Error (Corrupt "missing checksum header")
  else begin
    let len = String.length text and start = String.length prefix in
    let eol = Option.value (String.index_from_opt text start '\n') ~default:len in
    let body = if eol = len then "" else String.sub text (eol + 1) (len - eol - 1) in
    match String.split_on_char ' ' (String.trim (String.sub text start (eol - start))) with
    | [ v; digest ] when String.length digest > 4 && String.starts_with ~prefix:"md5:" digest ->
      if v <> version then Error (Foreign_version v)
      else if String.sub digest 4 (String.length digest - 4) = md5_hex body then Ok body
      else Error (Corrupt "content does not match its recorded digest")
    | _ -> Error (Corrupt "malformed checksum header")
  end
