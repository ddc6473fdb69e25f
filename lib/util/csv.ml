let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let escape_field s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let table ~columns rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b (String.concat "," (List.map escape_field ("name" :: Array.to_list columns)));
  Buffer.add_char b '\n';
  List.iter
    (fun (name, row) ->
      Buffer.add_string b (escape_field name);
      Array.iter (fun v -> Buffer.add_string b (Printf.sprintf ",%.17g" v)) row;
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

let parse_line line =
  let n = String.length line in
  let buf = Buffer.create 16 in
  let fields = ref [] in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let rec plain i =
    if i >= n then flush_field ()
    else
      match line.[i] with
      | ',' ->
        flush_field ();
        plain (i + 1)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        plain (i + 1)
  and quoted i =
    if i >= n then flush_field () (* unterminated quote: be lenient *)
    else
      match line.[i] with
      | '"' when i + 1 < n && line.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        quoted (i + 2)
      | '"' -> plain (i + 1)
      | c ->
        Buffer.add_char buf c;
        quoted (i + 1)
  in
  plain 0;
  List.rev !fields

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rows = ref [] in
      (try
         while true do
           let line = input_line ic in
           let line =
             if String.length line > 0 && line.[String.length line - 1] = '\r' then
               String.sub line 0 (String.length line - 1)
             else line
           in
           let stripped = String.trim line in
           if stripped <> "" && stripped.[0] <> '#' then rows := parse_line line :: !rows
         done
       with End_of_file -> ());
      List.rev !rows)
