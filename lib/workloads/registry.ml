let all =
  Profiles_bioinfomark.all @ Profiles_biometrics.all @ Profiles_commbench.all
  @ Profiles_mediabench.all @ Profiles_mibench.all @ Profiles_spec.all

let count = List.length all

let () = assert (count = 122)

let by_suite suite = List.filter (fun w -> w.Workload.suite = suite) all

let lower = String.lowercase_ascii

(* Name resolution tiers, in precedence order: id, "program/input" (the
   bare program when there is no input), label, program. *)
let tiers =
  [
    Workload.id;
    (fun w ->
      if w.Workload.input = "" then w.Workload.program
      else w.Workload.program ^ "/" ^ w.Workload.input);
    Workload.label;
    (fun w -> w.Workload.program);
  ]

(* Every lowercased name that resolves, mapped to its workload.  The first
   tier that knows a name decides it, and a name that names several
   workloads there resolves to nothing. *)
let build_index () =
  let tables =
    List.map
      (fun name ->
        let tbl = Hashtbl.create 256 in
        List.iter
          (fun w ->
            let k = lower (name w) in
            Hashtbl.replace tbl k (w :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
          all;
        tbl)
      tiers
  in
  let rec decide k = function
    | [] -> None
    | tbl :: rest -> (
      match Hashtbl.find_opt tbl k with
      | None -> decide k rest
      | Some [ w ] -> Some w
      | Some _ -> None)
  in
  let index = Hashtbl.create 512 in
  List.iter
    (Hashtbl.iter (fun k _ -> Option.iter (Hashtbl.replace index k) (decide k tables)))
    tables;
  index

(* Built by the first lookup, under a mutex because the serve dispatcher
   and reader threads resolve names concurrently; read-only afterwards, so
   lookups never grow it and a process that resolves nothing never builds
   it. *)
let index = Atomic.make None
let index_mutex = Mutex.create ()

let get_index () =
  match Atomic.get index with
  | Some idx -> idx
  | None ->
    Mutex.protect index_mutex (fun () ->
        match Atomic.get index with
        | Some idx -> idx
        | None ->
          let idx = build_index () in
          Atomic.set index (Some idx);
          idx)

let find needle = Hashtbl.find_opt (get_index ()) (lower needle)

let find_exn needle = match find needle with Some w -> w | None -> raise Not_found

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  if n = 0 then true
  else begin
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  end

let matching needle =
  let n = lower needle in
  List.filter (fun w -> contains ~needle:n (lower (Workload.id w))) all
