(* The benchmark's worker.  One process runs one repetition of one
   workload pass (or the traced layer passes) at one domain and prints one
   JSON object as its last line of standard output; perfbench/run.py
   spawns it, pools the repetitions and reports the metrics.

   Usage: mbench MODE --key value ...
     pin     --icount N --out FILE
     paper   --icount N --seed S --work DIR --pins FILE --t0 EPOCH [--spans FILE]
     fleet   --icount N --seed S --machines DIR --gen G --t0 EPOCH [--spans FILE]
     client  --icount N --seed S --socket PATH --pins FILE --t0 EPOCH
             --cold-rate HZ --warm-rate HZ [--spans FILE]
     layers  --workload paper|fleet|serve --icount N --seed S --machines DIR --work DIR
             --gen G --pins FILE [--spans FILE]

   Every timing is taken here, around calls into the libraries' public
   functions; the program's own Obs probes stay off. *)

module Json = Mica_obs.Json
module Pipeline = Mica_core.Pipeline
module E = Mica_core.Experiments
module Dataset = Mica_core.Dataset
module Space = Mica_core.Space
module Fleet = Mica_core.Fleet
module Run_report = Mica_core.Run_report
module Registry = Mica_workloads.Registry
module Workload = Mica_workloads.Workload
module Corpus = Mica_workloads.Corpus
module Machine = Mica_uarch.Machine
module Machine_desc = Mica_uarch.Machine_desc
module Hw = Mica_uarch.Hw_counters
module Generator = Mica_trace.Generator
module Sink = Mica_trace.Sink
module A = Mica_analysis
module Protocol = Mica_serve.Protocol

let now = Unix.gettimeofday

(* ---------------- arguments ---------------- *)

let args : (string, string) Hashtbl.t = Hashtbl.create 16

let parse_args argv =
  let rec go i =
    if i + 1 < Array.length argv then begin
      let k = argv.(i) in
      if String.length k > 2 && String.sub k 0 2 = "--" then begin
        Hashtbl.replace args (String.sub k 2 (String.length k - 2)) argv.(i + 1);
        go (i + 2)
      end
      else failwith ("unexpected argument " ^ k)
    end
    else if i < Array.length argv then failwith ("dangling argument " ^ argv.(i))
  in
  go 2

let arg k =
  match Hashtbl.find_opt args k with Some v -> v | None -> failwith ("missing --" ^ k)

let int_arg k = int_of_string (arg k)
let float_arg k = float_of_string (arg k)

(* ---------------- spans ---------------- *)

(* In-memory span recorder: name, start, end, parent, the serve request id
   where there is one, and the minor words allocated inside.  Off unless
   --spans is given; then the spans are written when the process ends. *)
module Span = struct
  type t = {
    id : int;
    parent : int;
    name : string;
    req : int;
    start : float;
    stop : float;
    words : float;
  }

  let enabled = ref false
  let spans = ref []
  let stack = ref []
  let next_id = ref 0

  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id

  let current () = match !stack with p :: _ -> p | [] -> -1

  let record ?(req = -1) ?(parent = current ()) name ~start ~stop =
    if !enabled then begin
      let id = fresh_id () in
      spans := { id; parent; name; req; start; stop; words = 0.0 } :: !spans;
      id
    end
    else -1

  let with_ ?(req = -1) name f =
    if not !enabled then f ()
    else begin
      let id = fresh_id () in
      let parent = current () in
      stack := id :: !stack;
      let w0 = Gc.minor_words () in
      let start = now () in
      let close () =
        let stop = now () in
        let words = Gc.minor_words () -. w0 in
        stack := List.tl !stack;
        spans := { id; parent; name; req; start; stop; words } :: !spans
      in
      match f () with
      | v ->
        close ();
        v
      | exception e ->
        close ();
        raise e
    end

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        let fields =
          [
            ("id", Json.Num (float_of_int s.id));
            ("parent", Json.Num (float_of_int s.parent));
            ("name", Json.Str s.name);
            ("start", Json.Num s.start);
            ("end", Json.Num s.stop);
            ("minor_words", Json.Num s.words);
          ]
        in
        let fields = if s.req >= 0 then fields @ [ ("req", Json.Num (float_of_int s.req)) ] else fields in
        output_string oc (Json.to_string (Json.Obj fields));
        output_char oc '\n')
      (List.rev !spans);
    close_out oc
end

let setup_spans () =
  match Hashtbl.find_opt args "spans" with
  | None -> ()
  | Some path ->
    Span.enabled := true;
    at_exit (fun () -> Span.write path)

(* ---------------- checks ---------------- *)

(* Every operation a pass attempts is counted here; a failed workload, a
   non-ok reply or an output that differs from its oracle is a failure. *)
type tally = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let tally () = { attempted = 0; failed = 0; errors = [] }

let check t ok msg =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.errors < 20 then t.errors <- Lazy.force msg :: t.errors
  end

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let row_digest (v : float array) =
  let b = Buffer.create (16 * Array.length v) in
  Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%016Lx" (Int64.bits_of_float x))) v;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---------------- pins ---------------- *)

(* One line per registry workload: "<mica digest> <counter digest> <id>".
   The id comes last because some contain spaces. *)
let pins_header icount =
  Printf.sprintf "# perfbench pins: icount=%d model=%s" icount Pipeline.model_version

let load_pins ~icount path =
  let ic = open_in path in
  let tbl = Hashtbl.create 128 in
  let header = input_line ic in
  if header <> pins_header icount then
    failwith (Printf.sprintf "%s: header %S does not match %S" path header (pins_header icount));
  (try
     while true do
       let line = input_line ic in
       if String.length line > 66 && line.[32] = ' ' && line.[65] = ' ' then
         Hashtbl.replace tbl
           (String.sub line 66 (String.length line - 66))
           (String.sub line 0 32, String.sub line 33 32)
       else if String.trim line <> "" then failwith (path ^ ": malformed line " ^ line)
     done
   with End_of_file -> ());
  close_in ic;
  tbl

let check_pinned t pins id ~mica ~hpc =
  check t
    (match Hashtbl.find_opt pins id with
    | Some (dm, dh) -> dm = row_digest mica && dh = row_digest hpc
    | None -> false)
    (lazy (Printf.sprintf "%s: vector differs from its pin" id))

(* ---------------- shared pieces ---------------- *)

let config ~icount ~cache_dir =
  { Pipeline.default_config with icount; cache_dir; jobs = 1; progress = false; run = None }

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  let v = go () in
  close_in ic;
  v

let nums l = Json.List (List.map (fun x -> Json.Num x) l)

(* Nearest-rank percentile. *)
let percentile p l =
  match List.sort compare l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let emit fields (t : tally) =
  let fields =
    fields
    @ [
        ("attempted", Json.Num (float_of_int t.attempted));
        ("failed", Json.Num (float_of_int t.failed));
        ("errors", Json.List (List.rev_map (fun s -> Json.Str s) t.errors));
      ]
  in
  print_endline (Json.to_string (Json.Obj fields))

(* One Fleet.t from per-workload calls, rows in call order. *)
let concat_fleet = function
  | [] -> failwith "fleet: no workload characterized"
  | first :: _ as parts ->
    {
      first with
      Fleet.workload_ids = Array.concat (List.map (fun p -> p.Fleet.workload_ids) parts);
      matrix = Array.concat (List.map (fun p -> p.Fleet.matrix) parts);
    }

(* Must match the --warm set run.py starts the daemon with. *)
let warm_ids = [ "MiBench/sha/large"; "SPEC2000/mcf/ref"; "SPEC2000/swim/ref" ]
let warm_workloads () = List.map Registry.find_exn warm_ids

(* The seeded fleet sample: the whole registry (its per-workload cost
   varies too much for a sample of it to cost the same from seed to seed)
   plus [g] distinct members of each gen/* family, whose footprints span
   64 KB to 64 MB. *)
let fleet_sample ~seed ~g =
  let rng = Random.State.make [| seed; 0xF1EE7 |] in
  let gen =
    List.concat_map
      (fun fam ->
        let rec draw acc =
          if List.length acc = g then List.rev acc
          else
            let i = Random.State.int rng 10_000 in
            if List.mem i acc then draw acc else draw (i :: acc)
        in
        List.map (Corpus.member fam) (draw []))
      Corpus.families
  in
  Registry.all @ gen

(* The seed picks the pair Figures 2 and 3 compare.  The GA keeps its
   default seed: its run length depends on the seed (2,200 to 5,442
   evaluations over seeds 1, 4 and 6), which would swing warm_s by 2x. *)
let case_pair seed =
  let rng = Random.State.make [| seed; 0xCA5E |] in
  let reg = Array.of_list Registry.all in
  let a = Random.State.int rng (Array.length reg) in
  let b = (a + 1 + Random.State.int rng (Array.length reg - 1)) mod Array.length reg in
  (Workload.id reg.(a), Workload.id reg.(b))

(* ---------------- pin ---------------- *)

let pin () =
  let icount = int_arg "icount" in
  let cfg = config ~icount ~cache_dir:None in
  let oc = open_out (arg "out") in
  output_string oc (pins_header icount ^ "\n");
  List.iter
    (fun w ->
      let m, h = Pipeline.characterize cfg w in
      Printf.fprintf oc "%s %s %s\n" (row_digest m) (row_digest h) (Workload.id w))
    Registry.all;
  close_out oc

(* ---------------- paper ---------------- *)

type figures = { digest : string; selected : int array; k : int }

(* The named steps of the pass being run, with their durations: run.py
   takes each step at its fastest repetition. *)
let steps = ref []

let step name f =
  let s = now () in
  let v = Span.with_ name f in
  steps := (name, Json.Num (now () -. s)) :: !steps;
  v

(* Tables I-IV, Figures 1-6 and the cost comparison.  Everything but the
   cost model's timings is deterministic, so the digest of the structured
   results must repeat between the cold and the warm pass. *)
let figures ~seed (ctx : E.Context.t) =
  let t1 = E.render_table1 () and t2 = E.render_table2 () in
  let f1 = step "experiments.fig1" (fun () -> E.fig1 ctx) in
  let t3 = step "experiments.table3" (fun () -> E.table3 ctx) in
  let a, b = case_pair seed in
  let f2 = step "experiments.fig2" (fun () -> E.fig2 ~a ~b ctx) in
  let f3 = step "experiments.fig3" (fun () -> E.fig3 ~a ~b ctx) in
  let ce = step "select.ce" (fun () -> E.run_ce ctx) in
  let ga = step "select.ga" (fun () -> E.run_ga ctx) in
  let f4 = step "experiments.fig4" (fun () -> E.fig4 ctx ~ga ~ce) in
  let f5 = step "experiments.fig5" (fun () -> E.fig5 ctx ~ga) in
  let t4 = E.render_table4 ga in
  let selected = ga.Mica_select.Genetic.selected in
  let f6 = step "stats.kmeans_bic" (fun () -> E.fig6 ctx ~selected) in
  let (_ : E.cost) = step "experiments.cost" (fun () -> E.cost_model ctx ~selected) in
  let outputs =
    Marshal.to_string (t1, t2, f1, t3, f2, f3, ce, ga, f4, f5, t4, f6) [ Marshal.No_sharing ]
  in
  {
    digest = Digest.to_hex (Digest.string outputs);
    selected;
    k = f6.E.clustering.Mica_core.Clustering.k;
  }

let check_context t pins (ctx : E.Context.t) =
  List.iter
    (fun w ->
      let id = Workload.id w in
      match (Dataset.row_index ctx.E.Context.mica id, Dataset.row_index ctx.E.Context.hpc id) with
      | Some i, Some j ->
        check_pinned t pins id ~mica:ctx.E.Context.mica.Dataset.data.(i)
          ~hpc:ctx.E.Context.hpc.Dataset.data.(j)
      | _ -> check t false (lazy (id ^ ": no row (characterization failed)")))
    Registry.all

let paper () =
  let t0 = float_arg "t0" and seed = int_arg "seed" and icount = int_arg "icount" in
  let cfg = config ~icount ~cache_dir:(Some (Filename.concat (arg "work") "cache")) in
  let setup_s = now () -. t0 in
  let c0 = now () in
  let cold = Span.with_ "core.context_load" (fun () -> E.Context.load ~config:cfg ()) in
  steps := [];
  let cold_figs = Span.with_ "core.figures" (fun () -> figures ~seed cold) in
  let cold_steps = !steps in
  let c2 = now () in
  steps := [];
  let warm = step "core.context_load" (fun () -> E.Context.load ~config:cfg ()) in
  let warm_figs = Span.with_ "core.figures" (fun () -> figures ~seed warm) in
  let warm_steps = !steps in
  let c3 = now () in
  let t = tally () in
  let pins = load_pins ~icount (arg "pins") in
  check_context t pins cold;
  check_context t pins warm;
  check t
    (Run_report.computed warm.E.Context.report = 0
    && Run_report.cached warm.E.Context.report = Registry.count)
    (lazy (Printf.sprintf "warm pass: %s" (Run_report.summary warm.E.Context.report)));
  check t
    (cold_figs.digest = warm_figs.digest
    && cold_figs.selected = warm_figs.selected
    && cold_figs.k = warm_figs.k)
    (lazy "warm pass: tables and figures differ from the cold pass");
  let timings = Run_report.timings cold.E.Context.report in
  let item_ms = List.map (fun (_, tm) -> tm.Run_report.elapsed_s *. 1000.0) timings in
  emit
    [
      ("setup_s", Json.Num setup_s);
      ("wall_s", Json.Num (c2 -. c0));
      ("warm_s", Json.Num (c3 -. c2));
      ("cold_steps", Json.Obj cold_steps);
      ("warm_steps", Json.Obj warm_steps);
      ("item_ids", Json.List (List.map (fun (id, _) -> Json.Str id) timings));
      ("item_ms", nums item_ms);
      ("peak_rss_mb", Json.Num (peak_rss_mb ()));
    ]
    t

(* ---------------- fleet ---------------- *)

(* How many times fleet reruns its report; how many times serve replays
   its session, and with how many requests in flight (the daemon's
   admission queue holds 64). *)
let report_reruns = 20
let replay_passes = 12
let replay_window = 16

let load_machines dir =
  match Machine_desc.load_dir dir with
  | Ok [] -> failwith (dir ^ ": no machine descriptions")
  | Ok descs -> descs
  | Error e -> failwith e

let fleet () =
  let t0 = float_arg "t0" and seed = int_arg "seed" and icount = int_arg "icount" in
  let descs = Span.with_ "uarch.desc_load" (fun () -> load_machines (arg "machines")) in
  let setup_s = now () -. t0 in
  let configs = List.map snd descs in
  let sample = fleet_sample ~seed ~g:(int_arg "gen") in
  let t = tally () in
  let c0 = now () in
  (* One Fleet.characterize call per workload, so each workload's latency
     is seen; the calls together do exactly the work of one call over the
     whole sample. *)
  let parts =
    List.filter_map
      (fun w ->
        let s = now () in
        match Span.with_ "fleet.characterize" (fun () -> Fleet.characterize ~jobs:1 ~configs ~icount [ w ]) with
        | f ->
          t.attempted <- t.attempted + 1;
          Some (f, (now () -. s) *. 1000.0)
        | exception e ->
          check t false (lazy (Printf.sprintf "%s: %s" (Workload.id w) (Printexc.to_string e)));
          None)
      sample
  in
  let fleet = concat_fleet (List.map fst parts) in
  let report () = Span.with_ "fleet.report" (fun () -> Fleet.render_report (Fleet.report fleet)) in
  let text = report () in
  let c2 = now () in
  (* The rerun with nothing left to compute: Fleet keeps no cache, so it
     is the report over the stored matrix.  Each call is timed. *)
  let report_ms =
    List.init report_reruns (fun _ ->
        let s = now () in
        let again = report () in
        let ms = (now () -. s) *. 1000.0 in
        check t (String.equal again text) (lazy "fleet: a rerun's report differs from the first");
        ms)
  in
  (* Oracle, outside timing: seeded cells against single-machine passes. *)
  let rng = Random.State.make [| seed; 0x0AC1E |] in
  let ws = Array.of_list sample and cs = Array.of_list descs in
  for _ = 1 to 4 do
    let wi = Random.State.int rng (Array.length ws) and mi = Random.State.int rng (Array.length cs) in
    let w = ws.(wi) and name, cfg = cs.(mi) in
    let id = Workload.id w in
    let expected = Machine.to_vector (Machine.measure cfg w.Workload.model ~icount) in
    let got =
      match Array.find_index (String.equal id) fleet.Fleet.workload_ids with
      | Some row ->
        let k = Array.length Machine.metric_names in
        Some (Array.sub fleet.Fleet.matrix.(row) (mi * k) k)
      | None -> None
    in
    check t
      (match got with Some g -> same_bits g expected | None -> false)
      (lazy (Printf.sprintf "fleet cell %s on %s differs from Machine.measure" id name))
  done;
  check t (String.length text > 0) (lazy "fleet: empty report");
  emit
    [
      ("setup_s", Json.Num setup_s);
      ("wall_s", Json.Num (c2 -. c0));
      ("report_ms", nums report_ms);
      ("item_ids", Json.List (Array.to_list (Array.map (fun id -> Json.Str id) fleet.Fleet.workload_ids)));
      ("item_ms", nums (List.map snd parts));
      ("peak_rss_mb", Json.Num (peak_rss_mb ()));
    ]
    t

(* ---------------- serve client ---------------- *)

(* The daemon's warm space and the answers it must give, recomputed here
   from vectors that match the pins (the daemon's own helpers are not
   exported, so the arithmetic is repeated operation for operation). *)
type oracle = { space : Space.t; vectors : (string * float array) list }

let oracle ~icount pins t =
  let cfg = config ~icount ~cache_dir:None in
  let rows =
    List.map
      (fun w ->
        let m, h = Pipeline.characterize cfg w in
        check_pinned t pins (Workload.id w) ~mica:m ~hpc:h;
        (Workload.id w, m))
      (warm_workloads ())
  in
  let ds =
    Dataset.create
      ~names:(Array.of_list (List.map fst rows))
      ~features:A.Characteristics.short_names
      (Array.of_list (List.map snd rows))
  in
  { space = Space.of_dataset ds; vectors = rows }

let expected_distance o a b =
  let za = Space.place o.space (List.assoc a o.vectors)
  and zb = Space.place o.space (List.assoc b o.vectors) in
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = x -. zb.(i) in
      acc := !acc +. (d *. d))
    za;
  sqrt !acc

let expected_neighbors o id k =
  let ds = o.space.Space.dataset in
  Space.distances_from o.space (List.assoc id o.vectors)
  |> Array.mapi (fun i d -> (ds.Dataset.names.(i), d))
  |> Array.to_list
  |> List.filter (fun (n, _) -> n <> id)
  |> List.stable_sort (fun (_, a) (_, b) -> compare a b)
  |> List.filteri (fun i _ -> i < k)

type kind = Cold | Warm

type req = { due : float; kind : kind; op : Protocol.op }

(* The session: every registry workload outside the warm set once, as a
   cold characterize, spread over [119 / cold_rate] seconds by a seeded
   Poisson process whose last arrival is pinned to the session end (so the
   session length does not depend on the seed), plus Poisson warm traffic
   at [warm_rate] over the same interval. *)
let schedule ~seed ~cold_rate ~warm_rate =
  let rng = Random.State.make [| seed; 0x5E55 |] in
  let exp rate = -.log (1.0 -. Random.State.float rng 1.0) /. rate in
  let cold =
    Array.of_list
      (List.filter (fun w -> not (List.mem (Workload.id w) warm_ids)) Registry.all)
  in
  for i = Array.length cold - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = cold.(i) in
    cold.(i) <- cold.(j);
    cold.(j) <- x
  done;
  let n = Array.length cold in
  let horizon = float_of_int n /. cold_rate in
  let gaps = Array.init n (fun _ -> exp cold_rate) in
  let total = Array.fold_left ( +. ) 0.0 gaps in
  let acc = ref 0.0 in
  let colds =
    Array.to_list
      (Array.mapi
         (fun i w ->
           acc := !acc +. gaps.(i);
           {
             due = !acc *. horizon /. total;
             kind = Cold;
             op = Protocol.Characterize { workload = Workload.id w; estimate = false };
           })
         cold)
  in
  let warm = Array.of_list warm_ids in
  let pick () = warm.(Random.State.int rng (Array.length warm)) in
  let rec warms t acc =
    let t = t +. exp warm_rate in
    if t >= horizon then List.rev acc
    else
      let op =
        match Random.State.int rng 4 with
        | 0 -> Protocol.Characterize { workload = pick (); estimate = false }
        | 1 ->
          let a = pick () in
          let rec other () = let b = pick () in if b = a then other () else b in
          Protocol.Distance { a; b = other () }
        | 2 -> Protocol.Classify { workload = pick (); threshold = 1.0 }
        | _ -> Protocol.Knn { workload = pick (); k = 2 }
      in
      warms t ({ due = t; kind = Warm; op } :: acc)
  in
  List.stable_sort (fun a b -> compare a.due b.due) (colds @ warms 0.0 [])
  |> Array.of_list

let check_reply ?(replay = false) t pins o (r : req) (resp : Protocol.response) =
  let what () =
    match r.op with
    | Protocol.Characterize { workload; _ } -> "characterize " ^ workload
    | Protocol.Distance { a; b } -> Printf.sprintf "distance %s %s" a b
    | Protocol.Classify { workload; _ } -> "classify " ^ workload
    | Protocol.Knn { workload; _ } -> "knn " ^ workload
    | Protocol.Health | Protocol.Metrics -> "health"
  in
  let ok =
    resp.Protocol.status = Protocol.Ok
    &&
    match (r.op, resp.Protocol.payload) with
    | Protocol.Characterize { workload; _ }, Some (Protocol.Vector v) ->
      (not v.estimated)
      && v.cached = (replay || r.kind = Warm)
      && (match Hashtbl.find_opt pins workload with
         | Some (dm, dh) -> dm = row_digest v.mica && dh = row_digest v.hpc
         | None -> false)
    | Protocol.Distance { a; b }, Some (Protocol.Number d) ->
      same_bits [| d |] [| expected_distance o a b |]
    | Protocol.Classify { workload; threshold }, Some (Protocol.Classification c) -> (
      match expected_neighbors o workload 1 with
      | [ (n, d) ] ->
        c.nearest = n && same_bits [| c.distance |] [| d |] && c.within = (d <= threshold)
      | _ -> false)
    | Protocol.Knn { workload; k }, Some (Protocol.Neighbors l) ->
      let e = expected_neighbors o workload k in
      List.length l = List.length e
      && List.for_all2 (fun (n, d) (n', d') -> n = n' && same_bits [| d |] [| d' |]) l e
    | _ -> false
  in
  check t ok
    (lazy
      (Printf.sprintf "%s: %s" (what ())
         (match (resp.Protocol.status, resp.Protocol.error) with
         | Protocol.Ok, _ -> "reply differs from its oracle"
         | status, Some e -> Protocol.status_name status ^ " (" ^ e ^ ")"
         | status, None -> Protocol.status_name status)))

(* Newline-delimited reader over a socket. *)
type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let rec write_all fd s off =
  if off < String.length s then write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Read what is available and return the complete lines. *)
let read_lines c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "daemon closed the connection";
  Buffer.add_subbytes c.buf c.chunk 0 n;
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
    Buffer.clear c.buf;
    Buffer.add_string c.buf (String.sub s (last + 1) (String.length s - last - 1));
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (String.sub s 0 last))

let rec read_one c =
  match read_lines c with
  | [] -> read_one c
  | [ l ] -> l
  | _ -> failwith "unexpected pipelined reply"

let connect path ~t0 =
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if now () -. t0 > 120.0 then failwith ("no daemon on " ^ path);
      Unix.sleepf 0.0005;
      go ()
  in
  let fd = go () in
  { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536 }

let client () =
  let t0 = float_arg "t0" and seed = int_arg "seed" and icount = int_arg "icount" in
  let c = connect (arg "socket") ~t0 in
  (* Set-up ends at the first health reply showing the warm set resident. *)
  let rec health () =
    write_all c.fd (Protocol.encode_request { Protocol.id = 0; op = Protocol.Health; deadline_ms = None } ^ "\n") 0;
    match Protocol.decode_response (read_one c) with
    | Ok { Protocol.payload = Some (Protocol.Health_info h); _ } when h.warm >= List.length warm_ids -> ()
    | Ok _ ->
      Unix.sleepf 0.001;
      health ()
    | Error e -> failwith ("health: " ^ e)
  in
  health ();
  let setup_s = now () -. t0 in
  let t = tally () in
  let pins = load_pins ~icount (arg "pins") in
  let o = oracle ~icount pins t in
  let sched = schedule ~seed ~cold_rate:(float_arg "cold-rate") ~warm_rate:(float_arg "warm-rate") in
  let n = Array.length sched in
  let sent = Array.make n nan and got = Array.make n nan in
  let replies = Array.make n None in
  let codec = ref 0.0 in
  let received = ref 0 and next = ref 0 in
  let take line =
    let tr = now () in
    let r = Protocol.decode_response line in
    codec := !codec +. (now () -. tr);
    match r with
    | Ok resp when resp.Protocol.rid >= 1 && resp.Protocol.rid <= n && replies.(resp.Protocol.rid - 1) = None ->
      let i = resp.Protocol.rid - 1 in
      got.(i) <- tr;
      replies.(i) <- Some resp;
      incr received
    | Ok resp -> check t false (lazy (Printf.sprintf "reply with unexpected id %d" resp.Protocol.rid))
    | Error e -> check t false (lazy ("undecodable reply: " ^ e))
  in
  let start = now () +. 0.05 in
  let last_progress = ref (now ()) in
  while !received < n do
    let tn = now () in
    if !next < n && tn >= start +. sched.(!next).due then begin
      let i = !next in
      let e0 = now () in
      let line = Protocol.encode_request { Protocol.id = i + 1; op = sched.(i).op; deadline_ms = None } in
      codec := !codec +. (now () -. e0);
      write_all c.fd (line ^ "\n") 0;
      sent.(i) <- now ();
      incr next
    end
    else begin
      let timeout = if !next < n then start +. sched.(!next).due -. tn else 1.0 in
      match Unix.select [ c.fd ] [] [] (Float.max 0.0 timeout) with
      | [ _ ], _, _ ->
        List.iter take (read_lines c);
        last_progress := now ()
      | _ -> if !next >= n && now () -. !last_progress > 60.0 then failwith "daemon stopped replying"
    end
  done;
  let latency i = (got.(i) -. (start +. sched.(i).due)) *. 1000.0 in
  let makespan = Array.fold_left Float.max neg_infinity got -. start in
  Array.iteri
    (fun i r ->
      match replies.(i) with
      | Some resp -> check_reply t pins o r resp
      | None -> check t false (lazy (Printf.sprintf "request %d: no reply" (i + 1))))
    sched;
  (* The rerun with nothing left to compute: the session's requests again,
     every one now answered from the daemon's table, with [replay_window]
     in flight, [replay_passes] times over, each pass timed.  A closed loop
     of one request at a time would time the host's thread wake-ups more
     than the daemon.  Replies are checked after the clock stops. *)
  let total = replay_passes * n in
  let replayed = Array.make total None in
  let replay_pass pass =
    let first = pass * n in
    let issued = ref first and answered = ref 0 in
    let send () =
      let k = !issued in
      write_all c.fd
        (Protocol.encode_request { Protocol.id = n + 1 + k; op = sched.(k - first).op; deadline_ms = None } ^ "\n")
        0;
      incr issued
    in
    let r0 = now () in
    while !issued < first + min replay_window n do
      send ()
    done;
    while !answered < n do
      List.iter
        (fun line ->
          incr answered;
          (match Protocol.decode_response line with
          | Ok resp when resp.Protocol.rid > n + first && resp.Protocol.rid <= n + first + n ->
            replayed.(resp.Protocol.rid - n - 1) <- Some resp
          | Ok _ -> check t false (lazy "replay: reply with unexpected id")
          | Error e -> check t false (lazy ("replay: undecodable reply: " ^ e)));
          if !issued < first + n then send ())
        (read_lines c)
    done;
    (now () -. r0) *. 1000.0
  in
  let replay_ms = List.init replay_passes replay_pass in
  Array.iteri
    (fun k r ->
      match r with
      | Some resp -> check_reply ~replay:true t pins o sched.(k mod n) resp
      | None -> check t false (lazy (Printf.sprintf "replay request %d: no reply" (n + 1 + k))))
    replayed;
  let elapsed i = match replies.(i) with Some r -> r.Protocol.elapsed_ms | None -> nan in
  let cached =
    Array.fold_left
      (fun acc r ->
        match r with
        | Some { Protocol.payload = Some (Protocol.Vector { cached = true; _ }); _ } -> acc + 1
        | _ -> acc)
      0 replies
  in
  let characterizes =
    Array.fold_left
      (fun acc r -> match r.op with Protocol.Characterize _ -> acc + 1 | _ -> acc)
      0 sched
  in
  (* One span per request from its due time to its reply, with the send
     and the daemon's own time (by its elapsed_ms) as children. *)
  Array.iteri
    (fun i r ->
      let due = start +. r.due in
      let id =
        Span.record ~req:(i + 1) ~parent:(-1)
          (if r.kind = Cold then "serve.request.cold" else "serve.request.warm")
          ~start:due ~stop:got.(i)
      in
      ignore (Span.record ~req:(i + 1) ~parent:id "serve.send" ~start:due ~stop:sent.(i) : int);
      ignore
        (Span.record ~req:(i + 1) ~parent:id "serve.daemon"
           ~start:(got.(i) -. (elapsed i /. 1000.0))
           ~stop:got.(i)
          : int))
    sched;
  let select kind f =
    List.filter_map
      (fun i -> if sched.(i).kind = kind then Some (f i) else None)
      (List.init n Fun.id)
  in
  emit
    [
      ("setup_s", Json.Num setup_s);
      ("wall_s", Json.Num makespan);
      ("replay_ms", nums replay_ms);
      ( "cold_ids",
        Json.List
          (select Cold (fun i ->
               match sched.(i).op with Protocol.Characterize { workload; _ } -> Json.Str workload | _ -> Json.Null))
      );
      ("cold_ms", nums (select Cold latency));
      ("warm_ms", nums (select Warm latency));
      ("daemon_cold_ms", nums (select Cold elapsed));
      ("daemon_warm_ms", nums (select Warm elapsed));
      ("client_warm_ms", nums (select Warm (fun i -> latency i -. elapsed i)));
      ("lag_ms", nums (List.init n (fun i -> (sent.(i) -. (start +. sched.(i).due)) *. 1000.0)));
      ("codec_us", Json.Num (!codec *. 1e6 /. float_of_int n));
      ("cached_frac", Json.Num (float_of_int cached /. float_of_int characterizes));
    ]
    t

(* ---------------- traced layer passes ---------------- *)

(* Each layer's cost on the workload's own inputs, split from outside:
   generation into a null sink, then each consumer alone over the same
   traces; a consumer's cost is its pass minus the generation pass.
   Minor-word counts repeat exactly between runs of one build, and are
   printed under "counts" for run.py to compare across traced runs. *)
let layers () =
  let seed = int_arg "seed" and icount = int_arg "icount" in
  let inputs =
    match arg "workload" with
    | "fleet" -> fleet_sample ~seed ~g:(int_arg "gen")
    | _ -> Registry.all
  in
  let instrs = float_of_int (List.length inputs * icount) in
  let t = tally () in
  let metrics = ref [] and counts = ref [] in
  let put k v = metrics := (k, Json.Num v) :: !metrics in
  let count k v = counts := (k, Json.Num v) :: !counts in
  let ms f =
    let t0 = now () in
    let v = f () in
    (v, (now () -. t0) *. 1000.0)
  in
  let descs, load_ms =
    ms (fun () -> Span.with_ "uarch.desc_load" (fun () -> load_machines (arg "machines")))
  in
  put "uarch.desc_load_ms" load_ms;
  let configs = List.map snd descs in
  let feed make (w : Workload.t) =
    ignore (Generator.run w.Workload.model ~icount ~sink:(make ()) : int)
  in
  (* The single-machine passes double as the oracle for the fleet matrix. *)
  let single = Hashtbl.create 1024 and parts = ref [] in
  let passes =
    [ ("trace.gen", feed (fun () -> Sink.make ~name:"null" (fun _ -> ()))) ]
    @ List.map
        (fun (name, make) -> ("analysis." ^ name, feed make))
        [
          ("mix", fun () -> A.Mix.sink (A.Mix.create ()));
          ("ilp", fun () -> A.Ilp.sink (A.Ilp.create ()));
          ("regtraffic", fun () -> A.Regtraffic.sink (A.Regtraffic.create ()));
          ("working_set", fun () -> A.Working_set.sink (A.Working_set.create ()));
          ("strides", fun () -> A.Strides.sink (A.Strides.create ()));
          ( "ppm",
            fun () -> A.Ppm.sink (A.Ppm.create ~order:Pipeline.default_config.Pipeline.ppm_order ()) );
          ("fanout", fun () -> A.Analyzer.sink (A.Analyzer.create ()));
        ]
    @ [ ("uarch.hw_counters", fun w -> ignore (Hw.measure w.Workload.model ~icount : Hw.result)) ]
    @ List.map
        (fun (name, cfg) ->
          ( "uarch.machine." ^ name,
            fun w ->
              Hashtbl.replace single (Workload.id w, name)
                (Machine.to_vector (Machine.measure cfg w.Workload.model ~icount)) ))
        descs
    @ [ ("uarch.fleet", fun w -> parts := Fleet.characterize ~jobs:1 ~configs ~icount [ w ] :: !parts) ]
  in
  (* Every pass runs on a workload before the next workload starts, so a
     burst of host contention falls on all passes alike. *)
  let cost = Hashtbl.create 32 in
  List.iter
    (fun w ->
      List.iter
        (fun (name, f) ->
          let s, words =
            Span.with_ name (fun () ->
                let w0 = Gc.minor_words () and t0 = now () in
                f w;
                (now () -. t0, Gc.minor_words () -. w0))
          in
          let s0, w0 = Option.value (Hashtbl.find_opt cost name) ~default:(0.0, 0.0) in
          Hashtbl.replace cost name (s0 +. s, w0 +. words))
        passes)
    inputs;
  List.iter (fun (name, _) -> count (name ^ ".minor_words") (snd (Hashtbl.find cost name))) passes;
  let gen_s, gen_w = Hashtbl.find cost "trace.gen" in
  let net name =
    let s, w = Hashtbl.find cost name in
    ((s -. gen_s) *. 1e9 /. instrs, (w -. gen_w) /. instrs)
  in
  put "trace.gen_ns_per_instr" (gen_s *. 1e9 /. instrs);
  put "trace.gen_words_per_instr" (gen_w /. instrs);
  List.iter
    (fun name -> put (Printf.sprintf "analysis.%s_ns_per_instr" name) (fst (net ("analysis." ^ name))))
    [ "mix"; "ilp"; "regtraffic"; "working_set"; "strides"; "ppm"; "fanout" ];
  put "analysis.words_per_instr" (snd (net "analysis.fanout"));
  let ns, words = net "uarch.hw_counters" in
  put "uarch.hw_counters_ns_per_instr" ns;
  put "uarch.hw_counters_words_per_instr" words;
  List.iter
    (fun (name, _) ->
      put (Printf.sprintf "uarch.machine.%s_ns_per_instr" name) (fst (net ("uarch.machine." ^ name))))
    descs;
  let ns, words = net "uarch.fleet" in
  put "uarch.fleet_ns_per_instr" ns;
  put "uarch.fleet_words_per_instr" words;
  let fleet = concat_fleet (List.rev !parts) in
  let k = Array.length Machine.metric_names in
  Array.iteri
    (fun row id ->
      List.iteri
        (fun m (name, _) ->
          check t
            (same_bits (Array.sub fleet.Fleet.matrix.(row) (m * k) k) (Hashtbl.find single (id, name)))
            (lazy (Printf.sprintf "fleet cell %s on %s differs from Machine.measure" id name)))
        descs)
    fleet.Fleet.workload_ids;
  let (_ : Fleet.report), report_ms = ms (fun () -> Span.with_ "fleet.report" (fun () -> Fleet.report fleet)) in
  put "fleet.report_ms" report_ms;
  (* Core pipeline. *)
  let cfg = config ~icount ~cache_dir:(Some (Filename.concat (arg "work") "cache")) in
  let pins = load_pins ~icount (arg "pins") in
  let rows, char_ms =
    List.split
      (List.map
         (fun w ->
           let (m, h), t_ms =
             ms (fun () -> Span.with_ "pipeline.characterize" (fun () -> Pipeline.characterize cfg w))
           in
           let id = Workload.id w in
           if Hashtbl.mem pins id then check_pinned t pins id ~mica:m ~hpc:h;
           ((id, (m, h)), t_ms))
         inputs)
  in
  put "pipeline.characterize_ms_p50" (percentile 0.5 char_ms);
  put "pipeline.characterize_ms_p90" (percentile 0.9 char_ms);
  let (), save_ms = ms (fun () -> Span.with_ "pipeline.flush_cache" (fun () -> Pipeline.flush_cache cfg rows)) in
  put "pipeline.cache_save_ms" save_ms;
  let loaded, load_ms = ms (fun () -> Span.with_ "pipeline.warm_cache" (fun () -> Pipeline.warm_cache cfg)) in
  put "pipeline.cache_load_ms" load_ms;
  check t (List.length loaded = List.length inputs) (lazy "cache reload lost rows");
  (* Core experiments, selection and clustering over the same inputs. *)
  let ctx = E.Context.load ~config:cfg ~workloads:inputs () in
  check t (Run_report.computed ctx.E.Context.report = 0) (lazy "context load recomputed rows");
  let (_ : Space.t), space_ms = ms (fun () -> Span.with_ "space.build" (fun () -> Space.of_dataset ctx.E.Context.mica)) in
  put "space.build_ms" space_ms;
  let ce, ce_ms = ms (fun () -> Span.with_ "select.ce" (fun () -> E.run_ce ctx)) in
  let ga, ga_ms = ms (fun () -> Span.with_ "select.ga" (fun () -> E.run_ga ctx)) in
  let evals = float_of_int ga.Mica_select.Genetic.evaluations in
  put "select.ce_ms" ce_ms;
  put "select.ga_ms" ga_ms;
  put "select.ga_evaluations" evals;
  put "select.ga_us_per_eval" (ga_ms *. 1000.0 /. evals);
  count "select.ga_evaluations" evals;
  let (), fig_ms =
    ms (fun () ->
        Span.with_ "experiments.figures" (fun () ->
            ignore (E.fig1 ctx : E.fig1);
            ignore (E.table3 ctx : Mica_core.Classify.counts);
            ignore (E.fig4 ctx ~ga ~ce : E.roc_entry list);
            ignore (E.fig5 ctx ~ga : E.fig5)))
  in
  put "experiments.figures_ms" fig_ms;
  let selected = ga.Mica_select.Genetic.selected in
  let (_ : E.fig6), bic_ms = ms (fun () -> Span.with_ "stats.kmeans_bic" (fun () -> E.fig6 ctx ~selected)) in
  put "stats.kmeans_bic_ms" bic_ms;
  let (_ : E.cost), cost_ms = ms (fun () -> Span.with_ "experiments.cost" (fun () -> E.cost_model ctx ~selected)) in
  put "experiments.cost_ms" cost_ms;
  count "instrs" instrs;
  emit
    [ ("metrics", Json.Obj (List.rev !metrics)); ("counts", Json.Obj (List.rev !counts)) ]
    t

let () =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: mbench (pin|paper|fleet|client|layers) --key value ...";
    exit 2
  end;
  parse_args Sys.argv;
  setup_spans ();
  match Sys.argv.(1) with
  | "pin" -> pin ()
  | "paper" -> paper ()
  | "fleet" -> fleet ()
  | "client" -> client ()
  | "layers" -> layers ()
  | m ->
    prerr_endline ("mbench: unknown mode " ^ m);
    exit 2
