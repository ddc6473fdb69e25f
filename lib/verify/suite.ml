module Workload = Mica_workloads.Workload

type level = Quick | Full

type check = { layer : string; subject : string; ok : bool; detail : string }

type report = { level : level; checks : check list; duration : float }

let passed r = List.for_all (fun c -> c.ok) r.checks
let failures r = List.filter (fun c -> not c.ok) r.checks

(* Three contrasting workloads (control-heavy integer, pointer-chasing
   memory-bound, floating-point streaming): the trio the golden tests pin. *)
let default_workloads () =
  List.map Mica_workloads.Registry.find_exn
    [ "MiBench/sha/large"; "SPEC2000/mcf/ref"; "SPEC2000/swim/ref" ]

let invariant_check ~icount (w : Workload.t) =
  let inv = Invariant_sink.create () in
  let (_ : int) =
    Mica_trace.Generator.run w.Workload.model ~icount ~sink:(Invariant_sink.sink inv)
  in
  match Invariant_sink.finish ~expected_icount:icount inv with
  | [] ->
    {
      layer = "invariants";
      subject = Workload.id w;
      ok = true;
      detail =
        Printf.sprintf "%d instructions clean (%d live-in registers)" icount
          (Invariant_sink.live_in_registers inv);
    }
  | v :: _ as vs ->
    {
      layer = "invariants";
      subject = Workload.id w;
      ok = false;
      detail =
        Printf.sprintf "%d violations; first: %s" (List.length vs)
          (Format.asprintf "%a" Invariant_sink.pp_violation v);
    }

let reference_check ~icount (w : Workload.t) =
  match Reference.check w.Workload.model ~icount with
  | [] ->
    {
      layer = "reference";
      subject = Workload.id w;
      ok = true;
      detail = Printf.sprintf "all 47 characteristics agree over %d instructions" icount;
    }
  | m :: _ as ms ->
    {
      layer = "reference";
      subject = Workload.id w;
      ok = false;
      detail =
        Printf.sprintf "%d characteristics disagree; first: %s" (List.length ms)
          (Format.asprintf "%a" Reference.pp_mismatch m);
    }

let differential_checks ~icount workloads =
  List.map
    (fun (o : Differential.outcome) ->
      {
        layer = "differential";
        subject = o.Differential.law;
        ok = o.Differential.ok;
        detail = o.Differential.detail;
      })
    (Differential.all workloads ~icount)

let sketch_checks ?accuracy_workloads ~icount workloads =
  List.map
    (fun (o : Sketch_laws.outcome) ->
      {
        layer = "sketch";
        subject = o.Sketch_laws.law;
        ok = o.Sketch_laws.ok;
        detail = o.Sketch_laws.detail;
      })
    (Sketch_laws.all ?accuracy_workloads ~icount workloads)

let serve_checks ~icount workloads =
  List.map
    (fun (o : Serve_laws.outcome) ->
      { layer = "serve"; subject = o.Serve_laws.law; ok = o.Serve_laws.ok; detail = o.Serve_laws.detail })
    (Serve_laws.all ~icount workloads)

let scale_checks ~size =
  List.map
    (fun (o : Approx.outcome) ->
      { layer = "scale"; subject = o.Approx.law; ok = o.Approx.ok; detail = o.Approx.detail })
    (Approx.all ~size ())

let run ?(level = Quick) ?workloads ?invariant_icount ?reference_icount ?differential_icount ()
    =
  let workloads = match workloads with Some ws -> ws | None -> default_workloads () in
  let dflt quick full = match level with Quick -> quick | Full -> full in
  let invariant_icount = Option.value invariant_icount ~default:(dflt 50_000 200_000) in
  let reference_icount = Option.value reference_icount ~default:(dflt 2_000 5_000) in
  let differential_icount = Option.value differential_icount ~default:(dflt 10_000 50_000) in
  (* The full suite sweeps the accuracy bound over the whole registry —
     the sketch's error contract is per-workload, so spot checks on the
     trio are only a smoke test. *)
  let accuracy_workloads =
    match level with Quick -> None | Full -> Some Mica_workloads.Registry.all
  in
  let t0 = Unix.gettimeofday () in
  let checks =
    List.map (invariant_check ~icount:invariant_icount) workloads
    @ List.map (reference_check ~icount:reference_icount) workloads
    @ differential_checks ~icount:differential_icount workloads
    @ sketch_checks ?accuracy_workloads ~icount:(dflt 20_000 100_000) workloads
    @ serve_checks ~icount:(dflt 10_000 20_000) workloads
    @ scale_checks ~size:(dflt 96 256)
  in
  { level; checks; duration = Unix.gettimeofday () -. t0 }

let render r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%-6s %-13s %-24s %s\n"
           (if c.ok then "ok" else "FAIL")
           c.layer c.subject c.detail))
    r.checks;
  let fails = List.length (failures r) in
  Buffer.add_string buf
    (Printf.sprintf "%d checks, %d failures (%.1fs, %s)\n" (List.length r.checks) fails
       r.duration
       (match r.level with Quick -> "quick" | Full -> "full"));
  Buffer.contents buf
