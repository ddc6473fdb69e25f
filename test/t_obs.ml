(* Observability layer: metrics registry, span tracer, exporters.

   The registry is process-global, so every test runs inside [with_obs],
   which resets all readings and restores the disabled state afterwards —
   the rest of the test binary must see an inert, empty registry. *)

module Obs = Mica_obs.Obs
module Json = Mica_obs.Json
module Pool = Mica_util.Pool

let with_obs ?(events = false) f =
  Obs.reset ();
  Obs.set_enabled true;
  Obs.set_record_events events;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.set_record_events false;
      Obs.reset ())
    f

let metric_value name = List.assoc_opt name (Obs.snapshot ()).Obs.metrics
let span_stat name = List.assoc_opt name (Obs.snapshot ()).Obs.spans

let counter_value name =
  match metric_value name with
  | Some (Obs.Counter v) -> v
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> Alcotest.failf "%s not in snapshot" name

(* keep handles at module level: registration is once-per-process *)
let m_basic = Obs.counter "t_obs.basic"
let m_gauge = Obs.gauge "t_obs.gauge"
let m_hist = Obs.histogram "t_obs.hist"
let m_hist_empty = Obs.histogram "t_obs.hist_empty"
let m_gauge_inf = Obs.gauge "t_obs.gauge_inf"
let m_gauge_ninf = Obs.gauge "t_obs.gauge_ninf"
let m_cross = Obs.counter "t_obs.cross"
let m_off = Obs.counter "t_obs.off"
let m_overhead = Obs.counter "t_obs.overhead"

(* ---------------- metric semantics ---------------- *)

let test_counter_semantics () =
  with_obs (fun () ->
      Obs.incr m_basic;
      Obs.incr m_basic;
      Obs.add m_basic 2.5;
      Alcotest.(check (float 1e-9)) "incr+add accumulate" 4.5 (counter_value "t_obs.basic");
      (* counter ops on a gauge handle are no-ops, not corruption *)
      Obs.incr m_gauge;
      Alcotest.(check bool) "gauge untouched by incr"
        true
        (match metric_value "t_obs.gauge" with Some (Obs.Gauge 0.0) -> true | _ -> false))

let test_gauge_semantics () =
  with_obs (fun () ->
      Obs.set m_gauge 7.0;
      Obs.set m_gauge (-2.5);
      match metric_value "t_obs.gauge" with
      | Some (Obs.Gauge v) -> Alcotest.(check (float 1e-9)) "last set wins" (-2.5) v
      | _ -> Alcotest.fail "gauge missing")

let test_histogram_semantics () =
  with_obs (fun () ->
      Obs.observe m_hist 5e-7;
      (* below the lowest bound *)
      Obs.observe m_hist 2.0;
      Obs.observe m_hist 5000.0;
      (* above the highest bound: +Inf bucket *)
      match metric_value "t_obs.hist" with
      | Some (Obs.Histogram h) ->
        Alcotest.(check int) "count" 3 h.Obs.h_count;
        Alcotest.(check (float 1e-6)) "sum" 5002.0000005 h.Obs.h_sum;
        Alcotest.(check (float 1e-12)) "min" 5e-7 h.Obs.h_min;
        Alcotest.(check (float 1e-9)) "max" 5000.0 h.Obs.h_max;
        let n = Array.length h.Obs.h_buckets in
        Alcotest.(check bool) "has buckets" true (n > 1);
        let last_bound, last_count = h.Obs.h_buckets.(n - 1) in
        Alcotest.(check bool) "last bound is +Inf" true (last_bound = Float.infinity);
        Alcotest.(check int) "cumulative tail holds all samples" 3 last_count;
        (* Prometheus-style: bucket counts are cumulative, hence monotone *)
        for i = 1 to n - 1 do
          let _, a = h.Obs.h_buckets.(i - 1) and _, b = h.Obs.h_buckets.(i) in
          if b < a then Alcotest.failf "bucket counts not monotone at %d" i
        done;
        let _, first_count = h.Obs.h_buckets.(0) in
        Alcotest.(check int) "tiny sample lands in first bucket" 1 first_count
      | _ -> Alcotest.fail "histogram missing")

let test_empty_histogram () =
  with_obs (fun () ->
      match metric_value "t_obs.hist_empty" with
      | Some (Obs.Histogram h) ->
        Alcotest.(check int) "count 0" 0 h.Obs.h_count;
        Alcotest.(check bool) "min is nan" true (Float.is_nan h.Obs.h_min);
        Alcotest.(check bool) "max is nan" true (Float.is_nan h.Obs.h_max)
      | _ -> Alcotest.fail "histogram missing")

let test_registration_dedup_and_mismatch () =
  let again = Obs.counter "t_obs.basic" in
  with_obs (fun () ->
      Obs.incr m_basic;
      Obs.incr again;
      Alcotest.(check (float 1e-9))
        "same name -> same cell" 2.0 (counter_value "t_obs.basic"));
  (try
     ignore (Obs.gauge "t_obs.basic");
     Alcotest.fail "kind mismatch must raise"
   with Invalid_argument _ -> ())

let test_disabled_records_nothing () =
  Obs.reset ();
  Obs.set_enabled false;
  Obs.incr m_off;
  Obs.add m_off 5.0;
  Obs.set m_gauge 9.0;
  Obs.observe m_hist 1.0;
  let r = Obs.span "t_obs.off_span" (fun () -> 41 + 1) in
  Alcotest.(check int) "span still runs f" 42 r;
  Alcotest.(check (float 1e-9)) "counter untouched" 0.0 (counter_value "t_obs.off");
  Alcotest.(check bool) "no span recorded" true (span_stat "t_obs.off_span" = None);
  (match metric_value "t_obs.hist" with
  | Some (Obs.Histogram h) -> Alcotest.(check int) "histogram untouched" 0 h.Obs.h_count
  | _ -> Alcotest.fail "histogram missing")

(* ---------------- spans ---------------- *)

let burn_alloc n =
  let acc = ref [] in
  for i = 1 to n do
    acc := i :: !acc
  done;
  ignore (Sys.opaque_identity !acc)

let test_span_nesting_self_total () =
  with_obs (fun () ->
      Obs.span "t_obs.parent" (fun () ->
          burn_alloc 2000;
          Obs.span "t_obs.child" (fun () -> burn_alloc 2000));
      match (span_stat "t_obs.parent", span_stat "t_obs.child") with
      | Some p, Some c ->
        Alcotest.(check int) "parent count" 1 p.Obs.sp_count;
        Alcotest.(check int) "child count" 1 c.Obs.sp_count;
        Alcotest.(check bool) "child total <= parent total" true
          (c.Obs.sp_total_s <= p.Obs.sp_total_s +. 1e-9);
        Alcotest.(check (float 1e-9))
          "parent self = total - child time"
          (p.Obs.sp_total_s -. c.Obs.sp_total_s)
          p.Obs.sp_self_s;
        Alcotest.(check (float 1e-9)) "leaf self = total" c.Obs.sp_total_s c.Obs.sp_self_s;
        Alcotest.(check bool) "child allocation attributed" true
          (c.Obs.sp_minor_words >= 4000.0);
        Alcotest.(check bool) "parent sees its own allocation" true
          (p.Obs.sp_minor_words >= 4000.0)
      | _ -> Alcotest.fail "span stats missing")

let test_span_exception_safety () =
  with_obs (fun () ->
      (try Obs.span "t_obs.outer" (fun () -> Obs.span "t_obs.boom" (fun () -> raise Exit))
       with Exit -> ());
      (* the stack must be clean: a fresh root span is a root again *)
      Obs.span "t_obs.after" (fun () -> ());
      match (span_stat "t_obs.outer", span_stat "t_obs.boom", span_stat "t_obs.after") with
      | Some o, Some b, Some a ->
        Alcotest.(check int) "outer closed once" 1 o.Obs.sp_count;
        Alcotest.(check int) "raising span closed once" 1 b.Obs.sp_count;
        Alcotest.(check int) "subsequent span fine" 1 a.Obs.sp_count;
        Alcotest.(check bool) "after is a root (self = total)" true
          (abs_float (a.Obs.sp_self_s -. a.Obs.sp_total_s) < 1e-9)
      | _ -> Alcotest.fail "span stats missing")

let test_span_repeat_counts () =
  with_obs (fun () ->
      for _ = 1 to 5 do
        Obs.span "t_obs.loop" (fun () -> ())
      done;
      match span_stat "t_obs.loop" with
      | Some s ->
        Alcotest.(check int) "count accumulates" 5 s.Obs.sp_count;
        Alcotest.(check bool) "total finite, non-negative" true
          (Float.is_finite s.Obs.sp_total_s && s.Obs.sp_total_s >= 0.0)
      | None -> Alcotest.fail "span missing")

(* ---------------- cross-domain aggregation ---------------- *)

let test_cross_domain_aggregation () =
  let run jobs =
    with_obs (fun () ->
        Pool.with_pool ~jobs (fun pool ->
            Pool.run pool 64 (fun _ ->
                Obs.span "t_obs.task" (fun () -> Obs.incr m_cross)));
        (counter_value "t_obs.cross", span_stat "t_obs.task"))
  in
  let check label (total, stat) =
    Alcotest.(check (float 1e-9)) (label ^ ": all increments merged") 64.0 total;
    match stat with
    | Some s ->
      Alcotest.(check int) (label ^ ": span count merged") 64 s.Obs.sp_count;
      Alcotest.(check bool)
        (label ^ ": merged totals finite") true
        (Float.is_finite s.Obs.sp_total_s && Float.is_finite s.Obs.sp_self_s)
    | None -> Alcotest.fail "task span missing"
  in
  check "jobs=1" (run 1);
  (* jobs=4: readings live in worker-domain stores; with_pool shuts the
     workers down before we snapshot, so this also proves stats survive
     domain death *)
  check "jobs=4" (run 4)

let test_stats_survive_shutdown () =
  with_obs (fun () ->
      let pool = Pool.create ~jobs:3 in
      Pool.run pool 32 (fun _ -> Obs.incr m_cross);
      Pool.shutdown pool;
      Alcotest.(check (float 1e-9)) "after shutdown" 32.0 (counter_value "t_obs.cross");
      (* respawned workers keep accumulating into the same metric *)
      Pool.run pool 32 (fun _ -> Obs.incr m_cross);
      Pool.shutdown pool;
      Alcotest.(check (float 1e-9)) "across respawn" 64.0 (counter_value "t_obs.cross"))

(* ---------------- event journal / span tree ---------------- *)

let check_well_formed evs =
  let stack = ref [] in
  let last_t = ref neg_infinity in
  List.iter
    (fun e ->
      if e.Obs.ev_time < !last_t then Alcotest.fail "event times went backwards";
      last_t := e.Obs.ev_time;
      if e.Obs.ev_enter then stack := e.Obs.ev_name :: !stack
      else
        match !stack with
        | top :: rest when top = e.Obs.ev_name -> stack := rest
        | top :: _ -> Alcotest.failf "exit %S while %S is open" e.Obs.ev_name top
        | [] -> Alcotest.failf "exit %S with empty stack" e.Obs.ev_name)
    evs;
  if !stack <> [] then Alcotest.failf "%d spans never closed" (List.length !stack)

let test_events_reconstruct_tree () =
  with_obs ~events:true (fun () ->
      Obs.span "t_obs.a" (fun () ->
          Obs.span "t_obs.b" (fun () -> ());
          Obs.span "t_obs.c" (fun () -> Obs.span "t_obs.d" (fun () -> ())));
      (try Obs.span "t_obs.e" (fun () -> raise Exit) with Exit -> ());
      let stores = Obs.events () in
      let all = List.concat_map snd stores in
      Alcotest.(check int) "5 spans -> 10 events" 10 (List.length all);
      List.iter (fun (_, evs) -> check_well_formed evs) stores;
      let enters =
        List.filter_map (fun e -> if e.Obs.ev_enter then Some e.Obs.ev_name else None) all
      in
      Alcotest.(check (list string))
        "preorder" [ "t_obs.a"; "t_obs.b"; "t_obs.c"; "t_obs.d"; "t_obs.e" ] enters)

let test_events_off_by_default () =
  with_obs (fun () ->
      Obs.span "t_obs.silent" (fun () -> ());
      let n = List.fold_left (fun acc (_, evs) -> acc + List.length evs) 0 (Obs.events ()) in
      Alcotest.(check int) "no events without the flag" 0 n)

(* ---------------- exporters ---------------- *)

let rt_setup () =
  Obs.add m_basic 3.0;
  Obs.set m_gauge (-2.5);
  Obs.observe m_hist 0.25;
  Obs.observe m_hist 4.0;
  Obs.span "t_obs.rt_span" (fun () -> burn_alloc 100)

let get path doc =
  let rec go path doc =
    match path with
    | [] -> Some doc
    | k :: rest -> ( match Json.member k doc with Some d -> go rest d | None -> None)
  in
  match go path doc with
  | Some d -> d
  | None -> Alcotest.failf "missing JSON path %s" (String.concat "/" path)

let num path doc =
  match Json.to_num (get path doc) with
  | Some v -> v
  | None -> Alcotest.failf "non-number at %s" (String.concat "/" path)

let test_json_roundtrip () =
  with_obs (fun () ->
      rt_setup ();
      let doc = Json.parse_exn (Obs.to_json (Obs.snapshot ())) in
      Alcotest.(check (float 1e-9)) "counter survives" 3.0
        (num [ "metrics"; "t_obs.basic"; "value" ] doc);
      Alcotest.(check string) "counter typed"
        "counter"
        (Option.get (Json.to_str (get [ "metrics"; "t_obs.basic"; "type" ] doc)));
      Alcotest.(check (float 1e-9)) "gauge survives" (-2.5)
        (num [ "metrics"; "t_obs.gauge"; "value" ] doc);
      Alcotest.(check (float 1e-9)) "hist count" 2.0
        (num [ "metrics"; "t_obs.hist"; "count" ] doc);
      Alcotest.(check (float 1e-9)) "hist sum" 4.25 (num [ "metrics"; "t_obs.hist"; "sum" ] doc);
      Alcotest.(check bool) "empty hist min is null, read back as nan" true
        (get [ "metrics"; "t_obs.hist_empty"; "min" ] doc = Json.Null
        && Option.map Float.is_nan (Json.to_float (get [ "metrics"; "t_obs.hist_empty"; "min" ] doc))
           = Some true);
      (match get [ "metrics"; "t_obs.hist"; "buckets" ] doc with
      | Json.List (_ :: _ as buckets) -> (
        match List.rev buckets with
        | Json.List [ bound; count ] :: _ ->
          Alcotest.(check bool) "inf bound written as null" true (bound = Json.Null);
          Alcotest.(check (float 1e-9)) "tail bucket count" 2.0 (Option.get (Json.to_num count))
        | _ -> Alcotest.fail "malformed bucket")
      | _ -> Alcotest.fail "buckets not a list");
      Alcotest.(check (float 1e-9)) "span count" 1.0
        (num [ "spans"; "t_obs.rt_span"; "count" ] doc);
      Alcotest.(check bool) "span total non-negative" true
        (num [ "spans"; "t_obs.rt_span"; "total_s" ] doc >= 0.0);
      Alcotest.(check bool) "span minor words recorded" true
        (num [ "spans"; "t_obs.rt_span"; "minor_words" ] doc >= 200.0))

let test_write_json_file () =
  with_obs (fun () ->
      rt_setup ();
      let path = Filename.temp_file "t_obs" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Obs.write_json path (Obs.snapshot ());
          let ic = open_in_bin path in
          let contents = really_input_string ic (in_channel_length ic) in
          close_in ic;
          match Json.parse contents with
          | Ok doc ->
            Alcotest.(check (float 1e-9)) "file parses to same counter" 3.0
              (num [ "metrics"; "t_obs.basic"; "value" ] doc)
          | Error msg -> Alcotest.failf "written file unparseable: %s" msg))

(* The words outside string literals of a JSON text, e.g. [true] or a bare
   [nan]; digits, signs and points are skipped, so an exponent's [e] shows
   up as a word of its own. *)
let bare_words text =
  let words = ref [] and word = Buffer.create 8 in
  let flush () =
    if Buffer.length word > 0 then words := Buffer.contents word :: !words;
    Buffer.clear word
  in
  let in_string = ref false and escaped = ref false in
  String.iter
    (fun ch ->
      if !in_string then begin
        if !escaped then escaped := false
        else if ch = '\\' then escaped := true
        else if ch = '"' then in_string := false
      end
      else
        match ch with
        | '"' ->
          flush ();
          in_string := true
        | 'a' .. 'z' | 'A' .. 'Z' -> Buffer.add_char word ch
        | _ -> flush ())
    text;
  flush ();
  List.sort_uniq compare !words

(* Standard JSON has no NaN or infinity: the exporter writes them as null,
   which Python's json.load and the metrics readers accept.  Prometheus
   text spells them NaN, +Inf and -Inf. *)
let test_non_finite_export () =
  with_obs (fun () ->
      Obs.set m_gauge_inf Float.infinity;
      Obs.set m_gauge_ninf Float.neg_infinity;
      let snap = Obs.snapshot () in
      let text = Obs.to_json snap in
      List.iter
        (fun w ->
          if not (List.mem w [ "true"; "false"; "null"; "e"; "E" ]) then
            Alcotest.failf "bare token %S in metrics JSON" w)
        (bare_words text);
      match Json.parse text with
      | Error msg -> Alcotest.failf "metrics JSON does not parse: %s" msg
      | Ok doc ->
        let read path =
          match Json.to_float (get path doc) with
          | Some v -> v
          | None -> Alcotest.failf "unreadable %s" (String.concat "/" path)
        in
        List.iter
          (fun path ->
            if not (Float.is_nan (read path)) then
              Alcotest.failf "%s not read back as nan" (String.concat "/" path))
          [
            [ "metrics"; "t_obs.gauge_inf"; "value" ];
            [ "metrics"; "t_obs.gauge_ninf"; "value" ];
            [ "metrics"; "t_obs.hist_empty"; "min" ];
            [ "metrics"; "t_obs.hist_empty"; "max" ];
          ];
        Alcotest.(check (float 0.0)) "empty hist sum stays a number" 0.0
          (read [ "metrics"; "t_obs.hist_empty"; "sum" ]);
        let prom = Obs.to_prometheus snap in
        List.iter
          (fun line ->
            if not (List.mem line (String.split_on_char '\n' prom)) then
              Alcotest.failf "prometheus text lacks %S" line)
          [ "mica_t_obs_gauge_inf +Inf"; "mica_t_obs_gauge_ninf -Inf" ];
        (* [Json]'s writer too; the serve wire asks for the bare tokens *)
        let v = Json.List [ Json.Num Float.nan; Json.Num Float.infinity; Json.Num (-0.5) ] in
        Alcotest.(check string) "json writer" "[null,null,-0.5]" (Json.to_string v);
        Alcotest.(check string) "json writer, bare tokens" "[nan,inf,-0.5]"
          (Json.to_string ~bare_non_finite:true v))

let test_prometheus_output () =
  with_obs (fun () ->
      rt_setup ();
      let text = Obs.to_prometheus (Obs.snapshot ()) in
      let has needle =
        let nl = String.length needle and tl = String.length text in
        let rec at i = i + nl <= tl && (String.sub text i nl = needle || at (i + 1)) in
        Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true (at 0)
      in
      has "# TYPE mica_t_obs_basic counter\n";
      has "mica_t_obs_basic 3\n";
      has "# TYPE mica_t_obs_gauge gauge\n";
      has "mica_t_obs_gauge -2.5\n";
      has "# TYPE mica_t_obs_hist histogram\n";
      has "_bucket{le=\"+Inf\"} 2\n";
      has "mica_t_obs_hist_sum 4.25\n";
      has "mica_t_obs_hist_count 2\n";
      has "mica_span_t_obs_rt_span_count 1\n")

(* ---------------- reset ---------------- *)

let test_reset () =
  with_obs (fun () ->
      rt_setup ();
      Obs.reset ();
      Alcotest.(check (float 1e-9)) "counter zeroed" 0.0 (counter_value "t_obs.basic");
      Alcotest.(check bool) "spans cleared" true (span_stat "t_obs.rt_span" = None);
      (match metric_value "t_obs.hist" with
      | Some (Obs.Histogram h) -> Alcotest.(check int) "histogram zeroed" 0 h.Obs.h_count
      | _ -> Alcotest.fail "registered name must survive reset");
      (* the registry still works after a reset *)
      Obs.incr m_basic;
      Alcotest.(check (float 1e-9)) "usable after reset" 1.0 (counter_value "t_obs.basic"))

(* ---------------- overhead guard ---------------- *)

(* Calibrated relative bound: a disabled probe is one atomic load, so a
   loop of [work + disabled probe] must stay within a generous constant
   factor of [work] alone.  Min-of-N timing on both sides removes scheduler
   noise; the bound would only trip if the disabled path regressed to
   something structural (a lock, an allocation, a hash lookup). *)
let test_disabled_overhead () =
  Obs.reset ();
  Obs.set_enabled false;
  let iters = 200_000 in
  let sink = ref 0.0 in
  let baseline () =
    for i = 1 to iters do
      sink := !sink +. float_of_int i
    done
  in
  let probed () =
    for i = 1 to iters do
      Obs.add m_overhead 1.0;
      sink := !sink +. float_of_int i
    done
  in
  let time f =
    let best = ref infinity in
    for _ = 1 to 7 do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  ignore (time baseline);
  (* warm up *)
  let tb = time baseline in
  let tp = time probed in
  ignore (Sys.opaque_identity !sink);
  Alcotest.(check (float 1e-9)) "probes recorded nothing" 0.0 (counter_value "t_obs.overhead");
  if tp > (tb *. 20.0) +. 1e-3 then
    Alcotest.failf "disabled probe overhead out of bounds: %.6fs probed vs %.6fs baseline" tp tb

let suite =
  ( "obs",
    [
      Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
      Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
      Alcotest.test_case "histogram semantics" `Quick test_histogram_semantics;
      Alcotest.test_case "empty histogram" `Quick test_empty_histogram;
      Alcotest.test_case "registration dedup/mismatch" `Quick test_registration_dedup_and_mismatch;
      Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
      Alcotest.test_case "span nesting self/total" `Quick test_span_nesting_self_total;
      Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
      Alcotest.test_case "span repeat counts" `Quick test_span_repeat_counts;
      Alcotest.test_case "cross-domain aggregation" `Quick test_cross_domain_aggregation;
      Alcotest.test_case "stats survive shutdown" `Quick test_stats_survive_shutdown;
      Alcotest.test_case "events reconstruct tree" `Quick test_events_reconstruct_tree;
      Alcotest.test_case "events off by default" `Quick test_events_off_by_default;
      Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "write_json file" `Quick test_write_json_file;
      Alcotest.test_case "prometheus output" `Quick test_prometheus_output;
      Alcotest.test_case "non-finite export" `Quick test_non_finite_export;
      Alcotest.test_case "reset" `Quick test_reset;
      Alcotest.test_case "disabled overhead bound" `Quick test_disabled_overhead;
    ] )
