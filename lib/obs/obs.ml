(* Global enable flags.  Every probe site performs exactly one [Atomic.get]
   when metrics are disabled; nothing else is touched. *)

let enabled_flag = Atomic.make false
let record_events_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let set_record_events b = Atomic.set record_events_flag b

type kind = Kcounter | Kgauge | Khistogram

let kind_name = function
  | Kcounter -> "counter"
  | Kgauge -> "gauge"
  | Khistogram -> "histogram"

type metric = { m_kind : kind; m_slot : int }

(* Histogram bucket upper bounds (seconds-ish scale); the implicit final
   bucket is +inf.  Cumulative counts, Prometheus-style. *)
let bucket_bounds = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0; 100.0; 1000.0 |]
let n_buckets = Array.length bucket_bounds + 1

(* Per-histogram-slot cell layout inside the flat slab:
   [count; sum; min; max; bucket_0 .. bucket_n-1]. *)
let hist_cell_size = 4 + n_buckets

type span_cell = {
  mutable sc_count : int;
  mutable sc_total : float;
  mutable sc_self : float;
  mutable sc_minor : float;
  mutable sc_major : float;
}

type event = { ev_name : string; ev_enter : bool; ev_time : float }

(* One store per domain incarnation.  All mutation is single-writer (the
   owning domain); [snapshot]/[reset] read and clear under the registry
   mutex, which is racy versus a live owner but never corrupting — each
   cell is an independent word. *)
type store = {
  st_id : int;
  mutable st_counters : float array;
  mutable st_gauges : float array;
  mutable st_hists : float array; (* hist_cell_size floats per slot *)
  st_spans : (string, span_cell) Hashtbl.t;
  (* Span stack as parallel arrays: no per-span record allocation. *)
  mutable sk_cell : span_cell array;
  mutable sk_name : string array;
  mutable sk_t0 : float array;
  mutable sk_minor0 : float array;
  mutable sk_major0 : float array;
  mutable sk_child : float array;
  mutable sk_depth : int;
  mutable st_events : event list; (* reversed *)
}

let registry_mutex = Mutex.create ()

(* name -> (kind, slot); slots are dense per kind. *)
let registry : (string, kind * int) Hashtbl.t = Hashtbl.create 64
let counter_slots = ref 0
let gauge_slots = ref 0
let hist_slots = ref 0
let stores : store list ref = ref []
let next_store_id = ref 0

let dummy_cell = { sc_count = 0; sc_total = 0.; sc_self = 0.; sc_minor = 0.; sc_major = 0. }

let new_store () =
  Mutex.lock registry_mutex;
  let id = !next_store_id in
  incr next_store_id;
  let st =
    {
      st_id = id;
      st_counters = Array.make (max 8 !counter_slots) 0.0;
      st_gauges = Array.make (max 8 !gauge_slots) 0.0;
      st_hists = Array.make (max 8 (!hist_slots * hist_cell_size)) 0.0;
      st_spans = Hashtbl.create 32;
      sk_cell = Array.make 16 dummy_cell;
      sk_name = Array.make 16 "";
      sk_t0 = Array.make 16 0.0;
      sk_minor0 = Array.make 16 0.0;
      sk_major0 = Array.make 16 0.0;
      sk_child = Array.make 16 0.0;
      sk_depth = 0;
      st_events = [];
    }
  in
  stores := st :: !stores;
  Mutex.unlock registry_mutex;
  st

let store_key = Domain.DLS.new_key new_store
let store () = Domain.DLS.get store_key

let register name kind =
  Mutex.lock registry_mutex;
  let result =
    match Hashtbl.find_opt registry name with
    | Some (k, slot) ->
        if k <> kind then
          `Err
            (Printf.sprintf "Obs: metric %S already registered as %s, requested %s" name
               (kind_name k) (kind_name kind))
        else `Ok { m_kind = kind; m_slot = slot }
    | None ->
        let slots =
          match kind with
          | Kcounter -> counter_slots
          | Kgauge -> gauge_slots
          | Khistogram -> hist_slots
        in
        let slot = !slots in
        incr slots;
        Hashtbl.add registry name (kind, slot);
        `Ok { m_kind = kind; m_slot = slot }
  in
  Mutex.unlock registry_mutex;
  match result with `Ok m -> m | `Err msg -> invalid_arg msg

let counter name = register name Kcounter
let gauge name = register name Kgauge
let histogram name = register name Khistogram

(* Slabs grow lazily: a metric registered after this domain's store was
   created lands past the end of the slab on first use. *)
let grown arr needed =
  let cap = max needed (2 * Array.length arr) in
  let fresh = Array.make cap 0.0 in
  Array.blit arr 0 fresh 0 (Array.length arr);
  fresh

let counter_slab st slot =
  if slot >= Array.length st.st_counters then st.st_counters <- grown st.st_counters (slot + 1);
  st.st_counters

let gauge_slab st slot =
  if slot >= Array.length st.st_gauges then st.st_gauges <- grown st.st_gauges (slot + 1);
  st.st_gauges

let hist_slab st slot =
  let needed = (slot + 1) * hist_cell_size in
  if needed > Array.length st.st_hists then st.st_hists <- grown st.st_hists needed;
  st.st_hists

let add m v =
  if Atomic.get enabled_flag && m.m_kind = Kcounter then begin
    let st = store () in
    let slab = counter_slab st m.m_slot in
    slab.(m.m_slot) <- slab.(m.m_slot) +. v
  end

let incr m = add m 1.0

let set m v =
  if Atomic.get enabled_flag && m.m_kind = Kgauge then begin
    let st = store () in
    let slab = gauge_slab st m.m_slot in
    slab.(m.m_slot) <- v
  end

let observe m v =
  if Atomic.get enabled_flag && m.m_kind = Khistogram then begin
    let st = store () in
    let slab = hist_slab st m.m_slot in
    let base = m.m_slot * hist_cell_size in
    let count = slab.(base) in
    slab.(base) <- count +. 1.0;
    slab.(base + 1) <- slab.(base + 1) +. v;
    if count = 0.0 then begin
      slab.(base + 2) <- v;
      slab.(base + 3) <- v
    end
    else begin
      if v < slab.(base + 2) then slab.(base + 2) <- v;
      if v > slab.(base + 3) then slab.(base + 3) <- v
    end;
    let rec bucket i =
      if i >= Array.length bucket_bounds then i
      else if v <= bucket_bounds.(i) then i
      else bucket (i + 1)
    in
    let b = bucket 0 in
    slab.(base + 4 + b) <- slab.(base + 4 + b) +. 1.0
  end

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)

let span_cell st name =
  match Hashtbl.find_opt st.st_spans name with
  | Some c -> c
  | None ->
      let c = { sc_count = 0; sc_total = 0.; sc_self = 0.; sc_minor = 0.; sc_major = 0. } in
      Hashtbl.add st.st_spans name c;
      c

let grow_stack st =
  let cap = 2 * Array.length st.sk_name in
  let g_cell = Array.make cap dummy_cell
  and g_name = Array.make cap ""
  and g_t0 = Array.make cap 0.0
  and g_minor0 = Array.make cap 0.0
  and g_major0 = Array.make cap 0.0
  and g_child = Array.make cap 0.0 in
  let n = Array.length st.sk_name in
  Array.blit st.sk_cell 0 g_cell 0 n;
  Array.blit st.sk_name 0 g_name 0 n;
  Array.blit st.sk_t0 0 g_t0 0 n;
  Array.blit st.sk_minor0 0 g_minor0 0 n;
  Array.blit st.sk_major0 0 g_major0 0 n;
  Array.blit st.sk_child 0 g_child 0 n;
  st.sk_cell <- g_cell;
  st.sk_name <- g_name;
  st.sk_t0 <- g_t0;
  st.sk_minor0 <- g_minor0;
  st.sk_major0 <- g_major0;
  st.sk_child <- g_child

let span_enter st name =
  let d = st.sk_depth in
  if d >= Array.length st.sk_name then grow_stack st;
  st.sk_cell.(d) <- span_cell st name;
  st.sk_name.(d) <- name;
  st.sk_t0.(d) <- Unix.gettimeofday ();
  st.sk_minor0.(d) <- Gc.minor_words ();
  st.sk_major0.(d) <- (Gc.quick_stat ()).Gc.major_words;
  st.sk_child.(d) <- 0.0;
  st.sk_depth <- d + 1;
  if Atomic.get record_events_flag then
    st.st_events <- { ev_name = name; ev_enter = true; ev_time = st.sk_t0.(d) } :: st.st_events

let span_exit st =
  let d = st.sk_depth - 1 in
  st.sk_depth <- d;
  let now = Unix.gettimeofday () in
  let elapsed = now -. st.sk_t0.(d) in
  let c = st.sk_cell.(d) in
  c.sc_count <- c.sc_count + 1;
  c.sc_total <- c.sc_total +. elapsed;
  c.sc_self <- c.sc_self +. (elapsed -. st.sk_child.(d));
  c.sc_minor <- c.sc_minor +. (Gc.minor_words () -. st.sk_minor0.(d));
  c.sc_major <- c.sc_major +. ((Gc.quick_stat ()).Gc.major_words -. st.sk_major0.(d));
  if d > 0 then st.sk_child.(d - 1) <- st.sk_child.(d - 1) +. elapsed;
  if Atomic.get record_events_flag then
    st.st_events <- { ev_name = st.sk_name.(d); ev_enter = false; ev_time = now } :: st.st_events

let span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let st = store () in
    span_enter st name;
    Fun.protect ~finally:(fun () -> span_exit st) f
  end

let events () =
  Mutex.lock registry_mutex;
  let out =
    List.rev_map (fun st -> (st.st_id, List.rev st.st_events)) !stores
    |> List.filter (fun (_, evs) -> evs <> [])
  in
  Mutex.unlock registry_mutex;
  out

(* ------------------------------------------------------------------ *)
(* Snapshot                                                           *)

type histogram_value = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (float * int) array;
}

type metric_value = Counter of float | Gauge of float | Histogram of histogram_value

type span_stat = {
  sp_count : int;
  sp_total_s : float;
  sp_self_s : float;
  sp_minor_words : float;
  sp_major_words : float;
}

type snapshot = {
  metrics : (string * metric_value) list;
  spans : (string * span_stat) list;
}

let snapshot () =
  Mutex.lock registry_mutex;
  let stores = !stores in
  let metric_names = Hashtbl.fold (fun name def acc -> (name, def) :: acc) registry [] in
  let sum_slot get slot =
    List.fold_left
      (fun acc st ->
        let arr = get st in
        if slot < Array.length arr then acc +. arr.(slot) else acc)
      0.0 stores
  in
  let metrics =
    List.map
      (fun (name, (kind, slot)) ->
        let v =
          match kind with
          | Kcounter -> Counter (sum_slot (fun st -> st.st_counters) slot)
          | Kgauge -> Gauge (sum_slot (fun st -> st.st_gauges) slot)
          | Khistogram ->
              let base = slot * hist_cell_size in
              let cell = Array.make hist_cell_size 0.0 in
              cell.(2) <- Float.nan;
              cell.(3) <- Float.nan;
              List.iter
                (fun st ->
                  if base + hist_cell_size <= Array.length st.st_hists then begin
                    let h = st.st_hists in
                    if h.(base) > 0.0 then begin
                      cell.(0) <- cell.(0) +. h.(base);
                      cell.(1) <- cell.(1) +. h.(base + 1);
                      if Float.is_nan cell.(2) || h.(base + 2) < cell.(2) then
                        cell.(2) <- h.(base + 2);
                      if Float.is_nan cell.(3) || h.(base + 3) > cell.(3) then
                        cell.(3) <- h.(base + 3);
                      for b = 0 to n_buckets - 1 do
                        cell.(4 + b) <- cell.(4 + b) +. h.(base + 4 + b)
                      done
                    end
                  end)
                stores;
              let cumulative = ref 0 in
              let buckets =
                Array.init n_buckets (fun b ->
                    cumulative := !cumulative + int_of_float cell.(4 + b);
                    let bound =
                      if b < Array.length bucket_bounds then bucket_bounds.(b)
                      else Float.infinity
                    in
                    (bound, !cumulative))
              in
              Histogram
                {
                  h_count = int_of_float cell.(0);
                  h_sum = cell.(1);
                  h_min = cell.(2);
                  h_max = cell.(3);
                  h_buckets = buckets;
                }
        in
        (name, v))
      metric_names
  in
  let span_tbl : (string, span_stat) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun st ->
      Hashtbl.iter
        (fun name c ->
          let prev =
            match Hashtbl.find_opt span_tbl name with
            | Some s -> s
            | None ->
                { sp_count = 0; sp_total_s = 0.; sp_self_s = 0.; sp_minor_words = 0.; sp_major_words = 0. }
          in
          Hashtbl.replace span_tbl name
            {
              sp_count = prev.sp_count + c.sc_count;
              sp_total_s = prev.sp_total_s +. c.sc_total;
              sp_self_s = prev.sp_self_s +. c.sc_self;
              sp_minor_words = prev.sp_minor_words +. c.sc_minor;
              sp_major_words = prev.sp_major_words +. c.sc_major;
            })
        st.st_spans)
    stores;
  Mutex.unlock registry_mutex;
  let by_name (a, _) (b, _) = String.compare a b in
  {
    metrics = List.sort by_name metrics;
    spans = List.sort by_name (Hashtbl.fold (fun k v acc -> (k, v) :: acc) span_tbl []);
  }

let reset () =
  Mutex.lock registry_mutex;
  List.iter
    (fun st ->
      Array.fill st.st_counters 0 (Array.length st.st_counters) 0.0;
      Array.fill st.st_gauges 0 (Array.length st.st_gauges) 0.0;
      Array.fill st.st_hists 0 (Array.length st.st_hists) 0.0;
      Hashtbl.reset st.st_spans;
      st.st_events <- [])
    !stores;
  Mutex.unlock registry_mutex

(* ------------------------------------------------------------------ *)
(* Exporters                                                          *)

(* JSON has no non-finite number: NaN (an empty histogram's min and max)
   and the infinities are written as [null].  The Prometheus text format
   spells them [NaN], [+Inf] and [-Inf]. *)
let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let prom_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else if Float.is_nan f then "NaN"
  else if f > 0.0 then "+Inf"
  else "-Inf"

let escape_json s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json snap =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"metrics\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\n    \"%s\": " (escape_json name));
      (match v with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "{\"type\": \"counter\", \"value\": %s}" (json_float c))
      | Gauge g -> Buffer.add_string buf (Printf.sprintf "{\"type\": \"gauge\", \"value\": %s}" (json_float g))
      | Histogram h ->
          Buffer.add_string buf
            (Printf.sprintf "{\"type\": \"histogram\", \"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, \"buckets\": ["
               h.h_count (json_float h.h_sum) (json_float h.h_min) (json_float h.h_max));
          Array.iteri
            (fun i (bound, count) ->
              if i > 0 then Buffer.add_string buf ", ";
              Buffer.add_string buf (Printf.sprintf "[%s, %d]" (json_float bound) count))
            h.h_buckets;
          Buffer.add_string buf "]}"))
    snap.metrics;
  Buffer.add_string buf "\n  },\n  \"spans\": {";
  List.iteri
    (fun i (name, s) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    \"%s\": {\"count\": %d, \"total_s\": %s, \"self_s\": %s, \"minor_words\": %s, \"major_words\": %s}"
           (escape_json name) s.sp_count (json_float s.sp_total_s) (json_float s.sp_self_s)
           (json_float s.sp_minor_words) (json_float s.sp_major_words)))
    snap.spans;
  Buffer.add_string buf "\n  }\n}\n";
  Buffer.contents buf

let prom_name name =
  let b = Buffer.create (String.length name + 5) in
  Buffer.add_string b "mica_";
  String.iter
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b ch
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let to_prometheus snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      match v with
      | Counter c ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %s\n" n n (prom_float c))
      | Gauge g ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n (prom_float g))
      | Histogram h ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
          Array.iter
            (fun (bound, count) ->
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (prom_float bound) count))
            h.h_buckets;
          Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" n (prom_float h.h_sum));
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n h.h_count))
    snap.metrics;
  List.iter
    (fun (name, s) ->
      let n = prom_name ("span_" ^ name) in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s_seconds counter\n" n);
      Buffer.add_string buf (Printf.sprintf "%s_seconds %s\n" n (prom_float s.sp_total_s));
      Buffer.add_string buf (Printf.sprintf "%s_self_seconds %s\n" n (prom_float s.sp_self_s));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n s.sp_count);
      Buffer.add_string buf (Printf.sprintf "%s_minor_words %s\n" n (prom_float s.sp_minor_words)))
    snap.spans;
  Buffer.contents buf

let write_json path snap =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json snap));
  Sys.rename tmp path
