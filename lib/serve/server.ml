module Pipeline = Mica_core.Pipeline
module Space = Mica_core.Space
module Dataset = Mica_core.Dataset
module Pool = Mica_util.Pool
module Workload = Mica_workloads.Workload
module Registry = Mica_workloads.Registry
module Obs = Mica_obs.Obs

(* Admission / outcome counters (inert when metrics are disabled). *)
let m_requests = Obs.counter "serve.requests"
let m_replies = Obs.counter "serve.replies"
let m_shed = Obs.counter "serve.shed"
let m_degraded = Obs.counter "serve.degraded"
let m_expired = Obs.counter "serve.deadline_expired"
let m_quarantined = Obs.counter "serve.quarantined"
let m_errors = Obs.counter "serve.errors"
let m_hits = Obs.counter "serve.cache_hits"
let m_drains = Obs.counter "serve.drains"
let m_queue_depth = Obs.gauge "serve.queue_depth"
let m_latency = Obs.histogram "serve.latency_s"

type config = {
  icount : int;
  ppm_order : int;
  cache_dir : string option;
  jobs : int;
  retries : int;
  queue_capacity : int;
  default_deadline_ms : float;
  degrade : bool;
  sketch_bytes : int;
  degrade_margin : float;
  breaker : Breaker.config;
  clock : unit -> float;
}

let default_config =
  {
    icount = Pipeline.default_config.Pipeline.icount;
    ppm_order = Pipeline.default_config.Pipeline.ppm_order;
    cache_dir = Pipeline.default_config.Pipeline.cache_dir;
    jobs = Pool.default_jobs ();
    retries = 2;
    queue_capacity = 64;
    default_deadline_ms = 0.0;
    degrade = true;
    sketch_bytes = Mica_sketch.Sketch.default_bytes;
    degrade_margin = 2.0;
    breaker = Breaker.default_config;
    clock = Unix.gettimeofday;
  }

type ticket = {
  req : Protocol.request;
  admitted_at : float;
  deadline : float option;  (* absolute, daemon-clock seconds *)
  reply : Protocol.response -> unit;
}

type t = {
  config : config;
  exact_pipe : Pipeline.config;
  sketch_pipe : Pipeline.config;
  queue : ticket Bqueue.t;
  pool : Pool.t;
  breaker : Breaker.t;
  (* Exact vectors by canonical workload id: warm-start rows plus
     everything computed while serving.  [dirty] is the subset computed
     since startup, merged back into the on-disk cache by [flush].
     Mutated only by the dispatcher; [table_mutex] covers the reads that
     inline health replies make from reader threads. *)
  results : (string, float array * float array) Hashtbl.t;
  dirty : (string, float array * float array) Hashtbl.t;
  table_mutex : Mutex.t;
  mutable space : Space.t option;  (* dispatcher-only *)
  ewma_ms : float Atomic.t;  (* EWMA exact-characterize cost; 0 = unknown *)
  is_draining : bool Atomic.t;
}

let create config =
  let exact_pipe =
    {
      Pipeline.default_config with
      Pipeline.icount = config.icount;
      ppm_order = config.ppm_order;
      cache_dir = config.cache_dir;
      jobs = config.jobs;
      retries = config.retries;
      progress = false;
      run = None;
      sketch = None;
    }
  in
  {
    config;
    exact_pipe;
    sketch_pipe = { exact_pipe with Pipeline.sketch = Some config.sketch_bytes; cache_dir = None };
    queue = Bqueue.create ~capacity:config.queue_capacity;
    pool = Pool.create ~jobs:(max 1 config.jobs);
    breaker = Breaker.create config.breaker;
    results = Hashtbl.create 256;
    dirty = Hashtbl.create 64;
    table_mutex = Mutex.create ();
    space = None;
    ewma_ms = Atomic.make 0.0;
    is_draining = Atomic.make false;
  }

let draining t = Atomic.get t.is_draining
let queue_depth t = Bqueue.length t.queue

let resident t =
  Mutex.lock t.table_mutex;
  let n = Hashtbl.length t.results in
  Mutex.unlock t.table_mutex;
  n

let store_result t id (m, h) ~dirty =
  Mutex.lock t.table_mutex;
  Hashtbl.replace t.results id (m, h);
  if dirty then Hashtbl.replace t.dirty id (m, h);
  Mutex.unlock t.table_mutex

(* ---------------- warm start / flush ---------------- *)

let warm_start t ~workloads =
  List.iter (fun (id, m, h) -> store_result t id (m, h) ~dirty:false)
    (Pipeline.warm_cache t.exact_pipe);
  let missing =
    List.filter (fun w -> not (Hashtbl.mem t.results (Workload.id w))) workloads
  in
  if missing <> [] then begin
    let mica, hpc, _report = Pipeline.datasets_report ~config:t.exact_pipe missing in
    Array.iteri
      (fun i id -> store_result t id (mica.Dataset.data.(i), hpc.Dataset.data.(i)) ~dirty:false)
      mica.Dataset.names
  end;
  (* The query space spans exactly the requested warm set (z-score
     parameters and pairwise distances are population-dependent, so it is
     pinned at warm time, not grown per request). *)
  let rows =
    List.filter_map
      (fun w ->
        let id = Workload.id w in
        Option.map (fun (m, _) -> (id, m)) (Hashtbl.find_opt t.results id))
      workloads
  in
  if List.length rows >= 2 then begin
    let names = Array.of_list (List.map fst rows) in
    let data = Array.of_list (List.map snd rows) in
    let ds = Dataset.create ~names ~features:Mica_analysis.Characteristics.short_names data in
    t.space <- Some (Space.of_dataset ds)
  end;
  resident t

let flush t =
  Mutex.lock t.table_mutex;
  let entries = Hashtbl.fold (fun id v acc -> (id, v) :: acc) t.dirty [] in
  Hashtbl.reset t.dirty;
  Mutex.unlock t.table_mutex;
  Pipeline.flush_cache t.exact_pipe (List.sort compare entries)

(* ---------------- replies ---------------- *)

let elapsed_ms t ticket = (t.config.clock () -. ticket.admitted_at) *. 1000.0

let respond t ticket status ?payload ?error ?backtrace ?retry_after_ms () =
  let elapsed = elapsed_ms t ticket in
  Obs.incr m_replies;
  Obs.observe m_latency (elapsed /. 1000.0);
  ticket.reply
    {
      Protocol.rid = ticket.req.Protocol.id;
      status;
      payload;
      error;
      backtrace;
      elapsed_ms = elapsed;
      retry_after_ms;
    }

let retry_hint t =
  (* Rough time for a queue slot to free up: one EWMA'd characterization
     (or 1ms when unknown) — a hint, not a promise. *)
  Some (Float.max 1.0 (Atomic.get t.ewma_ms))

(* ---------------- admission ---------------- *)

let health_payload t =
  Protocol.Health_info
    {
      queue_depth = queue_depth t;
      queue_capacity = Bqueue.capacity t.queue;
      draining = draining t;
      warm = resident t;
    }

let submit t (req : Protocol.request) ~reply =
  Obs.incr m_requests;
  let now = t.config.clock () in
  let inline status payload =
    Obs.incr m_replies;
    reply
      {
        Protocol.rid = req.Protocol.id;
        status;
        payload = Some payload;
        error = None;
        backtrace = None;
        elapsed_ms = (t.config.clock () -. now) *. 1000.0;
        retry_after_ms = None;
      }
  in
  match req.Protocol.op with
  (* Liveness must stay observable precisely when the daemon is sick, so
     health and metrics bypass the queue and are never shed. *)
  | Protocol.Health -> inline Protocol.Ok (health_payload t)
  | Protocol.Metrics -> inline Protocol.Ok (Protocol.Text (Obs.to_prometheus (Obs.snapshot ())))
  | _ ->
    let refuse status =
      Obs.incr m_shed;
      Obs.incr m_replies;
      reply
        {
          Protocol.rid = req.Protocol.id;
          status;
          payload = None;
          error = None;
          backtrace = None;
          elapsed_ms = 0.0;
          retry_after_ms = retry_hint t;
        }
    in
    if draining t then refuse Protocol.Draining
    else begin
      let deadline =
        match req.Protocol.deadline_ms with
        | Some ms when ms > 0.0 -> Some (now +. (ms /. 1000.0))
        | Some _ -> None
        | None ->
          if t.config.default_deadline_ms > 0.0 then
            Some (now +. (t.config.default_deadline_ms /. 1000.0))
          else None
      in
      let ticket = { req; admitted_at = now; deadline; reply } in
      if Bqueue.try_push t.queue ticket then Obs.set m_queue_depth (float_of_int (queue_depth t))
      else refuse Protocol.Overloaded
    end

(* ---------------- dispatch ---------------- *)

let expired t ticket =
  match ticket.deadline with None -> false | Some d -> t.config.clock () > d

(* Distance in the warm space's normalized coordinates between any two
   resident vectors (warm rows or later-served ones): both are placed
   with the space's frozen z-score parameters. *)
let normalized_distance space va vb =
  let za = Space.place space va and zb = Space.place space vb in
  let acc = ref 0.0 in
  Array.iteri
    (fun i a ->
      let d = a -. zb.(i) in
      acc := !acc +. (d *. d))
    za;
  sqrt !acc

let resident_vector t name =
  match Registry.find name with
  | None -> Error (Printf.sprintf "unknown workload %S" name)
  | Some w -> (
    let id = Workload.id w in
    match Hashtbl.find_opt t.results id with
    | Some (m, _) -> Ok (id, m)
    | None ->
      Error
        (Printf.sprintf "workload %s is not resident; characterize it first, then query" id))

let neighbors space ~id ~vector ~k =
  let ds = space.Space.dataset in
  let ranked =
    Array.to_list
      (Array.mapi (fun i d -> (ds.Dataset.names.(i), d)) (Space.distances_from space vector))
  in
  let ranked = List.filter (fun (name, _) -> name <> id) ranked in
  let ranked = List.stable_sort (fun (_, a) (_, b) -> compare a b) ranked in
  List.filteri (fun i _ -> i < k) ranked

(* Decide a characterize ticket's fate without running anything heavy.
   [`Answer] replies now; [`Heavy] joins the pool batch. *)
let dispatch_characterize t ticket ~workload ~estimate =
  match Registry.find workload with
  | None -> `Answer (Protocol.Error, None, Some (Printf.sprintf "unknown workload %S" workload))
  | Some w -> (
    let id = Workload.id w in
    match Hashtbl.find_opt t.results id with
    | Some (m, h) ->
      Obs.incr m_hits;
      `Answer
        ( Protocol.Ok,
          Some (Protocol.Vector { mica = m; hpc = h; estimated = false; cached = true }),
          None )
    | None -> (
      match Breaker.admit t.breaker id with
      | `Reject ->
        Obs.incr m_quarantined;
        `Quarantined
      | `Admit ->
        let degrade =
          t.config.degrade && estimate
          &&
          match ticket.deadline with
          | None -> false
          | Some d ->
            let ewma = Atomic.get t.ewma_ms in
            ewma > 0.0
            && (d -. t.config.clock ()) *. 1000.0 < t.config.degrade_margin *. ewma
        in
        `Heavy (w, id, degrade)))

let dispatch_light t ticket =
  match ticket.req.Protocol.op with
  | Protocol.Distance { a; b } -> (
    match t.space with
    | None -> (Protocol.Error, None, Some "no warm space: start the daemon with a warm set")
    | Some space -> (
      match (resident_vector t a, resident_vector t b) with
      | Error e, _ | _, Error e -> (Protocol.Error, None, Some e)
      | Ok (_, va), Ok (_, vb) ->
        (Protocol.Ok, Some (Protocol.Number (normalized_distance space va vb)), None)))
  | Protocol.Classify { workload; threshold } -> (
    match t.space with
    | None -> (Protocol.Error, None, Some "no warm space: start the daemon with a warm set")
    | Some space -> (
      match resident_vector t workload with
      | Error e -> (Protocol.Error, None, Some e)
      | Ok (id, v) -> (
        match neighbors space ~id ~vector:v ~k:1 with
        | [] -> (Protocol.Error, None, Some "warm space has no other workload to classify against")
        | (nearest, distance) :: _ ->
          ( Protocol.Ok,
            Some
              (Protocol.Classification
                 { nearest; distance; threshold; within = distance <= threshold }),
            None ))))
  | Protocol.Knn { workload; k } -> (
    match t.space with
    | None -> (Protocol.Error, None, Some "no warm space: start the daemon with a warm set")
    | Some space -> (
      match resident_vector t workload with
      | Error e -> (Protocol.Error, None, Some e)
      | Ok (id, v) ->
        if k < 1 then (Protocol.Error, None, Some "k must be >= 1")
        else (Protocol.Ok, Some (Protocol.Neighbors (neighbors space ~id ~vector:v ~k)), None)))
  | Protocol.Health -> (Protocol.Ok, Some (health_payload t), None)
  | Protocol.Metrics ->
    (Protocol.Ok, Some (Protocol.Text (Obs.to_prometheus (Obs.snapshot ()))), None)
  | Protocol.Characterize _ -> assert false (* routed through dispatch_characterize *)

type work = Done of float array * float array * float  (** vectors + work ms *) | Expired

type heavy = { h_ticket : ticket; h_workload : Workload.t; h_id : string; h_degrade : bool }

let process_heavy t batch =
  let batch = Array.of_list batch in
  let n = Array.length batch in
  if n > 0 then begin
    let outcomes =
      Pool.run_results ~retries:(max 0 t.config.retries) t.pool n (fun i ->
          let h = batch.(i) in
          let cancel =
            Option.map (fun d () -> t.config.clock () > d) h.h_ticket.deadline
          in
          let pipe = if h.h_degrade then t.sketch_pipe else t.exact_pipe in
          let pipe = { pipe with Pipeline.cancel } in
          let t0 = t.config.clock () in
          try
            let m, hv = Pipeline.characterize pipe h.h_workload in
            Done (m, hv, (t.config.clock () -. t0) *. 1000.0)
          with Pipeline.Cancelled -> Expired)
    in
    (* Record and reply sequentially, in batch order, so breaker and EWMA
       trajectories are jobs-invariant. *)
    Array.iteri
      (fun i (o : _ Pool.outcome) ->
        let h = batch.(i) in
        match o.Pool.result with
        | Ok (Done (m, hv, work_ms)) ->
          Breaker.record t.breaker h.h_id ~ok:true;
          if h.h_degrade then begin
            Obs.incr m_degraded;
            respond t h.h_ticket Protocol.Ok
              ~payload:(Protocol.Vector { mica = m; hpc = hv; estimated = true; cached = false })
              ()
          end
          else begin
            store_result t h.h_id (m, hv) ~dirty:true;
            let old = Atomic.get t.ewma_ms in
            Atomic.set t.ewma_ms
              (if old <= 0.0 then work_ms else (0.8 *. old) +. (0.2 *. work_ms));
            respond t h.h_ticket Protocol.Ok
              ~payload:(Protocol.Vector { mica = m; hpc = hv; estimated = false; cached = false })
              ()
          end
        | Ok Expired ->
          (* The deadline passed mid-trace: the analyzer abandoned the
             chunk loop.  Not a workload failure — the breaker only
             counts the workload's own faults. *)
          Obs.incr m_expired;
          respond t h.h_ticket Protocol.Deadline ()
        | Error { Pool.error; backtrace } ->
          Breaker.record t.breaker h.h_id ~ok:false;
          Obs.incr m_errors;
          respond t h.h_ticket Protocol.Error
            ~error:
              (Printf.sprintf "%s failed after %d attempt(s): %s" h.h_id o.Pool.attempts
                 (Printexc.to_string error))
            ~backtrace ())
      outcomes
  end

let handle_ticket t ticket acc =
  if expired t ticket then begin
    (* Swept at dispatch: the deadline passed while queued. *)
    Obs.incr m_expired;
    respond t ticket Protocol.Deadline ();
    acc
  end
  else begin
    match ticket.req.Protocol.op with
    | Protocol.Characterize { workload; estimate } -> (
      match dispatch_characterize t ticket ~workload ~estimate with
      | `Answer (status, payload, error) ->
        if status = Protocol.Error then Obs.incr m_errors;
        respond t ticket status ?payload ?error ();
        acc
      | `Quarantined ->
        respond t ticket Protocol.Quarantined
          ~error:"circuit breaker open: this workload keeps failing"
          ?retry_after_ms:(retry_hint t) ();
        acc
      | `Heavy (w, id, degrade) ->
        { h_ticket = ticket; h_workload = w; h_id = id; h_degrade = degrade } :: acc)
    | _ ->
      let status, payload, error = dispatch_light t ticket in
      if status = Protocol.Error then Obs.incr m_errors;
      respond t ticket status ?payload ?error ();
      acc
  end

let step t first =
  let batch_max = max 1 t.config.jobs in
  let rec build acc consumed =
    if List.length acc >= batch_max then (acc, consumed)
    else begin
      match Bqueue.try_pop t.queue with
      | None -> (acc, consumed)
      | Some ticket -> build (handle_ticket t ticket acc) (consumed + 1)
    end
  in
  let acc = handle_ticket t first [] in
  let heavy, consumed = build acc 1 in
  process_heavy t (List.rev heavy);
  Obs.set m_queue_depth (float_of_int (queue_depth t));
  consumed

let pump t = match Bqueue.try_pop t.queue with None -> 0 | Some first -> step t first

let drain_pump t =
  let rec go () =
    match Bqueue.pop t.queue with
    | None -> ()
    | Some first ->
      let (_ : int) = step t first in
      go ()
  in
  go ()

let begin_drain t =
  if not (Atomic.exchange t.is_draining true) then begin
    Obs.incr m_drains;
    Bqueue.close t.queue
  end

(* ---------------- socket front end ---------------- *)

type address = Unix_path of string | Tcp of { host : string; port : int }

let write_all fd s =
  let len = String.length s in
  let rec go off = if off < len then go (off + Unix.write_substring fd s off (len - off)) in
  go 0

(* The longest request line a reader accepts, newline excluded.  A longer
   line is answered with one [error] reply (rid -1) and its connection is
   shut down, so no client can make a reader hold more than this. *)
let max_line_bytes = 1 lsl 20

type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable off : int;  (* next unread byte of [chunk] *)
  mutable fill : int;  (* bytes of [chunk] holding data *)
  partial : Buffer.t;  (* the current line's bytes so far *)
}

let rec read_chunk r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_chunk r

let rec newline_at chunk i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get chunk i = '\n' then i
  else newline_at chunk (i + 1) stop

let take_partial r =
  let line = Buffer.contents r.partial in
  Buffer.reset r.partial;
  line

(* The next line without its newline; [`Too_long] as soon as it passes
   [max_line_bytes], with the rest unread.  As with [input_line], a last
   line that ends without a newline still counts. *)
let rec read_line r =
  if r.off >= r.fill then begin
    let n = read_chunk r in
    if n = 0 then if Buffer.length r.partial = 0 then `Eof else `Line (take_partial r)
    else begin
      r.off <- 0;
      r.fill <- n;
      read_line r
    end
  end
  else begin
    let nl = newline_at r.chunk r.off r.fill in
    let stop = if nl < 0 then r.fill else nl in
    if Buffer.length r.partial + (stop - r.off) > max_line_bytes then `Too_long
    else begin
      Buffer.add_subbytes r.partial r.chunk r.off (stop - r.off);
      if nl < 0 then begin
        r.off <- r.fill;
        read_line r
      end
      else begin
        r.off <- nl + 1;
        `Line (take_partial r)
      end
    end
  end

let serve_conn t fd =
  let r = { fd; chunk = Bytes.create 65536; off = 0; fill = 0; partial = Buffer.create 256 } in
  let wmutex = Mutex.create () in
  let send resp =
    let line = Protocol.encode_response resp ^ "\n" in
    Mutex.lock wmutex;
    (try write_all fd line with Unix.Unix_error _ | Sys_error _ -> ());
    Mutex.unlock wmutex
  in
  let rec loop () =
    match read_line r with
    | `Eof -> ()
    | `Too_long ->
      Obs.incr m_errors;
      send
        (Protocol.error_response ~rid:(-1)
           (Printf.sprintf "request line exceeds %d bytes" max_line_bytes));
      (* Shut down, not closed: the descriptor stays reserved until drain
         (see [listen_and_serve]). *)
      Unix.shutdown fd Unix.SHUTDOWN_ALL
    | `Line line ->
      if String.trim line <> "" then begin
        match Protocol.decode_request line with
        | Ok req -> submit t req ~reply:send
        | Error msg ->
          Obs.incr m_errors;
          send (Protocol.error_response ~rid:(-1) ("parse error: " ^ msg))
      end;
      loop ()
  in
  try loop () with Sys_error _ | Unix.Unix_error _ -> ()

let listen_and_serve ?(on_ready = fun () -> ()) t address =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let listen_fd, cleanup =
    match address with
    | Unix_path path ->
      (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      (fd, fun () -> try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Tcp { host; port } ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      (fd, fun () -> ())
  in
  Unix.listen listen_fd 64;
  let stop = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  let old_term = Sys.signal Sys.sigterm handler in
  let old_int = Sys.signal Sys.sigint handler in
  let dispatcher = Thread.create drain_pump t in
  let conns_mutex = Mutex.create () in
  let conns = ref [] in
  on_ready ();
  while not (Atomic.get stop) do
    match Unix.select [ listen_fd ] [] [] 0.25 with
    | [ _ ], _, _ -> (
      match Unix.accept listen_fd with
      | fd, _ ->
        (* The connection fd stays open until drain: reply closures for
           in-flight tickets hold it, and closing early could redirect a
           late reply to a recycled descriptor. *)
        let th = Thread.create (fun () -> serve_conn t fd) () in
        Mutex.lock conns_mutex;
        conns := (fd, th) :: !conns;
        Mutex.unlock conns_mutex
      | exception Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Logs.app (fun f -> f "draining: finishing %d queued request(s)" (queue_depth t));
  begin_drain t;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (* In-flight work finishes and every queued ticket is answered before
     any connection closes. *)
  Thread.join dispatcher;
  flush t;
  Mutex.lock conns_mutex;
  let cs = !conns in
  conns := [];
  Mutex.unlock conns_mutex;
  List.iter
    (fun (fd, _) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    cs;
  List.iter
    (fun (fd, th) ->
      Thread.join th;
      try Unix.close fd with Unix.Unix_error _ -> ())
    cs;
  Sys.set_signal Sys.sigterm old_term;
  Sys.set_signal Sys.sigint old_int;
  cleanup ();
  Logs.app (fun f -> f "drained cleanly")
