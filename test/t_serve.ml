(* Serve daemon tests: wire-protocol round-trips (float-bit exact),
   bounded-queue and circuit-breaker unit behaviour, and a deterministic
   soak of the dispatcher core under virtual clocks — queue-full
   shedding, deadline expiry both while queued and mid-chunk, sketch
   degradation near the deadline, breaker trip/probe/reset under an
   injected fault plan, drain semantics — plus the served-vs-direct
   differential at jobs=1 and 4 and a socket + loadgen end-to-end smoke
   with a real SIGTERM drain. *)

module Protocol = Mica_serve.Protocol
module Bqueue = Mica_serve.Bqueue
module Breaker = Mica_serve.Breaker
module Server = Mica_serve.Server
module Loadgen = Mica_serve.Loadgen
module Fault = Mica_util.Fault
module Workload = Mica_workloads.Workload

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let sha = "MiBench/sha/large"
let mcf = "SPEC2000/mcf/ref"

(* A clock the test advances by hand: every read moves time forward by
   [step] (0 = frozen), so deadline trajectories are exact. *)
let manual_clock () =
  let now = ref 0.0 and step = ref 0.0 in
  let clock () =
    now := !now +. !step;
    !now
  in
  (clock, now, step)

let test_config ?(icount = 3_000) ?(jobs = 1) ?(queue_capacity = 4) ?(retries = 0) ?clock
    ?(breaker = Breaker.default_config) () =
  {
    Server.default_config with
    Server.icount;
    jobs;
    queue_capacity;
    retries;
    cache_dir = None;
    breaker;
    clock = (match clock with Some c -> c | None -> Server.default_config.Server.clock);
  }

let collect () =
  let replies = ref [] in
  let reply r = replies := r :: !replies in
  (replies, reply)

let characterize ?(estimate = false) ?deadline_ms ~id workload =
  { Protocol.id; op = Protocol.Characterize { workload; estimate }; deadline_ms }

let pump_dry t = while Server.pump t > 0 do () done

let vector_of (r : Protocol.response) =
  match r.Protocol.payload with
  | Some (Protocol.Vector { mica; hpc; estimated; cached }) -> (mica, hpc, estimated, cached)
  | _ -> Alcotest.failf "reply %d carries no vector" r.Protocol.rid

(* ---------------- protocol ---------------- *)

let roundtrip_req req =
  match Protocol.decode_request (Protocol.encode_request req) with
  | Ok r -> r
  | Error e -> Alcotest.failf "request round-trip: %s" e

let roundtrip_resp resp =
  match Protocol.decode_response (Protocol.encode_response resp) with
  | Ok r -> r
  | Error e -> Alcotest.failf "response round-trip: %s" e

let test_protocol_request_roundtrip () =
  List.iter
    (fun req -> Alcotest.(check bool) "request round-trips" true (roundtrip_req req = req))
    [
      characterize ~id:1 sha;
      characterize ~estimate:true ~deadline_ms:250.0 ~id:2 sha;
      { Protocol.id = 3; op = Protocol.Distance { a = sha; b = mcf }; deadline_ms = None };
      { Protocol.id = 4; op = Protocol.Classify { workload = sha; threshold = 1.5 }; deadline_ms = Some 10.0 };
      { Protocol.id = 5; op = Protocol.Knn { workload = mcf; k = 3 }; deadline_ms = None };
      { Protocol.id = 6; op = Protocol.Health; deadline_ms = None };
      { Protocol.id = 7; op = Protocol.Metrics; deadline_ms = None };
    ]

let test_protocol_response_float_bits () =
  (* The wire format is part of the bit-identity law: every float —
     including non-finite, signed zero and denormal — must come back
     with the same bit pattern. *)
  let tricky = [| 0.1; -0.0; Float.nan; infinity; neg_infinity; 1e-308; Float.max_float; 3.7 |] in
  let resp =
    {
      Protocol.rid = 9;
      status = Protocol.Ok;
      payload = Some (Protocol.Vector { mica = tricky; hpc = [| 0.5; 2.25 |]; estimated = true; cached = false });
      error = None;
      backtrace = None;
      elapsed_ms = 12.5;
      retry_after_ms = None;
    }
  in
  let back = roundtrip_resp resp in
  let m, h, estimated, cached = vector_of back in
  Alcotest.(check bool) "estimated flag" true estimated;
  Alcotest.(check bool) "cached flag" false cached;
  Alcotest.(check int) "mica arity" (Array.length tricky) (Array.length m);
  Array.iteri
    (fun i x ->
      Alcotest.(check int64)
        (Printf.sprintf "mica.(%d) bits" i)
        (Int64.bits_of_float tricky.(i))
        (Int64.bits_of_float x))
    m;
  Alcotest.(check int) "hpc arity" 2 (Array.length h)

let test_protocol_response_shapes () =
  let statuses =
    [
      Protocol.Ok; Protocol.Error; Protocol.Overloaded; Protocol.Deadline; Protocol.Quarantined;
      Protocol.Draining;
    ]
  in
  List.iter
    (fun status ->
      let resp =
        {
          Protocol.rid = 1;
          status;
          payload = None;
          error = Some "why";
          backtrace = Some "Raised at ...";
          elapsed_ms = 1.0;
          retry_after_ms = Some 40.0;
        }
      in
      Alcotest.(check bool)
        (Protocol.status_name status ^ " round-trips")
        true
        (roundtrip_resp resp = resp))
    statuses;
  List.iter
    (fun payload ->
      let resp =
        {
          Protocol.rid = 2;
          status = Protocol.Ok;
          payload = Some payload;
          error = None;
          backtrace = None;
          elapsed_ms = 0.0;
          retry_after_ms = None;
        }
      in
      Alcotest.(check bool) "payload round-trips" true (roundtrip_resp resp = resp))
    [
      Protocol.Number 2.5;
      Protocol.Classification { nearest = mcf; distance = 1.25; threshold = 2.0; within = true };
      Protocol.Neighbors [ (sha, 0.5); (mcf, 1.5) ];
      Protocol.Health_info { queue_depth = 3; queue_capacity = 64; draining = false; warm = 7 };
      Protocol.Text "# metrics\n";
    ]

let test_protocol_decode_errors () =
  List.iter
    (fun line ->
      match Protocol.decode_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [ "garbage"; "{}"; {|{"id": 1}|}; {|{"id": 1, "op": "nonsense"}|}; {|{"op": "health"}|} ]

(* Integer fields take exact integers within +/-2^53 and nothing else: a
   fraction, a huge magnitude or an id past 2^53 is an [Error], never a
   truncated, wrapped or saturated int. *)
let test_protocol_integer_fields () =
  let request id = Printf.sprintf {|{"id": %s, "op": "health"}|} id in
  let response id = Printf.sprintf {|{"id": %s, "status": "ok", "elapsed_ms": 0}|} id in
  let health n =
    Printf.sprintf
      {|{"id": 1, "status": "ok", "elapsed_ms": 0, "payload": {"kind": "health", "queue_depth": %s, "queue_capacity": 4, "draining": false, "warm": 0}}|}
      n
  in
  let knn k = Printf.sprintf {|{"id": 1, "op": "knn", "workload": "sha", "k": %s}|} k in
  let rejected what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  List.iter
    (fun n ->
      rejected ("request id " ^ n) (Protocol.decode_request (request n));
      rejected ("response id " ^ n) (Protocol.decode_response (response n));
      rejected ("queue_depth " ^ n) (Protocol.decode_response (health n));
      rejected ("knn k " ^ n) (Protocol.decode_request (knn n)))
    [ "1.5"; "-7.9"; "1e300"; "-1e300"; "9007199254740994" ];
  (* max_int encodes as its digits, past 2^53: refused, not read back as
     min_int *)
  rejected "max_int id"
    (Protocol.decode_request
       (Protocol.encode_request { Protocol.id = max_int; op = Protocol.Health; deadline_ms = None }));
  let id_of line =
    match Protocol.decode_request line with
    | Ok r -> r.Protocol.id
    | Error e -> Alcotest.failf "%s: %s" line e
  in
  List.iter
    (fun (text, want) -> Alcotest.(check int) ("id " ^ text) want (id_of (request text)))
    [
      ("7", 7); ("-1", -1); ("2.0", 2); ("1e3", 1000); ("9007199254740992", 1 lsl 53);
      ("-9007199254740992", -(1 lsl 53));
    ];
  List.iter
    (fun id ->
      let req = { Protocol.id; op = Protocol.Health; deadline_ms = None } in
      Alcotest.(check int) "extreme id round-trips" id (roundtrip_req req).Protocol.id)
    [ 1 lsl 53; -(1 lsl 53) ]

(* ---------------- bounded queue ---------------- *)

let test_bqueue_bounds_and_close () =
  let q = Bqueue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Bqueue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Bqueue.try_push q 2);
  Alcotest.(check bool) "push 3 refused at capacity" false (Bqueue.try_push q 3);
  Alcotest.(check int) "length" 2 (Bqueue.length q);
  Alcotest.(check (option int)) "fifo" (Some 1) (Bqueue.try_pop q);
  Alcotest.(check bool) "slot freed" true (Bqueue.try_push q 4);
  Bqueue.close q;
  Bqueue.close q (* idempotent *);
  Alcotest.(check bool) "push after close refused" false (Bqueue.try_push q 5);
  Alcotest.(check (option int)) "drains after close" (Some 2) (Bqueue.pop q);
  Alcotest.(check (option int)) "drains after close" (Some 4) (Bqueue.pop q);
  Alcotest.(check (option int)) "closed and empty" None (Bqueue.pop q)

(* ---------------- breaker ---------------- *)

let test_breaker_machine () =
  let b = Breaker.create { Breaker.threshold = 2; cooldown = 2 } in
  let w = "w" in
  Alcotest.(check bool) "closed admits" true (Breaker.admit b w = `Admit);
  Breaker.record b w ~ok:false;
  Alcotest.(check bool) "one failure stays closed" true (Breaker.state b w = Breaker.Closed);
  Alcotest.(check bool) "still admits" true (Breaker.admit b w = `Admit);
  Breaker.record b w ~ok:false;
  Alcotest.(check bool) "threshold trips" true (Breaker.state b w = Breaker.Open);
  Alcotest.(check bool) "open rejects" true (Breaker.admit b w = `Reject);
  Alcotest.(check bool) "cooldown rejects" true (Breaker.admit b w = `Reject);
  Alcotest.(check bool) "half-open after cooldown" true (Breaker.state b w = Breaker.Half_open);
  Alcotest.(check bool) "probe admitted" true (Breaker.admit b w = `Admit);
  Alcotest.(check bool) "second probe refused" true (Breaker.admit b w = `Reject);
  Breaker.record b w ~ok:false;
  Alcotest.(check bool) "failed probe re-opens" true (Breaker.state b w = Breaker.Open);
  Alcotest.(check bool) "re-opened rejects" true (Breaker.admit b w = `Reject);
  Alcotest.(check bool) "cooldown again" true (Breaker.admit b w = `Reject);
  Alcotest.(check bool) "probe again" true (Breaker.admit b w = `Admit);
  Breaker.record b w ~ok:true;
  Alcotest.(check bool) "good probe closes" true (Breaker.state b w = Breaker.Closed);
  (* a success then a single failure must not trip a freshly closed breaker *)
  Breaker.record b w ~ok:true;
  Breaker.record b w ~ok:false;
  Alcotest.(check bool) "failure count was reset" true (Breaker.state b w = Breaker.Closed)

(* ---------------- admission: shedding and drain ---------------- *)

let light_req id = { Protocol.id; op = Protocol.Distance { a = sha; b = mcf }; deadline_ms = None }

let test_queue_full_sheds () =
  let clock, _, _ = manual_clock () in
  let t = Server.create (test_config ~queue_capacity:2 ~clock ()) in
  let replies, reply = collect () in
  List.iter (fun id -> Server.submit t (light_req id) ~reply) [ 1; 2; 3; 4 ];
  (* capacity 2: ids 3 and 4 must be shed immediately, with a hint *)
  let shed = List.filter (fun r -> r.Protocol.status = Protocol.Overloaded) !replies in
  Alcotest.(check int) "two shed synchronously" 2 (List.length shed);
  Alcotest.(check (list int)) "shed ids" [ 4; 3 ] (List.map (fun r -> r.Protocol.rid) shed);
  List.iter
    (fun r ->
      Alcotest.(check bool) "retry hint present" true (r.Protocol.retry_after_ms <> None))
    shed;
  Alcotest.(check int) "admitted queue depth" 2 (Server.queue_depth t);
  pump_dry t;
  Alcotest.(check int) "every request got exactly one reply" 4 (List.length !replies);
  Alcotest.(check int) "queue drained" 0 (Server.queue_depth t)

let test_drain_semantics () =
  let clock, _, _ = manual_clock () in
  let t = Server.create (test_config ~clock ()) in
  let replies, reply = collect () in
  Server.submit t (light_req 1) ~reply;
  Server.submit t (light_req 2) ~reply;
  Server.begin_drain t;
  Server.begin_drain t (* idempotent *);
  Server.submit t (light_req 3) ~reply;
  let r3 = List.hd !replies in
  Alcotest.(check bool) "new work refused while draining" true
    (r3.Protocol.rid = 3 && r3.Protocol.status = Protocol.Draining);
  (* drain_pump must answer the queued tickets and return *)
  Server.drain_pump t;
  Alcotest.(check int) "in-flight answered before exit" 3 (List.length !replies);
  Alcotest.(check bool) "draining flag" true (Server.draining t);
  (* health stays answerable during drain *)
  Server.submit t { Protocol.id = 9; op = Protocol.Health; deadline_ms = None } ~reply;
  match (List.hd !replies).Protocol.payload with
  | Some (Protocol.Health_info { draining = true; _ }) -> ()
  | _ -> Alcotest.fail "health must report draining"

(* ---------------- deadlines ---------------- *)

let test_deadline_expires_queued () =
  let clock, now, _ = manual_clock () in
  let t = Server.create (test_config ~clock ()) in
  let replies, reply = collect () in
  Server.submit t (characterize ~deadline_ms:10.0 ~id:1 sha) ~reply;
  now := 0.05 (* the 10ms deadline passes while the ticket waits *);
  pump_dry t;
  match !replies with
  | [ r ] ->
    Alcotest.(check bool) "swept as deadline" true (r.Protocol.status = Protocol.Deadline);
    Alcotest.(check bool) "elapsed accounted" true (r.Protocol.elapsed_ms >= 10.0)
  | rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)

let test_deadline_expires_mid_chunk () =
  (* 1ms per clock read: the ticket is fresh at dispatch but the
     cooperative per-chunk check inside the trace loop crosses the
     deadline a few chunks in, abandoning the work. *)
  let clock, _, step = manual_clock () in
  step := 0.001;
  let t = Server.create (test_config ~icount:20_000 ~clock ()) in
  let replies, reply = collect () in
  Server.submit t (characterize ~deadline_ms:5.0 ~id:1 sha) ~reply;
  pump_dry t;
  (match !replies with
  | [ r ] -> Alcotest.(check bool) "cancelled mid-trace" true (r.Protocol.status = Protocol.Deadline)
  | rs -> Alcotest.failf "expected one reply, got %d" (List.length rs));
  (* the abandoned work must not poison later requests for the workload *)
  step := 0.0;
  Server.submit t (characterize ~id:2 sha) ~reply;
  pump_dry t;
  let r2 = List.hd !replies in
  Alcotest.(check bool) "workload still serveable" true (r2.Protocol.status = Protocol.Ok);
  let _, _, estimated, cached = vector_of r2 in
  Alcotest.(check bool) "exact, freshly computed" true ((not estimated) && not cached)

let test_degrades_near_deadline () =
  let clock, _, step = manual_clock () in
  let t = Server.create (test_config ~clock ()) in
  let replies, reply = collect () in
  (* prime the EWMA with one exact run under a 50ms-per-read clock *)
  step := 0.05;
  Server.submit t (characterize ~id:1 mcf) ~reply;
  pump_dry t;
  step := 0.0;
  (* frozen clock: the 1ms budget cannot actually expire, so an [ok]
     degraded answer — not a [deadline] — is the only correct outcome *)
  Server.submit t (characterize ~estimate:true ~deadline_ms:1.0 ~id:2 sha) ~reply;
  pump_dry t;
  let r2 = List.hd !replies in
  Alcotest.(check bool) "degraded answer is ok" true (r2.Protocol.status = Protocol.Ok);
  let _, _, estimated, cached = vector_of r2 in
  Alcotest.(check bool) "flagged estimated" true estimated;
  Alcotest.(check bool) "not served from cache" true (not cached);
  (* estimates never enter the exact results table *)
  Server.submit t (characterize ~id:3 sha) ~reply;
  pump_dry t;
  let _, _, estimated3, cached3 = vector_of (List.hd !replies) in
  Alcotest.(check bool) "exact recomputed, not cached estimate" true
    ((not estimated3) && not cached3);
  Server.submit t (characterize ~id:4 sha) ~reply;
  pump_dry t;
  let _, _, _, cached4 = vector_of (List.hd !replies) in
  Alcotest.(check bool) "exact result now resident" true cached4;
  (* without the estimate opt-in the same squeeze runs exactly *)
  Server.submit t (characterize ~estimate:false ~deadline_ms:1.0 ~id:5 mcf) ~reply;
  pump_dry t;
  Alcotest.(check bool) "no opt-in: cache hit, not estimate" true
    (let _, _, e, c = vector_of (List.hd !replies) in
     (not e) && c)

(* ---------------- breaker under injected faults ---------------- *)

let test_breaker_trips_and_recovers () =
  let clock, _, _ = manual_clock () in
  let t =
    Server.create (test_config ~clock ~breaker:{ Breaker.threshold = 2; cooldown = 2 } ())
  in
  let replies, reply = collect () in
  let ask id =
    Server.submit t (characterize ~id sha) ~reply;
    pump_dry t;
    List.hd !replies
  in
  let plan =
    match Fault.parse "seed=3,pool.worker=1" with
    | Ok p -> p
    | Error e -> Alcotest.failf "fault spec: %s" e
  in
  Fault.with_plan (Some plan) (fun () ->
      let r1 = ask 1 in
      Alcotest.(check bool) "first failure errors" true (r1.Protocol.status = Protocol.Error);
      (match r1.Protocol.error with
      | Some e -> Alcotest.(check bool) "error names attempts" true (contains ~sub:"attempt" e)
      | None -> Alcotest.fail "error reply must carry a message");
      (* satellite: worker backtraces survive into the error reply *)
      (match r1.Protocol.backtrace with
      | Some bt -> Alcotest.(check bool) "backtrace non-empty" true (String.trim bt <> "")
      | None -> Alcotest.fail "error reply must carry the worker backtrace");
      let r2 = ask 2 in
      Alcotest.(check bool) "second failure errors" true (r2.Protocol.status = Protocol.Error);
      let r3 = ask 3 in
      Alcotest.(check bool) "breaker open: quarantined" true
        (r3.Protocol.status = Protocol.Quarantined);
      let r4 = ask 4 in
      Alcotest.(check bool) "cooldown: still quarantined" true
        (r4.Protocol.status = Protocol.Quarantined));
  (* fault plan gone: the half-open probe succeeds and closes the breaker *)
  let r5 = ask 5 in
  Alcotest.(check bool) "probe succeeds" true (r5.Protocol.status = Protocol.Ok);
  let r6 = ask 6 in
  Alcotest.(check bool) "closed again, served from results" true
    (r6.Protocol.status = Protocol.Ok
    &&
    let _, _, _, cached = vector_of r6 in
    cached)

(* ---------------- served-vs-direct differential ---------------- *)

let test_served_matches_direct () =
  let workloads =
    List.map Mica_workloads.Registry.find_exn [ sha; mcf; "SPEC2000/swim/ref" ]
  in
  List.iter
    (fun jobs ->
      let o = Mica_verify.Serve_laws.exact_identity_law ~icount:2_000 ~jobs workloads in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s" o.Mica_verify.Serve_laws.law o.Mica_verify.Serve_laws.detail)
        true o.Mica_verify.Serve_laws.ok)
    [ 1; 4 ];
  let o = Mica_verify.Serve_laws.degraded_identity_law ~icount:2_000 workloads in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s" o.Mica_verify.Serve_laws.law o.Mica_verify.Serve_laws.detail)
    true o.Mica_verify.Serve_laws.ok

(* ---------------- socket + loadgen end-to-end ---------------- *)

(* The daemon's request-line cap (see [Server.listen_and_serve]). *)
let max_line_bytes = 1 lsl 20

let test_socket_loadgen_sigterm () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "mica-serve-test.sock" in
  let t = Server.create (test_config ~icount:2_000 ~jobs:2 ~queue_capacity:16 ()) in
  let workloads = List.map Mica_workloads.Registry.find_exn [ sha; mcf ] in
  let warm = Server.warm_start t ~workloads in
  Alcotest.(check int) "warm set resident" 2 warm;
  let ready = Semaphore.Binary.make false in
  let server =
    Thread.create
      (fun () ->
        Server.listen_and_serve
          ~on_ready:(fun () -> Semaphore.Binary.release ready)
          t (Server.Unix_path path))
      ()
  in
  Semaphore.Binary.acquire ready;
  let report =
    Loadgen.run
      {
        Loadgen.default_config with
        Loadgen.address = Server.Unix_path path;
        rate = 60.0;
        duration = 0.5;
        deadline_ms = 1000.0;
        seed = 7;
        workloads = [ sha; mcf ];
      }
  in
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Thread.join server;
  Alcotest.(check bool) "arrivals happened" true (report.Loadgen.sent > 0);
  Alcotest.(check int) "no reply lost, none malformed" 0 report.Loadgen.protocol_errors;
  Alcotest.(check int) "no deadline overrun beyond 10%" 0 report.Loadgen.deadline_overruns;
  let terminal =
    report.Loadgen.ok + report.Loadgen.estimated + report.Loadgen.cached + report.Loadgen.shed
    + report.Loadgen.expired + report.Loadgen.failed + report.Loadgen.quarantined
    + report.Loadgen.draining
  in
  Alcotest.(check int) "every request reached a terminal state" report.Loadgen.sent terminal;
  Alcotest.(check bool) "warm set answers came from the results table" true
    (report.Loadgen.cached > 0);
  Alcotest.(check bool) "socket unlinked by drain" true (not (Sys.file_exists path))

(* An over-long request line: one [error] reply with rid -1, then the
   connection closes without the daemon reading the rest, and a fresh
   connection is still answered. *)
let test_socket_overlong_line () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "mica-serve-overlong.sock" in
  let t = Server.create (test_config ()) in
  let ready = Semaphore.Binary.make false in
  let server =
    Thread.create
      (fun () ->
        Server.listen_and_serve
          ~on_ready:(fun () -> Semaphore.Binary.release ready)
          t (Server.Unix_path path))
      ()
  in
  Semaphore.Binary.acquire ready;
  (* Timeouts turn a daemon that never answers into a failure, not a hang. *)
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.0;
    fd
  in
  let read_all fd =
    let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
    let rec go () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
    in
    go ();
    Buffer.contents buf
  in
  let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  Fun.protect
    ~finally:(fun () ->
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      Thread.join server)
    (fun () ->
      let fd = connect () in
      (* The daemon stops reading past the cap, so the write fails
         (EPIPE: listen_and_serve ignores SIGPIPE) once it shuts down. *)
      let big = Bytes.make (2 * max_line_bytes) 'x' in
      (try ignore (Unix.write fd big 0 (Bytes.length big) : int)
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      let replies = lines (read_all fd) in
      Unix.close fd;
      (match replies with
      | [ line ] -> (
        match Protocol.decode_response line with
        | Ok r ->
          Alcotest.(check int) "rid" (-1) r.Protocol.rid;
          Alcotest.(check bool) "error status" true (r.Protocol.status = Protocol.Error);
          Alcotest.(check bool) "names the cap" true
            (match r.Protocol.error with
            | Some e -> contains ~sub:(string_of_int max_line_bytes) e
            | None -> false)
        | Error e -> Alcotest.failf "undecodable reply: %s" e)
      | ls -> Alcotest.failf "expected one reply, got %d" (List.length ls));
      (* The daemon keeps a finished connection's descriptor until drain,
         so this reply is read up to its newline, not to end of stream. *)
      let fd = connect () in
      let req =
        Protocol.encode_request { Protocol.id = 5; op = Protocol.Health; deadline_ms = None }
      in
      ignore (Unix.write_substring fd (req ^ "\n") 0 (String.length req + 1) : int);
      let reply = Buffer.create 256 and byte = Bytes.create 1 in
      while Unix.read fd byte 0 1 = 1 && Bytes.get byte 0 <> '\n' do
        Buffer.add_bytes reply byte
      done;
      Unix.close fd;
      let line = Buffer.contents reply in
      match Protocol.decode_response line with
      | Ok { Protocol.rid = 5; status = Protocol.Ok; payload = Some (Protocol.Health_info _); _ }
        ->
        ()
      | Ok _ -> Alcotest.failf "unexpected health reply %S" line
      | Error e -> Alcotest.failf "undecodable reply %S: %s" line e)

let suite =
  ( "serve",
    [
      Alcotest.test_case "protocol: request round-trip" `Quick test_protocol_request_roundtrip;
      Alcotest.test_case "protocol: response float bits" `Quick test_protocol_response_float_bits;
      Alcotest.test_case "protocol: response shapes" `Quick test_protocol_response_shapes;
      Alcotest.test_case "protocol: decode errors" `Quick test_protocol_decode_errors;
      Alcotest.test_case "protocol: integer fields" `Quick test_protocol_integer_fields;
      Alcotest.test_case "bqueue: bounds and close" `Quick test_bqueue_bounds_and_close;
      Alcotest.test_case "breaker: state machine" `Quick test_breaker_machine;
      Alcotest.test_case "admission: queue-full sheds" `Quick test_queue_full_sheds;
      Alcotest.test_case "admission: drain semantics" `Quick test_drain_semantics;
      Alcotest.test_case "deadline: expires while queued" `Quick test_deadline_expires_queued;
      Alcotest.test_case "deadline: expires mid-chunk" `Quick test_deadline_expires_mid_chunk;
      Alcotest.test_case "degradation: near-deadline estimate" `Quick test_degrades_near_deadline;
      Alcotest.test_case "breaker: trips and recovers under faults" `Quick
        test_breaker_trips_and_recovers;
      Alcotest.test_case "differential: served = direct (jobs 1,4)" `Slow
        test_served_matches_direct;
      Alcotest.test_case "socket: loadgen + SIGTERM drain" `Slow test_socket_loadgen_sigterm;
      Alcotest.test_case "socket: over-long line" `Quick test_socket_overlong_line;
    ] )
