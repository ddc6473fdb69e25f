(** The characterization daemon.

    Two layers, split so robustness logic stays deterministic and
    testable without sockets or wall clocks:

    - a {b deterministic core} — {!create}, {!warm_start}, {!submit},
      {!pump}, {!begin_drain} — in which every time read goes
      through the injectable [config.clock], every admission decision is
      made by {!submit}, and all dispatch (batching, deadline sweeps,
      breaker consultation, degradation choice, result recording) happens
      sequentially inside {!pump}.  Tests drive it with a virtual clock
      and assert exact reply sequences.
    - a {b socket front end} — {!listen_and_serve} — that adds threads
      (acceptor, one reader per connection, one dispatcher running
      {!pump} off the blocking queue) and signals (SIGTERM/SIGINT →
      graceful drain) around the same core.

    Robustness contract (DESIGN.md §15): every admitted or refused
    request gets exactly one reply; the admission queue is bounded, so
    memory is bounded regardless of arrival rate; deadline checks run at
    admission, at dispatch, and cooperatively per trace chunk inside
    [Pipeline.characterize]; near-deadline [characterize] requests whose
    client permits it are answered from the fixed-memory sketch path
    flagged [estimated]; repeatedly failing workloads are quarantined by
    a per-workload circuit breaker; drain finishes in-flight work,
    refuses new work with [draining], then flushes the cache and
    metrics. *)

type config = {
  icount : int;
  ppm_order : int;
  cache_dir : string option;  (** warm-start source and drain-flush target *)
  jobs : int;  (** worker domains; also the dispatch batch size *)
  retries : int;  (** per-request attempts budget beyond the first *)
  queue_capacity : int;  (** admission queue bound *)
  default_deadline_ms : float;  (** applied when a request carries none; [<= 0] = none *)
  degrade : bool;  (** enable sketch-based graceful degradation *)
  sketch_bytes : int;  (** sketch byte budget for degraded answers *)
  degrade_margin : float;
      (** degrade when the remaining budget is below [margin] x the EWMA
          cost of an exact characterization *)
  breaker : Breaker.config;
  clock : unit -> float;  (** seconds; injectable for deterministic tests *)
}

val default_config : config
(** [Pipeline.default_config]'s icount/ppm/cache, [Pool.default_jobs]
    workers, 2 retries, queue capacity 64, no default deadline,
    degradation on with the sketch default budget and margin 2.0,
    [Breaker.default_config], [Unix.gettimeofday]. *)

type t

val create : config -> t

val warm_start : t -> workloads:Mica_workloads.Workload.t list -> int
(** Absorb every complete row of the on-disk characterization cache into
    the in-memory exact-results table, then ensure each given workload is
    resident (characterizing any that are missing, through the cache) and
    build the query space for [distance]/[classify]/[knn] over them.
    Returns the number of resident vectors.  Call before serving. *)

val submit : t -> Protocol.request -> reply:(Protocol.response -> unit) -> unit
(** Admission control.  [health]/[metrics] are answered inline and are
    never shed.  Anything else: when draining → [draining] reply; when
    the queue is full → immediate [overloaded] reply (explicit
    backpressure — the queue never grows past [queue_capacity]);
    otherwise the request is enqueued with its absolute deadline fixed at
    admission time.  Exactly one [reply] happens for every submit, on the
    submitting thread (shed/draining) or the dispatching thread.
    Thread-safe. *)

val pump : t -> int
(** Dispatch one batch: sweep already-expired tickets (replying
    [deadline]), answer light queries (warm-space distance/classify/knn
    and exact-cache hits) inline, consult the breaker per characterize
    ticket ([quarantined] reply when open), run at most [jobs] heavy
    characterizations on the pool — each with a cooperative per-chunk
    deadline check, degraded to the sketch path when the remaining budget
    demands and the client allows — then record outcomes (results table,
    breaker, EWMA) and reply, in batch order.  Returns the number of
    tickets consumed; 0 when the queue was empty.  Not thread-safe with
    itself: it is the dispatcher's loop body. *)

val drain_pump : t -> unit
(** Blocking dispatcher loop: {!pump} driven by the queue's blocking pop;
    returns when the queue is closed and fully drained. *)

val begin_drain : t -> unit
(** Stop admitting: subsequent {!submit}s get [draining] replies and the
    queue is closed, so {!drain_pump} returns once in-flight work
    finishes.  Idempotent. *)

val draining : t -> bool
val queue_depth : t -> int

type address = Unix_path of string | Tcp of { host : string; port : int }

val listen_and_serve : ?on_ready:(unit -> unit) -> t -> address -> unit
(** Bind, listen and serve until SIGTERM/SIGINT.  On signal: admission
    flips to [draining], the listener closes, in-flight work finishes and
    its replies are delivered, the cache and (if metrics are enabled) the
    run metrics are flushed, connections close, and the call returns —
    the graceful-drain path the soak test and CI smoke assert.
    [on_ready] runs once the socket is listening.

    A request line longer than 1 MiB (newline excluded) is answered with
    one [error] reply with rid -1, and that connection is then shut down;
    the rest of the line is never read, so the cap bounds what a reader
    thread holds. *)
