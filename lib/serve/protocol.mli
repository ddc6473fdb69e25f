(** The serve wire protocol: newline-delimited JSON, one request or
    response object per line.

    Floats cross the wire through [Mica_obs.Json], whose writer prints
    [%.17g] — 17 significant digits, which always read back to the same
    bits but are not the shortest form that does — and, on this wire,
    non-finite values as the bare [nan]/[inf]/[-inf] tokens rather than
    [null]; its reader recovers the exact bit pattern — so a served
    characteristic vector is bit-identical to the daemon's in-memory
    vector, and the served-vs-direct identity law in [Mica_verify] can
    compare with [Int64.bits_of_float] equality across the encode/decode
    round trip.

    A line is at most 1 MiB long; the daemon answers a
    longer one with one [Error] reply with [rid = -1] and closes the
    connection.

    Every request carries a client-chosen [id]; the matching response
    echoes it, so a client may pipeline requests over one connection and
    match replies out of order (the daemon replies in completion order,
    not submission order).

    Integer fields (the request and response [id], [knn]'s [k] and the
    health counts) must be JSON numbers with no fractional part in
    [[-2^53, 2^53]], the range where every integer is exact as a float;
    the decoders return [Error] for anything else ([1.5], [1e300]) rather
    than truncating it. *)

type op =
  | Characterize of { workload : string; estimate : bool }
      (** characterize a registry workload; [estimate = true] permits the
          daemon to answer from the fixed-memory sketch path near the
          deadline (the reply is then flagged [estimated]) *)
  | Distance of { a : string; b : string }  (** Euclidean distance in the warm space *)
  | Classify of { workload : string; threshold : float }
      (** nearest warm neighbour and whether it lies within [threshold] *)
  | Knn of { workload : string; k : int }  (** k nearest warm neighbours *)
  | Health  (** liveness + queue depth; answered inline, never shed *)
  | Metrics  (** Prometheus-text metrics snapshot; answered inline, never shed *)

type request = {
  id : int;
  op : op;
  deadline_ms : float option;
      (** per-request deadline budget; [None] = the daemon's default *)
}

type status =
  | Ok
  | Error  (** the operation failed; [error]/[backtrace] say why *)
  | Overloaded  (** admission queue full — shed, retry after [retry_after_ms] *)
  | Deadline  (** the deadline expired before or during the work *)
  | Quarantined  (** circuit breaker open for this workload *)
  | Draining  (** daemon is shutting down and admits no new work *)

type payload =
  | Vector of { mica : float array; hpc : float array; estimated : bool; cached : bool }
  | Number of float
  | Classification of { nearest : string; distance : float; threshold : float; within : bool }
  | Neighbors of (string * float) list
  | Health_info of {
      queue_depth : int;
      queue_capacity : int;
      draining : bool;
      warm : int;  (** workloads resident in the exact-results table *)
    }
  | Text of string

type response = {
  rid : int;  (** echoes the request [id] *)
  status : status;
  payload : payload option;
  error : string option;
  backtrace : string option;
      (** worker backtrace for [Error] replies (diagnosability; see
          [Pool.failure]) *)
  elapsed_ms : float;  (** admission-to-reply, by the daemon's clock *)
  retry_after_ms : float option;  (** backoff hint on [Overloaded]/[Quarantined] *)
}

val status_name : status -> string

val encode_request : request -> string
(** One line, no trailing newline. *)

val decode_request : string -> (request, string) result

val encode_response : response -> string
val decode_response : string -> (response, string) result

val error_response : rid:int -> ?backtrace:string -> ?elapsed_ms:float -> string -> response
(** An [Error] response carrying [msg]. *)
