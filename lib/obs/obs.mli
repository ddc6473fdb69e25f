(** Process-wide metrics registry and span tracer.

    Design contract (DESIGN.md §11):

    - {b Inert when disabled.}  Every probe site begins with a single
      [Atomic.get] of the global enable flag; when metrics are off that load
      is the entire cost and no state is touched, so instrumented code paths
      stay bit-identical to uninstrumented ones.
    - {b Lock-free hot path.}  Each domain owns a private store (flat float
      slabs for counters/gauges/histograms, a hash table of span statistics,
      a span stack) reached through [Domain.DLS]; probes never take a lock.
      Stores are enrolled in a global list at creation, under a mutex, so
      statistics survive domain shutdown (e.g. [Pool] worker recycling) and
      [snapshot] can merge them later.
    - {b Observation only.}  Nothing in this module feeds back into pipeline
      logic; readings are aggregated exclusively by [snapshot]. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Zero every counter/gauge/histogram cell, span statistic and recorded
    event in every enrolled store.  Registered metric names survive.  Call
    only when no other domain is actively probing. *)

(** {1 Metrics}

    Metric handles are registered once (typically at module initialisation)
    and are cheap immutable records; registering the same name twice returns
    an equivalent handle, registering the same name with a different kind
    raises [Invalid_argument]. *)

type metric

val counter : string -> metric
val gauge : string -> metric
val histogram : string -> metric

val incr : metric -> unit
(** Counter += 1.  No-op when disabled or on non-counters. *)

val add : metric -> float -> unit
(** Counter += v.  No-op when disabled or on non-counters. *)

val set : metric -> float -> unit
(** Gauge := v (per-domain; cross-domain merge sums).  No-op when disabled. *)

val observe : metric -> float -> unit
(** Record one histogram sample.  No-op when disabled or on non-histograms. *)

(** {1 Spans} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] and, when enabled, attributes its wall time and
    GC minor/major word deltas to [name].  Spans nest: a span's [self]
    time excludes time spent in child spans started on the same domain.
    The span is closed even if [f] raises. *)

(** {1 Event recording}

    Optional per-domain enter/exit event journal used by tests to
    reconstruct the span tree.  Off by default (independently of
    {!set_enabled}); events record only when both flags are on. *)

val set_record_events : bool -> unit

type event = { ev_name : string; ev_enter : bool; ev_time : float }

val events : unit -> (int * event list) list
(** Recorded events grouped per store (one store per domain incarnation),
    each list in chronological order.  The [int] is an opaque store id. *)

(** {1 Snapshots and exporters} *)

type histogram_value = {
  h_count : int;
  h_sum : float;
  h_min : float;  (** [nan] when empty *)
  h_max : float;  (** [nan] when empty *)
  h_buckets : (float * int) array;
      (** Cumulative (upper_bound, count) pairs, Prometheus-style; the last
          bound is [infinity]. *)
}

type metric_value =
  | Counter of float
  | Gauge of float
  | Histogram of histogram_value

type span_stat = {
  sp_count : int;
  sp_total_s : float;
  sp_self_s : float;
  sp_minor_words : float;
  sp_major_words : float;
}

type snapshot = {
  metrics : (string * metric_value) list;  (** sorted by name *)
  spans : (string * span_stat) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
(** Merge every enrolled store.  Counters, gauges, histogram cells and span
    statistics sum across domains.  Reads are unsynchronised with respect to
    concurrently probing domains (each cell is single-writer, so a snapshot
    taken while workers run may lag but never corrupts). *)

val to_json : snapshot -> string
(** Standard JSON: a non-finite value (an empty histogram's [min] and
    [max], the last bucket bound) is written as [null]. *)

val to_prometheus : snapshot -> string
(** Prometheus text format, which spells non-finite values [NaN], [+Inf]
    and [-Inf]. *)

val write_json : string -> snapshot -> unit
(** Write {!to_json} to a file (atomic tmp+rename). *)
