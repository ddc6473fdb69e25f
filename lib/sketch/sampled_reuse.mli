(** Reuse-distance estimation in fixed memory: a near/far hybrid.

    A direct-mapped recency table over all blocks measures short reuse
    distances at full weight (collision losses are debiased by occupancy
    inversion, so distances up to the table size stay accurate);
    a hash-sampled set of blocks with exact last-position tracking
    covers the far tail, recording rate-scaled distances at weight
    [rate].  Every access contributes through exactly one path.

    Memory is O(1) in trace length: the sampled set is capped (the rate
    doubles adaptively when it would overflow) and both position clocks
    are compacted in place when they reach their Fenwick capacity.

    Deterministic: placement flows through {!Cardinality.hash}, so
    results are invariant under chunking, repeated runs and the worker
    count. *)

type t

val create :
  ?block_bytes:int -> ?near_slots:int -> ?capacity:int -> cutoffs:int array -> unit -> t
(** [block_bytes] (default 32) must be a positive power of two.
    [near_slots] (default 4096) sizes the near recency table; distances
    up to roughly that many blocks are measured at full weight.
    [capacity] (default 1024) bounds the sampled far set.  Both are
    rounded up to powers of two, minimum 16.  [cutoffs] are the
    ascending reuse distances at which {!cdf} reports. *)

val access : t -> int -> unit
(** Observe one data access at a byte address. *)

val cdf : t -> float array
(** Estimated P(reuse distance <= cutoff) per creation cutoff,
    denominated by the exact access count — same semantics as
    [Mica_analysis.Reuse.cdf]. *)

val mean_log2 : t -> float
(** Weighted mean of log2 (distance + 1) over finite recorded distances. *)

val accesses : t -> int
(** Exact: every access is counted. *)

val cold_estimate : t -> float
(** Estimated first-access count: sampled cold accesses scaled by the
    sampling rate in force when each was observed. *)

val reset : t -> unit
(** Return to the freshly-created state (rate included) in place. *)

val state_bytes : t -> int
(** Resident estimator memory in bytes — fixed at creation. *)
