(** Temporal-locality analyzer: LRU stack (reuse) distances.

    The reuse distance of a memory access is the number of {e distinct}
    blocks touched since the previous access to the same block (infinite
    for first touches).  The distribution is microarchitecture-independent
    and determines the miss rate of every LRU cache size at once (Mattson
    et al.); the paper's follow-up work (Joshi et al.) uses it to show
    SPEC's temporal locality degrading across generations.

    Computed exactly in O(log n) per access with a Fenwick tree over trace
    positions: each block's most recent access position is marked, and the
    count of marks after the block's previous position is its distance. *)

type t

val create : ?block_bytes:int -> unit -> t
(** Granularity of a "block"; default 32 bytes (matching the working-set
    characteristics). *)

val sink : t -> Mica_trace.Sink.t
(** Consumes load/store effective addresses. *)

val accesses : t -> int
val cold_misses : t -> int
(** First-touch accesses (infinite reuse distance). *)

val cdf : t -> int array -> float array
(** [cdf t cutoffs] gives P(reuse distance <= c) for each cutoff, over all
    accesses (cold misses count as exceeding every cutoff). *)

val miss_rate_for_capacity : t -> blocks:int -> float
(** Miss rate of a fully-associative LRU cache holding [blocks] blocks:
    fraction of accesses with reuse distance >= blocks (cold misses
    included).  One pass of this analyzer prices every cache size. *)

val mean_log2 : t -> float
(** Mean of log2(1 + distance) over finite distances — a compact summary
    statistic of temporal locality (0 = perfect reuse). *)
