(** Set-associative cache model with true-LRU replacement.

    Tracks hit/miss counts only (no data), which is all the
    hardware-performance-counter substitute needs. *)

type t

val create : size_bytes:int -> line_bytes:int -> assoc:int -> t
(** [line_bytes] and the resulting set count [size_bytes / (line_bytes *
    assoc)] must be powers of two, [line_bytes] at least 2 (with 1-byte
    lines address -1 would carry the invalid tag -1), and [size_bytes] a
    whole number of sets; [assoc] must be positive but need {e not} be a
    power of two — LRU search and replacement scan the ways, so e.g. the
    21164's 96KB 3-way L2 (512 sets) is a legal, exactly-modelled
    geometry.  A size that is not a multiple of [line_bytes * assoc] is
    rejected rather than silently truncated.  Raises [Invalid_argument]
    otherwise. *)

val line_bytes : t -> int
val assoc : t -> int

val access : t -> int -> bool
(** [access t addr] touches the line containing [addr]; returns [true] on
    hit.  On miss the LRU way of the set is replaced. *)

val access_range : t -> int -> bytes:int -> bool
(** [access_range t addr ~bytes] touches every line overlapped by
    [\[addr, addr + bytes)] — one counted access per line, so a
    line-straddling transfer is modelled explicitly instead of being
    attributed to its first line only.  Returns [true] iff every line
    hit.  Raises [Invalid_argument] if [bytes <= 0]. *)

val probe : t -> int -> bool
(** Like {!access} but without updating any state or counts. *)

val install : t -> int -> unit
(** Insert the line containing the address without touching the hit/miss
    counters (prefetches and fills from other agents).  Replaces the LRU
    way if the line is absent; refreshes recency if present. *)

val accesses : t -> int
val misses : t -> int

val miss_rate : t -> float
(** [misses / accesses]; 0 before any access. *)
