(** Fully-associative translation lookaside buffer with LRU replacement. *)

type t

val create : entries:int -> page_bytes:int -> t
(** [page_bytes] must be a power of two of at least 2 (with 1-byte pages
    address -1 would be the invalid page -1); [entries] positive. *)

val access : t -> int -> bool
(** [access t addr] translates the page containing [addr]; returns [true]
    on TLB hit.  A multi-byte transfer that straddles a page boundary
    needs {!access_range} — this single-address form translates exactly
    one page. *)

val access_range : t -> int -> bytes:int -> bool
(** [access_range t addr ~bytes] translates every page overlapped by
    [\[addr, addr + bytes)] — one counted access per page, so a
    page-straddling transfer costs two lookups rather than silently
    translating only its first page.  Returns [true] iff every page hit.
    Raises [Invalid_argument] if [bytes <= 0]. *)

val accesses : t -> int
val misses : t -> int
val miss_rate : t -> float
