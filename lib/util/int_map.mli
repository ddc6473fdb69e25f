(** Allocation-free open-addressing map from non-negative ints to ints.

    Built for the analyzer hot paths: one multiplicative hash, linear
    probing in a flat array, no allocation and no boxing on any lookup or
    update.  It is an exact map — replacing [Hashtbl] with it changes no
    observable analyzer result.  Keys must be non-negative ([-1] is the
    internal empty marker); the mutating operations raise [Invalid_argument]
    on negative keys. *)

type t

val create : ?initial:int -> unit -> t
(** [create ?initial ()] makes an empty map sized for about [initial]
    entries (rounded up to a power of two; grows automatically). *)

val length : t -> int
(** Number of distinct keys present. *)

val find : t -> int -> default:int -> int
(** [find t key ~default] is the value bound to [key], or [default].  A
    negative key is never bound. *)

val mem : t -> int -> bool
(** [mem t key] is whether [key] is bound; [false] for a negative key. *)

val set : t -> int -> int -> unit
(** [set t key v] binds [key] to [v], replacing any previous binding. *)

val bump : t -> int -> int -> unit
(** [bump t key delta] adds [delta] to [key]'s value, inserting [delta]
    if the key is absent. *)

val add_if_absent : t -> int -> unit
(** [add_if_absent t key] inserts [key] with value [0] if absent; used as
    a set. *)

val remove : t -> int -> unit
(** [remove t key] unbinds [key]; a no-op if it is absent or negative.  The
    slot is freed by shifting the rest of its probe cluster back, not
    marked with a tombstone, so the table never holds more keys than are
    bound. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] applies [f key value] to every binding, in no particular
    order. *)
