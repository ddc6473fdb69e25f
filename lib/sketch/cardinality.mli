(** Probabilistic cardinality estimation: a HyperLogLog / linear-counting
    hybrid with one byte per register.

    Replaces the exact working-set tables in the sketch path: memory is
    fixed at creation (one byte per register) regardless of how many
    distinct keys the stream touches.  Relative error of the HLL regime is
    about [1.04 / sqrt registers]; the small-range regime (estimates below
    [2.5 * registers]) switches to linear counting over the zero
    registers, which is much tighter for the page-level working sets.

    Deterministic: the hash key is fixed (derived from {!Mica_util.Rng}
    at a constant seed), and registers accumulate via [max], so the state
    is a pure function of the key {e set} — independent of insertion
    order, duplication and chunking. *)

type t

val create : ?registers:int -> unit -> t
(** [registers] (default 1024) must be a power of two, at least 16.
    Memory is one byte per register. *)

val add : t -> int -> unit
(** Observe a key.  Duplicates are free. *)

val estimate : t -> float
(** Estimated number of distinct keys observed. *)

val reset : t -> unit
(** Clear all registers in place (no allocation). *)

val registers : t -> int
val state_bytes : t -> int
(** Resident sketch memory in bytes (the register array). *)

val hash : int -> int
(** The sketch family's shared 63-bit key hash; exposed for the sampled
    structures ({!Sampled_reuse}, {!Bounded}) so every sketch derives its
    placement from the same deterministic mixing. *)
