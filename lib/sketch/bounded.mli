(** Fixed-capacity state for the sketch analyzers: a direct-mapped
    int map with eviction, and a bounded histogram. *)

module Map : sig
  (** Direct-mapped [int -> int] table.  One hash, one slot, no growth:
      a colliding insert evicts the previous resident (latest wins).
      Allocation-free on every operation; memory fixed at creation.

      Replaces the exact per-key [Mica_util.Int_map] tables (PPM
      contexts, per-PC last addresses, per-branch statistics) in the
      sketch path — hot keys stay resident, cold keys decay by
      eviction, and the approximation error shrinks as [slots] grows
      past the live key count (at which point the table is exact in
      the common no-collision case). *)

  type t

  val create : slots:int -> t
  (** Capacity is [slots] rounded up to a power of two, at least 16. *)

  val find : t -> int -> default:int -> int

  val set : t -> int -> int -> unit
  (** Insert or overwrite; evicts any colliding resident.  Raises
      [Invalid_argument] on negative keys. *)

  val bump : t -> int -> int -> unit
  (** [bump t key delta] adds [delta] to the resident count for [key];
      after an eviction the count restarts at [delta]. *)

  val reset : t -> unit
  (** Empty the table in place (no allocation). *)

  val state_bytes : t -> int
end

module Decay_hist : sig
  (** Histogram over fixed integer cutoffs (plus an implicit overflow
      bucket) with float counts. *)

  type t

  val create : cutoffs:int array -> t
  (** [cutoffs] ascending; values [v <= cutoffs.(i)] land in bucket [i],
      larger values in the overflow bucket. *)

  val record : t -> int -> unit

  val cdf : t -> float array
  (** Cumulative fraction at each cutoff, denominated by the
      total, clamped at 1.0 below — the same guard the exact analyzers
      apply to empty histograms. *)

  val reset : t -> unit
  val state_bytes : t -> int
end
