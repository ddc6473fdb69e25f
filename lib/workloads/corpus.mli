(** Parameter-space sweep corpus: unbounded synthetic workload families.

    The Table I registry is 122 fixed benchmarks; exercising the pipeline
    at 10k+ observations needs an open-ended supply.  This module defines
    three scale-out application archetypes in the spirit of the
    BigDataBench / CloudSuite taxonomies and sweeps their kernel-model
    parameters (working-set size, access-pattern mixture, control bias,
    FP content, code footprint) deterministically per member index:

    - {e analytics} — batch scan/aggregate jobs: a sequential scan phase
      feeding a hash-aggregation phase with data-dependent control;
    - {e kv} — key-value serving: pointer-chasing lookups in a large
      table, short request-parse bursts, large irregular code footprint;
    - {e media} — media streaming/transcode: strided block decode plus a
      floating-point filter pass with highly predictable loops.

    Member identity is stable by construction: member [i] of a family has
    id [gen/<family>/<index>-<hex>] where the hex tag hashes the family,
    index and the sweep {!version} — regenerating a corpus (any size, any
    machine) yields the same ids, models and traces, and bumping
    {!version} renames every member rather than silently changing what an
    id means.  Members use {!Suite.Generated}, which is not part of
    {!Suite.all}: the Table I registry is unchanged. *)

type family = Analytics | Key_value | Media_stream

val families : family list

val version : int
(** Sweep-definition version, part of every member id. *)

val member_id : family -> int -> string
(** [member_id fam i] is the full workload id, e.g.
    ["gen/analytics/00042-1f3a9c2b"].  Requires [i >= 0]. *)

val member : family -> int -> Workload.t
(** The swept workload itself; deterministic in [(family, index)]. *)

val members : size:int -> Workload.t list
(** [size] workloads round-robined across {!families} in index order —
    the canonical corpus enumeration ([member_id] of row [r] is
    [member (families.(r mod 3)) (r / 3)]). *)
