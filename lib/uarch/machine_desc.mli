(** Declarative machine descriptions: the on-disk format behind
    [machines/*.json], parsed straight into a {!Machine.config}.

    A description is data, not code: a cache hierarchy as a list of named
    levels, a branch-predictor family plus sizing, an in-order or
    out-of-order issue model, and a per-opcode-class latency /
    reciprocal-throughput table in the style of uops.info.  The presets
    are descriptions too, compiled into the library ({!presets},
    {!paper_ev67}), so the paper's counters, the cross-machine experiment
    and the fleet runner treat every machine — preset or user-supplied —
    uniformly.

    Everything here follows the read-error discipline: loaders return
    [Error] with an actionable message (naming the file, field and
    offending value) and never raise on bad input. *)

val parse_string : source:string -> string -> (Machine.config, string) result
(** Parse, check and lower a JSON document; [source] prefixes error
    messages (typically the file name).  The checks go beyond JSON shape:
    positive sizes, power-of-two lines / sets / pages / predictor tables,
    no duplicate cache levels or op entries, exactly the levels [l1i],
    [l1d] and [l2].  A config that parses is one {!Machine.create}
    accepts.

    The [l1i], [l1d] and [l2] latencies become [l1i_latency], [l1_latency]
    and [l2_latency].  Opcode classes the [ops] table omits keep the
    historical timing: {!Mica_isa.Opcode.latency}, fully pipelined except
    a non-pipelined FP divider and a half-pipelined integer multiplier. *)

val load : string -> (Machine.config, string) result
(** Read ({!Mica_util.Artifact.read}, so the [cache.read] fault point
    applies) and parse one description file. *)

val load_dir : string -> ((string * Machine.config) list, string) result
(** Load every [*.json] in a directory, sorted by filename, and reject
    duplicate machine names across files.  [Error] names the first
    offending file.  Each entry is keyed by the machine's [name] field
    (unique by construction), not its filename. *)

val presets : unit -> Machine.config list
(** [machines/{ev56,ev67,embedded,wide}.json], in that order: cores
    shaped like the Alpha 21164A and 21264A, a small single-issue
    embedded core, and an aggressive 8-wide "future machine" with a
    next-line prefetcher.  Compiled into the library and parsed once per
    process, by the first call (from any domain), so nothing reads
    [machines/] at run time to get them.  The cross-machine experiment
    runs these four. *)

val paper_ev67 : unit -> Machine.config
(** [machines/paper/ev67.json], compiled in the same way: the paper's
    EV67 ({!Hw_counters.ev67}).  It sits outside the directory the fleet
    loads, so it is not a member of the fleet. *)
