(** Declarative machine descriptions: the on-disk format behind
    [machines/*.json].

    A description is data, not code: a cache hierarchy as a list of named
    levels, a branch-predictor family plus sizing, an in-order or
    out-of-order issue model, and a per-opcode-class latency /
    reciprocal-throughput table in the style of uops.info.  {!to_config}
    lowers a validated description to a {!Machine.config}; the four
    hard-coded presets round-trip through {!of_config} bit-identically,
    which is what lets the fleet runner treat every machine — preset or
    user-supplied — uniformly.

    Everything here follows the read-error discipline: loaders return
    [Error] with an actionable message (naming the file, field and
    offending value) and never raise on bad input. *)

type cache_level = {
  level_name : string;  (** ["l1i"], ["l1d"] or ["l2"] *)
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  latency : int;
      (** l1d: load-to-use on a hit ({!Machine.config.l1_latency}); l2:
          additional cycles of an L2 hit; l1i: cycles an out-of-order
          core's fetch redirect adds to the L2/memory extra on an I-cache
          miss ({!Machine.config.l1i_latency}; in-order cores ignore
          it) *)
}

type core_model =
  | In_order of { issue_width : int }
  | Out_of_order of { width : int; window : int }

type predictor = {
  family : string;  (** ["bimodal"], ["gshare"], ["local"] or ["tournament"] *)
  entries : int;  (** table entries; must be a power of two *)
  history_bits : int;  (** ignored by ["bimodal"] *)
}

type op_timing = {
  op : Mica_isa.Opcode.t;
  latency : int;
  recip_throughput : int;
}

type t = {
  name : string;
  core : core_model;
  levels : cache_level list;  (** must contain exactly l1i, l1d and l2 *)
  tlb_entries : int;
  page_bytes : int;
  tlb_penalty : int;
  predictor : predictor;
  prefetch_next_line : bool;
  mem_latency : int;
  mispredict_penalty : int;
  ops : op_timing list;
      (** overrides; opcode classes not listed take
          {!Machine.default_ops} timings *)
}

val families : string list
(** The accepted predictor family names. *)

val validate : t -> (unit, string) result
(** Semantic checks beyond JSON shape: positive sizes, power-of-two
    lines / sets / pages / predictor tables, no duplicate cache levels or
    op entries, all three required levels present.  A description that
    validates lowers to a config {!Machine.create} accepts. *)

val of_json : Mica_obs.Json.t -> (t, string) result
val to_json : t -> Mica_obs.Json.t

val to_string : t -> string
(** Pretty-printed JSON document, trailing newline included — exactly the
    format of the committed [machines/*.json] files. *)

val to_config : t -> (Machine.config, string) result
(** Validate, then lower to a simulatable config. *)

val of_config : Machine.config -> t
(** Inverse of {!to_config} up to representation: [to_config (of_config c)]
    equals [Ok c] structurally for any config with a full ops table. *)

val parse_string : source:string -> string -> (t, string) result
(** Parse and validate a JSON document; [source] prefixes error messages
    (typically the file name). *)

val load : string -> (t, string) result
(** Read, parse and validate one description file. *)

val load_config : string -> (Machine.config, string) result
(** {!load} followed by {!to_config}. *)

val load_dir : string -> ((string * Machine.config) list, string) result
(** Load every [*.json] in a directory, sorted by filename, and reject
    duplicate machine names across files.  [Error] names the first
    offending file.  Each entry is keyed by the machine's [name] field
    (unique by construction), not its filename. *)
