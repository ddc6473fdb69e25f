(** Minimal JSON reader and writer: run manifests, reports, the serve wire
    format and the metrics round-trip tests.  The reader accepts standard
    JSON plus the bare tokens [nan], [inf] and [-inf], which the serve wire
    format writes and older metrics files carry. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse a complete JSON document.  [Error msg] carries a byte offset.
    Never raises: containers are read with an explicit stack, so deep
    nesting costs heap in proportion, not call stack. *)

val to_string : ?pretty:bool -> ?bare_non_finite:bool -> t -> string
(** Serialize.  Object key order is preserved exactly as constructed, so
    output is byte-stable and suitable for golden tests and checksumming.
    Integral floats below 1e15 in magnitude print as integers (as [%.0f]
    prints them), other finite floats as [%.17g].  Non-finite floats
    print as [null], so the output is standard JSON; with
    [~bare_non_finite:true] they print as the bare [nan]/[inf]/[-inf]
    tokens {!parse} accepts instead, which round-trip to the bit.  With
    [~pretty:true] the document is indented two spaces per level. *)

val member : string -> t -> t option
(** [member key (Obj _)] looks up [key]; [None] on missing key or non-object. *)

val to_num : t -> float option

val to_int : t -> int option
(** A number with no fractional part within [±2^53], where every integer
    is exact as a float; [None] for anything else. *)

val to_float : t -> float option
(** Like {!to_num}, but reads [null] as NaN: a metric written by
    {!to_string}, where a non-finite value became [null]. *)

val to_str : t -> string option
