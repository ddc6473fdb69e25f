(** Minimal CSV reading and writing.

    Handles the subset of CSV the library emits: comma separation, optional
    double-quoting when a field contains a comma, quote or newline, quotes
    escaped by doubling.  Sufficient for round-tripping our own datasets. *)

val escape_field : string -> string
(** Quote a field if needed. *)

val table : columns:string array -> (string * float array) list -> string
(** The dataset layout, shared by dataset exports, caches and run
    directories: a [name,<columns>] header, then one line per row, in the
    order given, of its escaped name and its cells as [%.17g] (which reads
    back to the same float). *)

val parse_line : string -> string list
(** Parse one physical line (no embedded newlines supported on input). *)

val of_file : string -> string list list
(** Read all rows of [path], skipping blank lines and [#] comment lines
    (such as the cache tier's checksum headers). *)
