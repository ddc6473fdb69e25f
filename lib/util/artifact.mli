(** Crash-safe artifact files: one writer, one reader and one checksummed
    framing for everything the tree commits to disk and reads back — the
    characterization caches and checkpoints, run directories, MICD
    stores, metrics snapshots and machine descriptions.

    A write goes to a sibling [.tmp] file that is renamed over the target
    only after the write and the close succeed, so a kill at any instant
    leaves the old file or the new one, never a truncated mix.  Reads never
    raise: a missing, unreadable or damaged file is a {!read_error}. *)

type read_error =
  | Missing  (** no such file *)
  | Unreadable of string  (** OS-level read failure, or an injected fault *)
  | Corrupt of string  (** missing or malformed header, or a digest mismatch *)
  | Foreign_version of string  (** written by another format version *)

val describe_error : read_error -> string

val mkdir_p : string -> unit
(** Create a directory and its missing parents; failures are left for the
    first write below it to report. *)

val remove_tree : string -> unit
(** Remove [path] and, for a directory, everything below it, without
    following symbolic links.  Best effort: what cannot be removed stays,
    and a missing [path] is no error. *)

val write : string -> string -> unit
(** [write path contents] commits [contents] to [path] atomically,
    creating [path]'s parent directory.  It checks the [Cache_write] fault
    point with key [Hashtbl.hash path] first.  On failure it removes the
    temp file and raises [Sys_error] (or {!Fault.Injected}); [path] is then
    untouched. *)

val read : string -> (string, read_error) result
(** The whole file.  Checks the [Cache_read] fault point with key
    [Hashtbl.hash path] once the file is known to exist.  Only [Missing]
    or [Unreadable]. *)

val md5_hex : string -> string

val frame : prefix:string -> version:string -> string -> string
(** [frame ~prefix ~version body] is [<prefix><version> md5:<hex>\n<body>],
    where [<hex>] is the MD5 of [body]. *)

val unframe : prefix:string -> version:string -> string -> (string, read_error) result
(** The body of a {!frame}d text.  [Foreign_version v] when the header
    names another version; [Corrupt] when the text does not start with
    [prefix], the header is malformed, or the body does not match its
    digest. *)
