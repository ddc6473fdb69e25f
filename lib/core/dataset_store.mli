(** Binary columnar on-disk datasets, mmap-loadable in O(1).

    The CSV cache behind {!Dataset.of_csv} re-parses every float on every
    load — seconds of startup at 10k x 47.  This store writes the same
    labeled matrix as a flat binary file whose data section is exactly
    the {!Mica_stats.Colmat} layout (column-major float64, host byte
    order), so {!load} maps it with [Unix.map_file] and returns without
    touching the floats at all.

    Layout (all integers little-endian u32 unless noted):

    {v
    offset  0  magic "MICD"
            4  format version (u8, currently 1)
            5  endianness tag (u8: 1 little, 2 big) — must match the host
            6  reserved (2 bytes, zero)
            8  metadata blob length
           12  rows
           16  cols
           20  data offset (8-byte aligned)
           24  MD5 of the metadata blob (16 raw bytes)
           40  MD5 of the data section (16 raw bytes)
           56  metadata blob: length-prefixed row names, then feature names
    data offset  rows * cols float64 cells, column-major
    v}

    Integrity follows the artifact discipline ({!Mica_util.Artifact}):
    files are committed atomically (temp + rename), the metadata digest
    and the [data offset + 8 * rows * cols] size arithmetic are verified
    on every {!load} (so header tampering and truncation surface as
    [Error], never as garbage data), while the full data digest is only
    checked by the explicit {!verify} — keeping {!load} O(1) in the data
    size.  No function here raises on malformed input. *)

type t = {
  names : string array;  (** row labels, as in {!Dataset.t} *)
  features : string array;  (** column labels *)
  data : Mica_stats.Colmat.t;  (** aliases the file mapping after {!load} *)
}

val write : string -> Dataset.t -> unit
(** Atomically commit a dataset to [path].  Raises [Sys_error] only on
    OS-level write failure (as every writer in the tree does). *)

val load : string -> (t, Mica_util.Artifact.read_error) result
(** Map [path].  O(1) in the data size: validates magic, version,
    endianness, dimension/size arithmetic and the metadata digest, then
    mmaps the data section without reading it.  The mapping is private
    (copy-on-write): mutating the returned matrix never touches the
    file. *)

val verify : string -> (unit, Mica_util.Artifact.read_error) result
(** Full check of [path]: everything {!load} validates, plus the MD5 of
    the data section. *)
