(** Column-major float64 matrices backed by {!Bigarray}.

    The columnar layout is the scale-layer complement of {!Matrix} (an
    array of row arrays): one flat [Bigarray.Array1] holding the columns
    back to back, so column [j] of an [rows x cols] matrix occupies the
    contiguous slice [j * rows, (j + 1) * rows).  Two properties matter:

    - the storage can alias an {!Unix.map_file} mapping, which is how
      {!Mica_core.Dataset_store} opens a 10k-row dataset in O(1) without
      parsing anything; and
    - column scans ({!zscore}, the {!Ann} index) stream whole column
      slices through the cache instead of striding across row records.

    Element [(i, j)] lives at index [j * rows + i].  All scans iterate
    rows in ascending order, so per-column reductions see values in
    exactly the order the row-major {!Matrix} accessors do — the
    bit-identity contract between the two representations. *)

type array1 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private { rows : int; cols : int; data : array1 }

val of_array1 : rows:int -> cols:int -> array1 -> t
(** View an existing flat buffer (e.g. an mmap) as a columnar matrix.
    Raises [Invalid_argument] unless the buffer holds exactly
    [rows * cols] elements. *)

val rows : t -> int
val cols : t -> int
val dims : t -> int * int

val get : t -> int -> int -> float

val of_matrix : Matrix.t -> t
(** Copy a row-major matrix into columnar storage. *)

val to_matrix : t -> Matrix.t
(** Materialize as an array of fresh row arrays. *)

val row : t -> int -> float array
(** Fresh copy of row [i]. *)

val row_into : t -> int -> float array -> unit
(** Fill a preallocated [cols]-length buffer with row [i]. *)

val column_mean_std : t -> int -> float * float
(** Per-column mean and standard deviation, summed in ascending row
    order — bit-identical to
    [Descriptive.mean / Descriptive.stddev (Matrix.column m j)] on the
    row-major image of the same matrix. *)

val zscore : t -> t
(** Columnwise (x - mean) / stddev into a fresh matrix; zero-variance
    columns map to 0, like {!Normalize.zscore}. *)

val distance : t -> int -> int -> float

val distances_from_row : t -> float array -> float array
(** [distances_from_row t q] is the Euclidean distance from the
    [cols]-length query point [q] to every row, in row order — the naive
    linear scan the ANN index is differentially checked against. *)
