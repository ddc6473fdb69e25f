(** Dense row-major matrices of floats.

    Rows are observations (benchmarks), columns are variables
    (characteristics) throughout the library. *)

type t = float array array

val dims : t -> int * int
val copy : t -> t

val column : t -> int -> float array

val column_mean_std : t -> int -> float * float
(** [(mean, stddev)] of column [j] without materializing it — bit-identical
    to [Descriptive.mean/stddev (column m j)] (empty matrix yields
    [(0., 0.)]). *)

val column_min_max : t -> int -> float * float
(** [(min, max)] of column [j] without materializing it; requires at least
    one row. *)

val select_columns : t -> int array -> t
(** [select_columns m idx] keeps columns [idx] in the given order. *)

val mul : t -> t -> t
(** Matrix product.  Raises [Invalid_argument] on dimension mismatch. *)

val covariance : t -> t
(** Column-covariance matrix (population, divide by n) of an
    observations-by-variables matrix. *)

val correlation_matrix : t -> t
(** Pearson correlation between every pair of columns; unit diagonal.
    Columns with zero variance correlate 0 with everything (and 1 with
    themselves). *)
