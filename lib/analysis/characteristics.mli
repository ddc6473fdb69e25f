(** The catalogue of the 47 microarchitecture-independent characteristics
    (Table II of the paper): names, categories and index bookkeeping.

    The vector order is exactly the table's row order, so index [i] here is
    characteristic number [i + 1] in the paper. *)

type category =
  | Instruction_mix
  | Ilp
  | Register_traffic
  | Working_set_size
  | Data_stream_strides
  | Branch_predictability

val count : int
(** 47. *)

val names : string array
(** Full descriptive names, e.g. ["prob. local load stride <= 64"]. *)

val short_names : string array
(** Compact labels for plots and tables, e.g. ["ll_stride<=64"]. *)

val categories : category array

val pp_row : Format.formatter -> int -> unit
(** Pretty-print one Table II row: number, category, name. *)
