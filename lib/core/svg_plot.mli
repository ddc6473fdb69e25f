(** Minimal SVG chart rendering for the regenerated figures.

    Two chart kinds cover the paper's figures: scatter plots (Figure 1)
    and multi-series line charts (Figures 4 and 5).  Output is
    self-contained 640 by 440 SVG with axes, ticks and a legend — no
    external dependencies. *)

type series = {
  label : string;
  points : (float * float) array;
  color : string;  (** CSS color *)
}

val scatter : title:string -> x_label:string -> y_label:string -> series list -> string
(** Dots per series. *)

val lines : title:string -> x_label:string -> y_label:string -> series list -> string
(** Polyline per series (points drawn in the given order). *)

val write : path:string -> string -> unit

val default_colors : string array
(** A small categorical palette, cycled by series index. *)
