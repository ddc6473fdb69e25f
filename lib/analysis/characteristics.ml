type category =
  | Instruction_mix
  | Ilp
  | Register_traffic
  | Working_set_size
  | Data_stream_strides
  | Branch_predictability

let category_name = function
  | Instruction_mix -> "instruction mix"
  | Ilp -> "ILP"
  | Register_traffic -> "register traffic"
  | Working_set_size -> "working set size"
  | Data_stream_strides -> "data stream strides"
  | Branch_predictability -> "branch predictability"

(* (category, full name, short name), in Table II row order. *)
let table =
  [|
    (Instruction_mix, "percentage loads", "pct_load");
    (Instruction_mix, "percentage stores", "pct_store");
    (Instruction_mix, "percentage control transfers", "pct_ctrl");
    (Instruction_mix, "percentage arithmetic operations", "pct_arith");
    (Instruction_mix, "percentage integer multiplies", "pct_imul");
    (Instruction_mix, "percentage fp operations", "pct_fp");
    (Ilp, "ILP for a 32-entry window", "ilp_32");
    (Ilp, "ILP for a 64-entry window", "ilp_64");
    (Ilp, "ILP for a 128-entry window", "ilp_128");
    (Ilp, "ILP for a 256-entry window", "ilp_256");
    (Register_traffic, "avg. number of input operands", "avg_ops");
    (Register_traffic, "avg. degree of use", "deg_use");
    (Register_traffic, "prob. register dependence = 1", "dep=1");
    (Register_traffic, "prob. register dependence <= 2", "dep<=2");
    (Register_traffic, "prob. register dependence <= 4", "dep<=4");
    (Register_traffic, "prob. register dependence <= 8", "dep<=8");
    (Register_traffic, "prob. register dependence <= 16", "dep<=16");
    (Register_traffic, "prob. register dependence <= 32", "dep<=32");
    (Register_traffic, "prob. register dependence <= 64", "dep<=64");
    (Working_set_size, "D-stream working set at the 32B block level", "ws_d_blk");
    (Working_set_size, "D-stream working set at the 4KB page level", "ws_d_pg");
    (Working_set_size, "I-stream working set at the 32B block level", "ws_i_blk");
    (Working_set_size, "I-stream working set at the 4KB page level", "ws_i_pg");
    (Data_stream_strides, "prob. local load stride = 0", "ll=0");
    (Data_stream_strides, "prob. local load stride <= 8", "ll<=8");
    (Data_stream_strides, "prob. local load stride <= 64", "ll<=64");
    (Data_stream_strides, "prob. local load stride <= 512", "ll<=512");
    (Data_stream_strides, "prob. local load stride <= 4096", "ll<=4096");
    (Data_stream_strides, "prob. global load stride = 0", "gl=0");
    (Data_stream_strides, "prob. global load stride <= 8", "gl<=8");
    (Data_stream_strides, "prob. global load stride <= 64", "gl<=64");
    (Data_stream_strides, "prob. global load stride <= 512", "gl<=512");
    (Data_stream_strides, "prob. global load stride <= 4096", "gl<=4096");
    (Data_stream_strides, "prob. local store stride = 0", "ls=0");
    (Data_stream_strides, "prob. local store stride <= 8", "ls<=8");
    (Data_stream_strides, "prob. local store stride <= 64", "ls<=64");
    (Data_stream_strides, "prob. local store stride <= 512", "ls<=512");
    (Data_stream_strides, "prob. local store stride <= 4096", "ls<=4096");
    (Data_stream_strides, "prob. global store stride = 0", "gs=0");
    (Data_stream_strides, "prob. global store stride <= 8", "gs<=8");
    (Data_stream_strides, "prob. global store stride <= 64", "gs<=64");
    (Data_stream_strides, "prob. global store stride <= 512", "gs<=512");
    (Data_stream_strides, "prob. global store stride <= 4096", "gs<=4096");
    (Branch_predictability, "GAg PPM predictor miss rate", "ppm_GAg");
    (Branch_predictability, "PAg PPM predictor miss rate", "ppm_PAg");
    (Branch_predictability, "GAs PPM predictor miss rate", "ppm_GAs");
    (Branch_predictability, "PAs PPM predictor miss rate", "ppm_PAs");
  |]

let count = Array.length table
let names = Array.map (fun (_, n, _) -> n) table
let short_names = Array.map (fun (_, _, s) -> s) table
let categories = Array.map (fun (c, _, _) -> c) table

let pp_row fmt i =
  Format.fprintf fmt "%2d  %-22s  %s" (i + 1) (category_name categories.(i)) names.(i)
