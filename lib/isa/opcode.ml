type t =
  | Load
  | Store
  | Branch
  | Jump
  | Call
  | Return
  | Int_alu
  | Int_mul
  | Fp_add
  | Fp_mul
  | Fp_div
  | Nop

let is_load = function Load -> true | _ -> false
let is_store = function Store -> true | _ -> false
let is_mem = function Load | Store -> true | _ -> false
let is_control = function Branch | Jump | Call | Return -> true | _ -> false
let is_cond_branch = function Branch -> true | _ -> false
let is_int_alu = function Int_alu -> true | _ -> false
let is_int_mul = function Int_mul -> true | _ -> false
let is_fp = function Fp_add | Fp_mul | Fp_div -> true | _ -> false

let latency = function
  | Load -> 1 (* address generation; memory latency added by the cache model *)
  | Store -> 1
  | Branch | Jump | Call | Return -> 1
  | Int_alu -> 1
  | Int_mul -> 8
  | Fp_add -> 4
  | Fp_mul -> 4
  | Fp_div -> 18
  | Nop -> 1

let to_string = function
  | Load -> "load"
  | Store -> "store"
  | Branch -> "branch"
  | Jump -> "jump"
  | Call -> "call"
  | Return -> "return"
  | Int_alu -> "int_alu"
  | Int_mul -> "int_mul"
  | Fp_add -> "fp_add"
  | Fp_mul -> "fp_mul"
  | Fp_div -> "fp_div"
  | Nop -> "nop"

let all =
  [ Load; Store; Branch; Jump; Call; Return; Int_alu; Int_mul; Fp_add; Fp_mul; Fp_div; Nop ]

(* Dense integer codes, in declaration order: the struct-of-arrays trace
   chunks store opcodes as ints, and the binary trace format uses the same
   codes on disk. *)

let to_int = function
  | Load -> 0
  | Store -> 1
  | Branch -> 2
  | Jump -> 3
  | Call -> 4
  | Return -> 5
  | Int_alu -> 6
  | Int_mul -> 7
  | Fp_add -> 8
  | Fp_mul -> 9
  | Fp_div -> 10
  | Nop -> 11

let count = 12

let of_int_table = Array.of_list all

let of_int i =
  if i < 0 || i >= count then invalid_arg "Opcode.of_int: code out of range"
  else Array.unsafe_get of_int_table i
