type t =
  | BioInfoMark
  | BioMetricsWorkload
  | CommBench
  | MediaBench
  | MiBench
  | SpecCpu2000
  | Generated

(* the Table I suites only: Generated corpus members live outside the
   paper's registry and are enumerated by [Corpus], not here *)
let all = [ BioInfoMark; BioMetricsWorkload; CommBench; MediaBench; MiBench; SpecCpu2000 ]

let name = function
  | BioInfoMark -> "BioInfoMark"
  | BioMetricsWorkload -> "BioMetricsWorkload"
  | CommBench -> "CommBench"
  | MediaBench -> "MediaBench"
  | MiBench -> "MiBench"
  | SpecCpu2000 -> "SPEC2000"
  | Generated -> "gen"

let of_name s =
  let s = String.lowercase_ascii s in
  if s = "gen" || s = "generated" then Some Generated
  else List.find_opt (fun t -> String.lowercase_ascii (name t) = s) all

let pp fmt t = Format.pp_print_string fmt (name t)
