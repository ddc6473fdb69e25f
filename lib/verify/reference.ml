module Instr = Mica_isa.Instr
module Opcode = Mica_isa.Opcode
module Reg = Mica_isa.Reg

let fdiv num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* ---------------- instruction mix: direct counting ---------------- *)

let mix instrs =
  let count pred = List.length (List.filter (fun (i : Instr.t) -> pred i.op) instrs) in
  let total = max 1 (List.length instrs) in
  [|
    fdiv (count Opcode.is_load) total;
    fdiv (count Opcode.is_store) total;
    fdiv (count Opcode.is_control) total;
    fdiv (count Opcode.is_int_alu) total;
    fdiv (count Opcode.is_int_mul) total;
    fdiv (count Opcode.is_fp) total;
  |]

(* ---------------- ILP: exhaustive window scheduling ---------------- *)

(* Issue cycles are recomputed from scratch per instruction: scan backwards
   for the latest producer of each source register, apply the window
   constraint against the instruction [window] positions earlier, complete
   one cycle after issue.  No register scoreboard, no ring. *)
let ilp_one ~window instrs =
  let arr = Array.of_list instrs in
  let n = Array.length arr in
  let completions = Array.make n 0 in
  let producer_completion i r =
    if not (Reg.carries_dependency r) then 0
    else begin
      let found = ref 0 in
      for j = i - 1 downto 0 do
        if !found = 0 && arr.(j).Instr.dst = r then found := completions.(j)
      done;
      !found
    end
  in
  let last = ref 0 in
  for i = 0 to n - 1 do
    let deps = max (producer_completion i arr.(i).Instr.src1) (producer_completion i arr.(i).Instr.src2) in
    let window_free = if i >= window then completions.(i - window) else 0 in
    let completion = max deps window_free + 1 in
    completions.(i) <- completion;
    if completion > !last then last := completion
  done;
  if !last = 0 then 0.0 else float_of_int n /. float_of_int !last

let ilp ?(windows = Mica_analysis.Ilp.default_windows) instrs =
  Array.map (fun w -> ilp_one ~window:w instrs) windows

(* ---------------- register traffic: list scans ---------------- *)

let regtraffic instrs =
  let arr = Array.of_list instrs in
  let n = Array.length arr in
  (* 1-based positions, matching the production analyzer's indexing *)
  let sources i = List.filter (fun r -> not (Reg.is_none r)) [ arr.(i).Instr.src1; arr.(i).Instr.src2 ] in
  let operands = ref 0 in
  for i = 0 to n - 1 do
    operands := !operands + List.length (sources i)
  done;
  (* per-register event lists: reads and writes at 1-based positions,
     duplicated when both operands name the same register *)
  let reads r =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      List.iter (fun s -> if s = r then acc := (i + 1) :: !acc) (sources i)
    done;
    !acc
  in
  let writes r =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if arr.(i).Instr.dst = r then acc := (i + 1) :: !acc
    done;
    !acc
  in
  let instances = ref 0 and total_uses = ref 0 in
  let distances = ref [] in
  for r = 0 to Reg.count - 1 do
    if Reg.carries_dependency r then begin
      let ws = writes r and rs = reads r in
      instances := !instances + List.length ws;
      (* degree of use: reads land in the half-open interval after the write
         that produced the value; a read at the overwriting instruction still
         sees the old value (reads precede the write within an instruction) *)
      let rec intervals = function
        | [] -> ()
        | w :: rest ->
          let upper = match rest with w' :: _ -> w' | [] -> n + 1 in
          total_uses :=
            !total_uses + List.length (List.filter (fun p -> p > w && p <= upper) rs);
          intervals rest
      in
      intervals ws;
      (* dependency distance: read position minus the latest strictly-earlier
         write position, when one exists *)
      List.iter
        (fun p ->
          match List.filter (fun w -> w < p) ws with
          | [] -> ()
          | earlier -> distances := (p - List.fold_left max 0 earlier) :: !distances)
        rs
    end
  done;
  let distances = !distances in
  let dep_total = max 1 (List.length distances) in
  let cdf =
    Array.map
      (fun cutoff -> fdiv (List.length (List.filter (fun d -> d <= cutoff) distances)) dep_total)
      Mica_analysis.Regtraffic.dep_cutoffs
  in
  Array.append
    [| fdiv !operands (max 1 n); fdiv !total_uses (max 1 !instances) |]
    cdf

(* ---------------- working sets: sorted address sets ---------------- *)

let working_set instrs =
  let uniques xs = List.length (List.sort_uniq compare xs) in
  let mem = List.filter (fun (i : Instr.t) -> Opcode.is_mem i.op) instrs in
  [|
    float_of_int (uniques (List.map (fun (i : Instr.t) -> i.addr lsr 5) mem));
    float_of_int (uniques (List.map (fun (i : Instr.t) -> i.addr lsr 12) mem));
    float_of_int (uniques (List.map (fun (i : Instr.t) -> i.pc lsr 5) instrs));
    float_of_int (uniques (List.map (fun (i : Instr.t) -> i.pc lsr 12) instrs));
  |]

(* ---------------- strides: per-stream stride lists ---------------- *)

let strides instrs =
  let global kind =
    let addrs =
      List.filter_map
        (fun (i : Instr.t) -> if i.op = kind then Some i.addr else None)
        instrs
    in
    let rec diffs = function
      | a :: (b :: _ as rest) -> (b - a) :: diffs rest
      | [ _ ] | [] -> []
    in
    diffs addrs
  in
  (* the local table is shared across loads and stores, like the production
     analyzer's: strides are keyed by static instruction, not by kind *)
  let local kind =
    let last = Hashtbl.create 64 in
    let acc = ref [] in
    List.iter
      (fun (i : Instr.t) ->
        if Opcode.is_mem i.op then begin
          (match Hashtbl.find_opt last i.pc with
          | Some prev when i.op = kind -> acc := (i.addr - prev) :: !acc
          | Some _ | None -> ());
          Hashtbl.replace last i.pc i.addr
        end)
      instrs;
    List.rev !acc
  in
  let cdf strides =
    let total = max 1 (List.length strides) in
    Array.map
      (fun cutoff -> fdiv (List.length (List.filter (fun s -> abs s <= cutoff) strides)) total)
      Mica_analysis.Strides.cutoffs
  in
  Array.concat
    [
      cdf (local Opcode.Load);
      cdf (global Opcode.Load);
      cdf (local Opcode.Store);
      cdf (global Opcode.Store);
    ]

(* ---------------- PPM: plain structurally-keyed hashtables ---------------- *)

(* Histories are boolean lists (most recent outcome first), padded with
   not-taken below their length like the production analyzer's zero-filled
   history registers; contexts are keyed structurally by
   (table id, context length, outcome prefix), so there is no packed-integer
   key to collide. *)
let ppm ?(order = 8) instrs =
  let history_depth = 16 in
  let prefix hist k =
    let rec take h k = if k = 0 then [] else match h with
      | [] -> false :: take [] (k - 1)
      | b :: rest -> b :: take rest (k - 1)
    in
    take hist k
  in
  let run ~local ~per_address =
    let table : (int * int * bool list, int ref * int ref) Hashtbl.t = Hashtbl.create 4096 in
    let local_hist : (int, bool list) Hashtbl.t = Hashtbl.create 256 in
    let ghist = ref [] in
    let misses = ref 0 and branches = ref 0 in
    List.iter
      (fun (i : Instr.t) ->
        if Opcode.is_cond_branch i.op then begin
          incr branches;
          let pc_part = if per_address then i.pc else 0 in
          let hist =
            if local then match Hashtbl.find_opt local_hist i.pc with Some h -> h | None -> []
            else !ghist
          in
          let rec predict k =
            if k < 0 then true
            else
              match Hashtbl.find_opt table (pc_part, k, prefix hist k) with
              | Some (t, nt) when !t + !nt > 0 -> !t >= !nt
              | Some _ | None -> predict (k - 1)
          in
          if predict order <> i.taken then incr misses;
          for k = 0 to order do
            let key = (pc_part, k, prefix hist k) in
            let t, nt =
              match Hashtbl.find_opt table key with
              | Some c -> c
              | None ->
                let c = (ref 0, ref 0) in
                Hashtbl.add table key c;
                c
            in
            if i.taken then incr t else incr nt
          done;
          let push h = prefix (i.taken :: h) history_depth in
          Hashtbl.replace local_hist i.pc
            (push (match Hashtbl.find_opt local_hist i.pc with Some h -> h | None -> []));
          ghist := push !ghist
        end)
      instrs;
    fdiv !misses !branches
  in
  [|
    run ~local:false ~per_address:false;  (* GAg *)
    run ~local:true ~per_address:false;  (* PAg *)
    run ~local:false ~per_address:true;  (* GAs *)
    run ~local:true ~per_address:true;  (* PAs *)
  |]

(* ---------------- assembly and comparison ---------------- *)

let vector ?ppm_order instrs =
  let v =
    Array.concat
      [ mix instrs; ilp instrs; regtraffic instrs; working_set instrs; strides instrs;
        ppm ?order:ppm_order instrs ]
  in
  assert (Array.length v = Mica_analysis.Characteristics.count);
  v

type mismatch = { index : int; name : string; got : float; oracle : float; tolerance : float }

let pp_mismatch fmt m =
  Format.fprintf fmt "characteristic %d (%s): analyzer %.12g, oracle %.12g (tolerance %g)"
    (m.index + 1) m.name m.got m.oracle m.tolerance

(* The tolerances [compare_vectors] documents: 1e-9 for ILP and register
   traffic (characteristics 7-19), 1e-12 for the rest. *)
let tolerances =
  Array.init Mica_analysis.Characteristics.count (fun i ->
      if (i >= 6 && i < 10) || (i >= 10 && i < 19) then 1e-9 else 1e-12)

let compare_vectors ~got ~oracle =
  if Array.length got <> Array.length oracle then
    invalid_arg "Reference.compare_vectors: length mismatch";
  let out = ref [] in
  for i = Array.length got - 1 downto 0 do
    let tol = tolerances.(i) in
    let agree =
      (not (Float.is_nan got.(i)))
      && (not (Float.is_nan oracle.(i)))
      && Float.abs (got.(i) -. oracle.(i)) <= tol +. (tol *. Float.abs oracle.(i))
    in
    if not agree then
      out :=
        {
          index = i;
          name = Mica_analysis.Characteristics.short_names.(i);
          got = got.(i);
          oracle = oracle.(i);
          tolerance = tol;
        }
        :: !out
  done;
  !out

let check ?ppm_order program ~icount =
  let collector, read = Mica_trace.Sink.collect ~limit:icount () in
  let (_ : int) = Mica_trace.Generator.run program ~icount ~sink:collector in
  let instrs = read () in
  let analyzer = Mica_analysis.Analyzer.create ?ppm_order () in
  let sink = Mica_analysis.Analyzer.sink analyzer in
  Mica_trace.Sink.feed_list sink instrs;
  compare_vectors ~got:(Mica_analysis.Analyzer.vector analyzer) ~oracle:(vector ?ppm_order instrs)
