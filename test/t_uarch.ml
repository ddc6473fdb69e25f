module U = Mica_uarch
module Opcode = Mica_isa.Opcode
module Instr = Mica_isa.Instr

(* ---------------- cache ---------------- *)

let test_cache_geometry () =
  let c = U.Cache.create ~size_bytes:8192 ~line_bytes:32 ~assoc:1 in
  Alcotest.(check int) "line" 32 (U.Cache.line_bytes c);
  let l2 = U.Cache.create ~size_bytes:(96 * 1024) ~line_bytes:64 ~assoc:3 in
  Alcotest.(check int) "21164 L2 ways" 3 (U.Cache.assoc l2)

let test_cache_invalid_geometry () =
  (try
     ignore (U.Cache.create ~size_bytes:1000 ~line_bytes:33 ~assoc:1);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore (U.Cache.create ~size_bytes:64 ~line_bytes:64 ~assoc:2);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_cache_size_not_multiple_rejected () =
  (* 2100 / 64 truncates to 32 sets — a pow2, so this used to be silently
     accepted as an effectively 2048-byte cache; it must be rejected *)
  try
    ignore (U.Cache.create ~size_bytes:2100 ~line_bytes:32 ~assoc:2);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument msg ->
    Alcotest.(check bool) "actionable message" true
      (String.length msg > 0 && String.lowercase_ascii msg |> fun m ->
       String.length m >= 5)

let test_cache_assoc3_lru () =
  (* non-power-of-two associativity is explicitly legal: one 3-way set *)
  let c = U.Cache.create ~size_bytes:192 ~line_bytes:64 ~assoc:3 in
  ignore (U.Cache.access c 0x0);
  ignore (U.Cache.access c 0x1000);
  ignore (U.Cache.access c 0x2000);
  Alcotest.(check bool) "way 0 resident" true (U.Cache.access c 0x0);
  Alcotest.(check bool) "way 1 resident" true (U.Cache.access c 0x1000);
  Alcotest.(check bool) "way 2 resident" true (U.Cache.access c 0x2000);
  (* recency is now 0x0 < 0x1000 < 0x2000; a fourth line evicts 0x0 *)
  ignore (U.Cache.access c 0x3000);
  Alcotest.(check bool) "MRU kept" true (U.Cache.access c 0x2000);
  Alcotest.(check bool) "LRU evicted" false (U.Cache.access c 0x0)

let test_cache_access_range () =
  let c = U.Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:1 in
  (* 8 bytes at 0x3e straddle lines 1 and 2: both must be touched *)
  Alcotest.(check bool) "cold straddle misses" false (U.Cache.access_range c 0x3e ~bytes:8);
  Alcotest.(check int) "two lines accessed" 2 (U.Cache.accesses c);
  Alcotest.(check int) "two lines missed" 2 (U.Cache.misses c);
  Alcotest.(check bool) "warm straddle hits" true (U.Cache.access_range c 0x3e ~bytes:8);
  (* a transfer inside one line is one access *)
  ignore (U.Cache.access_range c 0x100 ~bytes:32);
  Alcotest.(check int) "single line accessed once" 5 (U.Cache.accesses c);
  try
    ignore (U.Cache.access_range c 0x0 ~bytes:0);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let prop_cache_bigger_is_not_worse_on_stream =
  (* cyclic sequential sweeps: growing the cache (same line size and
     associativity) can never increase the miss count *)
  Tutil.qcheck_case ~count:60 "monotone cache size on streaming trace"
    QCheck2.Gen.(tup3 (int_range 10 13) (int_range 1 3) (int_range 4 4096))
    (fun (k, delta, region_lines) ->
      let sweep c =
        for _ = 1 to 3 do
          for i = 0 to region_lines - 1 do
            ignore (U.Cache.access c (i * 32))
          done
        done;
        U.Cache.misses c
      in
      let small = U.Cache.create ~size_bytes:(1 lsl k) ~line_bytes:32 ~assoc:2 in
      let big =
        U.Cache.create ~size_bytes:(1 lsl (k + delta)) ~line_bytes:32 ~assoc:2
      in
      sweep big <= sweep small)

let test_cache_hit_miss () =
  let c = U.Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:1 in
  Alcotest.(check bool) "cold miss" false (U.Cache.access c 0x100);
  Alcotest.(check bool) "hit same line" true (U.Cache.access c 0x110);
  Alcotest.(check bool) "miss next line" false (U.Cache.access c 0x120);
  Alcotest.(check int) "accesses" 3 (U.Cache.accesses c);
  Alcotest.(check int) "misses" 2 (U.Cache.misses c)

let test_cache_direct_mapped_conflict () =
  let c = U.Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:1 in
  (* addresses 1024 apart map to the same set in a 1KB direct-mapped cache *)
  ignore (U.Cache.access c 0x0);
  ignore (U.Cache.access c 0x400);
  Alcotest.(check bool) "conflict evicted" false (U.Cache.access c 0x0)

let test_cache_associativity_absorbs_conflict () =
  let c = U.Cache.create ~size_bytes:2048 ~line_bytes:32 ~assoc:2 in
  ignore (U.Cache.access c 0x0);
  ignore (U.Cache.access c 0x400);
  Alcotest.(check bool) "both ways live" true (U.Cache.access c 0x0);
  Alcotest.(check bool) "second way too" true (U.Cache.access c 0x400)

let test_cache_lru () =
  let c = U.Cache.create ~size_bytes:2048 ~line_bytes:32 ~assoc:2 in
  (* three conflicting lines in a 2-way set: LRU must be evicted *)
  ignore (U.Cache.access c 0x0);
  ignore (U.Cache.access c 0x400);
  ignore (U.Cache.access c 0x0);
  (* touch 0x0 so 0x400 is LRU *)
  ignore (U.Cache.access c 0x800);
  (* evicts 0x400 *)
  Alcotest.(check bool) "MRU survives" true (U.Cache.access c 0x0);
  Alcotest.(check bool) "LRU evicted" false (U.Cache.access c 0x400)

let test_cache_probe_no_side_effect () =
  let c = U.Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:1 in
  Alcotest.(check bool) "probe cold" false (U.Cache.probe c 0x100);
  Alcotest.(check int) "probe not counted" 0 (U.Cache.accesses c);
  ignore (U.Cache.access c 0x100);
  Alcotest.(check bool) "probe warm" true (U.Cache.probe c 0x100)

let prop_cache_miss_rate_bounds =
  Tutil.qcheck_case ~count:50 "miss rate in [0,1]"
    QCheck2.Gen.(list_size (int_range 1 200) (int_bound 100_000))
    (fun addrs ->
      let c = U.Cache.create ~size_bytes:512 ~line_bytes:32 ~assoc:2 in
      List.iter (fun a -> ignore (U.Cache.access c a)) addrs;
      let r = U.Cache.miss_rate c in
      r >= 0.0 && r <= 1.0)

(* ---------------- tlb ---------------- *)

let test_tlb_basic () =
  let t = U.Tlb.create ~entries:2 ~page_bytes:8192 in
  Alcotest.(check bool) "cold" false (U.Tlb.access t 0x0);
  Alcotest.(check bool) "same page" true (U.Tlb.access t 0x1FFF);
  Alcotest.(check bool) "new page" false (U.Tlb.access t 0x2000);
  Alcotest.(check bool) "both resident" true (U.Tlb.access t 0x0)

let test_tlb_lru_eviction () =
  let t = U.Tlb.create ~entries:2 ~page_bytes:8192 in
  ignore (U.Tlb.access t 0x0000);
  ignore (U.Tlb.access t 0x2000);
  ignore (U.Tlb.access t 0x0000);
  (* 0x2000 now LRU *)
  ignore (U.Tlb.access t 0x4000);
  (* evicts 0x2000 *)
  Alcotest.(check bool) "MRU kept" true (U.Tlb.access t 0x0000);
  Alcotest.(check bool) "LRU gone" false (U.Tlb.access t 0x2000)

let test_tlb_invalid () =
  try
    ignore (U.Tlb.create ~entries:0 ~page_bytes:8192);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* -1 is the invalid tag and page: with 1-byte lines or pages address -1
   would map onto it and hit in a cold cache or TLB, so both sizes are
   rejected, and from 2 bytes up -1 misses like any other address. *)
let test_one_byte_blocks_rejected () =
  (try
     ignore (U.Cache.create ~size_bytes:4 ~line_bytes:1 ~assoc:4);
     Alcotest.fail "1-byte cache lines accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (U.Tlb.create ~entries:4 ~page_bytes:1);
     Alcotest.fail "1-byte pages accepted"
   with Invalid_argument _ -> ());
  let c = U.Cache.create ~size_bytes:2 ~line_bytes:2 ~assoc:1 in
  Alcotest.(check bool) "cold cache misses address -1" false (U.Cache.access c (-1));
  Alcotest.(check bool) "then hits it" true (U.Cache.access c (-1));
  let t = U.Tlb.create ~entries:4 ~page_bytes:2 in
  Alcotest.(check bool) "cold tlb misses address -1" false (U.Tlb.access t (-1));
  Alcotest.(check bool) "then hits it" true (U.Tlb.access t (-1))

let test_tlb_access_range () =
  let t = U.Tlb.create ~entries:4 ~page_bytes:4096 in
  (* 4 bytes at 4094 straddle pages 0 and 1: two lookups, two misses *)
  Alcotest.(check bool) "cold straddle misses" false (U.Tlb.access_range t 4094 ~bytes:4);
  Alcotest.(check int) "two pages translated" 2 (U.Tlb.accesses t);
  Alcotest.(check int) "two pages missed" 2 (U.Tlb.misses t);
  Alcotest.(check bool) "both pages resident" true (U.Tlb.access t 4096);
  Alcotest.(check bool) "warm straddle hits" true (U.Tlb.access_range t 4094 ~bytes:4);
  try
    ignore (U.Tlb.access_range t 0 ~bytes:(-1));
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ---------------- reference models ---------------- *)

(* Cache and TLB written the plain way: a scan over every way (entry) for
   the hit, and the first way with the strictly smallest stamp as the LRU
   victim.  The library's cache stops its scan early and answers a repeat
   of the last line without one; its TLB is a hash map and a recency list.
   Driven with the same random streams, both must agree on every call's
   result and on the counters. *)
module Ref_cache = struct
  type t = {
    line_bytes : int;
    n_sets : int;
    assoc : int;
    tags : int array;
    stamps : int array;
    mutable clock : int;
    mutable accesses : int;
    mutable misses : int;
  }

  let create ~size_bytes ~line_bytes ~assoc =
    let n_sets = size_bytes / (line_bytes * assoc) in
    {
      line_bytes;
      n_sets;
      assoc;
      tags = Array.make (n_sets * assoc) (-1);
      stamps = Array.make (n_sets * assoc) 0;
      clock = 0;
      accesses = 0;
      misses = 0;
    }

  let base t addr = addr / t.line_bytes mod t.n_sets * t.assoc
  let tag t addr = addr / t.line_bytes / t.n_sets

  let find t addr =
    let b = base t addr and g = tag t addr in
    let hit = ref (-1) in
    for i = b to b + t.assoc - 1 do
      if t.tags.(i) = g then hit := i
    done;
    !hit

  let fill t addr =
    let b = base t addr in
    let victim = ref b in
    for i = b + 1 to b + t.assoc - 1 do
      if t.stamps.(i) < t.stamps.(!victim) then victim := i
    done;
    t.tags.(!victim) <- tag t addr;
    t.stamps.(!victim) <- t.clock

  let access t addr =
    t.accesses <- t.accesses + 1;
    t.clock <- t.clock + 1;
    let i = find t addr in
    if i >= 0 then t.stamps.(i) <- t.clock
    else begin
      t.misses <- t.misses + 1;
      fill t addr
    end;
    i >= 0

  let access_range t addr ~bytes =
    let first = addr / t.line_bytes and last = (addr + bytes - 1) / t.line_bytes in
    List.fold_left
      (fun all line -> access t (line * t.line_bytes) && all)
      true
      (List.init (last - first + 1) (fun k -> first + k))

  let probe t addr = find t addr >= 0

  let install t addr =
    t.clock <- t.clock + 1;
    let i = find t addr in
    if i >= 0 then t.stamps.(i) <- t.clock else fill t addr
end

module Ref_tlb = struct
  type t = {
    page_bytes : int;
    pages : int array;
    stamps : int array;
    mutable clock : int;
    mutable accesses : int;
    mutable misses : int;
  }

  let create ~entries ~page_bytes =
    {
      page_bytes;
      pages = Array.make entries (-1);
      stamps = Array.make entries 0;
      clock = 0;
      accesses = 0;
      misses = 0;
    }

  let access t addr =
    t.accesses <- t.accesses + 1;
    t.clock <- t.clock + 1;
    let page = addr / t.page_bytes in
    let hit = ref (-1) in
    Array.iteri (fun i p -> if p = page then hit := i) t.pages;
    if !hit >= 0 then t.stamps.(!hit) <- t.clock
    else begin
      t.misses <- t.misses + 1;
      let victim = ref 0 in
      Array.iteri (fun i s -> if s < t.stamps.(!victim) then victim := i) t.stamps;
      t.pages.(!victim) <- page;
      t.stamps.(!victim) <- t.clock
    end;
    !hit >= 0

  let access_range t addr ~bytes =
    let first = addr / t.page_bytes and last = (addr + bytes - 1) / t.page_bytes in
    List.fold_left
      (fun all page -> access t (page * t.page_bytes) && all)
      true
      (List.init (last - first + 1) (fun k -> first + k))
end

type model_op =
  | Access of int
  | Probe of int
  | Install of int
  | Range of int * int
  | Run of int * int  (* [n] accesses inside the line of an address *)
  | Evict of int * int  (* access, [n] installs into its set, access again *)

let show_op = function
  | Access a -> Printf.sprintf "access %d" a
  | Probe a -> Printf.sprintf "probe %d" a
  | Install a -> Printf.sprintf "install %d" a
  | Range (a, b) -> Printf.sprintf "range %d+%d" a b
  | Run (a, n) -> Printf.sprintf "run %d x%d" a n
  | Evict (a, n) -> Printf.sprintf "evict %d x%d" a n

(* Addresses come from a universe a little larger than the structure, so
   streams mix hits, cold misses and LRU evictions.  The cache streams add
   runs inside one line (the repeat of the last line takes no scan) and
   installs into the set of the line just accessed, which may evict it. *)
let gen_op ~block ~universe ~with_probe =
  QCheck2.Gen.(
    let addr = int_bound ((universe * block) - 1) in
    let kinds =
      [
        (6, map (fun a -> Access a) addr);
        (2, map2 (fun a b -> Range (a, b)) addr (int_range 1 (2 * block)));
      ]
    in
    frequency
      (if with_probe then
         kinds
         @ [
             (1, map (fun a -> Probe a) addr);
             (1, map (fun a -> Install a) addr);
             (2, map2 (fun a n -> Run (a, n)) addr (int_range 2 6));
             (2, map2 (fun a n -> Evict (a, n)) addr (int_range 1 3));
           ]
       else kinds))

let gen_cache_case =
  QCheck2.Gen.(
    let* assoc = oneofl [ 1; 2; 3; 4; 32 ]
    and* line_bytes = oneofl [ 16; 32; 64 ]
    and* n_sets = oneofl [ 1; 2; 4; 8 ] in
    let universe = n_sets * (assoc + 2) in
    let* ops = list_size (int_range 1 600) (gen_op ~block:line_bytes ~universe ~with_probe:true) in
    return (assoc, line_bytes, n_sets, ops))

let prop_cache_matches_reference =
  Tutil.qcheck_case ~count:200 "cache = full-scan LRU reference"
    ~print:(fun (assoc, line, sets, ops) ->
      Printf.sprintf "assoc %d line %d sets %d: %s" assoc line sets
        (String.concat "; " (List.map show_op ops)))
    gen_cache_case
    (fun (assoc, line_bytes, n_sets, ops) ->
      let size_bytes = n_sets * line_bytes * assoc in
      let c = U.Cache.create ~size_bytes ~line_bytes ~assoc in
      let r = Ref_cache.create ~size_bytes ~line_bytes ~assoc in
      let same_counts () =
        U.Cache.accesses c = r.Ref_cache.accesses && U.Cache.misses c = r.Ref_cache.misses
      in
      let access a = U.Cache.access c a = Ref_cache.access r a && same_counts () in
      let install a =
        U.Cache.install c a;
        Ref_cache.install r a;
        same_counts ()
      in
      let line_start a = a / line_bytes * line_bytes in
      List.for_all
        (fun op ->
          match op with
          | Access a -> access a
          | Probe a -> U.Cache.probe c a = Ref_cache.probe r a && same_counts ()
          | Install a -> install a
          | Range (a, bytes) ->
            U.Cache.access_range c a ~bytes = Ref_cache.access_range r a ~bytes && same_counts ()
          | Run (a, n) ->
            List.for_all (fun k -> access (line_start a + (k * 7 mod line_bytes))) (List.init n Fun.id)
          | Evict (a, n) ->
            (* other lines of [a]'s set: at assoc [<= n] the installs evict it *)
            let set_span = n_sets * line_bytes in
            access a
            && List.for_all (fun k -> install (a + ((k + 1) * set_span))) (List.init n Fun.id)
            && access a)
        ops
      (* the resident lines match exactly, not just the outcomes so far *)
      && List.for_all
           (fun line -> U.Cache.probe c (line * line_bytes) = Ref_cache.probe r (line * line_bytes))
           (List.init (n_sets * (assoc + 2)) Fun.id))

(* Every TLB size in machines/ (32, 64, 128, 256) and the degenerate ones.
   A page pool of half the entries only hits once warm, and its hits land
   anywhere in the recency order; larger pools evict, and the evicted pages
   come back. *)
let gen_tlb_case =
  QCheck2.Gen.(
    let* entries = oneofl [ 1; 2; 32; 64; 128; 256 ] and* page_bytes = oneofl [ 4096; 8192 ] in
    let* universe = oneofl [ (entries / 2) + 1; entries + (entries / 4) + 2; 2 * entries ] in
    let* ops =
      list_size (int_range 1 (8 * universe)) (gen_op ~block:page_bytes ~universe ~with_probe:false)
    in
    return (entries, page_bytes, ops))

let prop_tlb_matches_reference =
  Tutil.qcheck_case ~count:100 "tlb = full-scan LRU reference"
    ~print:(fun (entries, page, ops) ->
      Printf.sprintf "entries %d page %d: %s" entries page
        (String.concat "; " (List.map show_op ops)))
    gen_tlb_case
    (fun (entries, page_bytes, ops) ->
      let t = U.Tlb.create ~entries ~page_bytes in
      let r = Ref_tlb.create ~entries ~page_bytes in
      List.for_all
        (fun op ->
          (match op with
          | Access a -> U.Tlb.access t a = Ref_tlb.access r a
          | Range (a, bytes) -> U.Tlb.access_range t a ~bytes = Ref_tlb.access_range r a ~bytes
          | Probe _ | Install _ | Run _ | Evict _ -> true)
          && U.Tlb.accesses t = r.Ref_tlb.accesses
          && U.Tlb.misses t = r.Ref_tlb.misses)
        ops)

(* ---------------- branch predictors ---------------- *)

let drive pred outcomes =
  List.iter (fun (pc, taken) -> ignore (U.Branch_pred.predict_update pred ~pc ~taken)) outcomes

let test_bimodal_learns_bias () =
  let p = U.Branch_pred.bimodal ~entries:256 in
  drive p (List.init 1_000 (fun _ -> (0x100, true)));
  Alcotest.(check bool) "constant branch learned" true (U.Branch_pred.miss_rate p < 0.02)

let test_bimodal_cannot_learn_alternation () =
  let p = U.Branch_pred.bimodal ~entries:256 in
  drive p (List.init 1_000 (fun i -> (0x100, i mod 2 = 0)));
  Alcotest.(check bool) "alternation defeats bimodal" true (U.Branch_pred.miss_rate p > 0.4)

let test_local_learns_alternation () =
  let p = U.Branch_pred.local ~entries:256 ~history_bits:8 in
  drive p (List.init 2_000 (fun i -> (0x100, i mod 2 = 0)));
  Alcotest.(check bool) "local history learns alternation" true (U.Branch_pred.miss_rate p < 0.1)

let test_gshare_learns_global_pattern () =
  let p = U.Branch_pred.gshare ~entries:1024 ~history_bits:8 in
  drive p (List.init 4_000 (fun i -> (0x100, i mod 4 < 2)));
  Alcotest.(check bool) "gshare learns period-4 pattern" true (U.Branch_pred.miss_rate p < 0.1)

let test_tournament_tracks_best () =
  (* alternating pattern: local component wins, tournament should approach it *)
  let t = U.Branch_pred.tournament ~entries:1024 ~history_bits:8 in
  drive t (List.init 4_000 (fun i -> (0x100, i mod 2 = 0)));
  Alcotest.(check bool) "tournament learns via best component" true
    (U.Branch_pred.miss_rate t < 0.15)

let test_predictor_counts () =
  let p = U.Branch_pred.bimodal ~entries:64 in
  drive p [ (0x4, true); (0x4, true) ];
  Alcotest.(check int) "predictions counted" 2 (U.Branch_pred.predictions p)

(* ---------------- timing models ---------------- *)

let run_model sink instrs = Mica_trace.Sink.feed_list sink instrs

let straight_line_trace n =
  List.init n (fun i -> Tutil.alu ~pc:(0x1000 + (4 * (i mod 64))) ~dst:(i mod 8) ())

(* The paper's two machines ({!U.Hw_counters.ev56}, in-order, and
   {!U.Hw_counters.ev67}, out-of-order), each fed a hand-built trace. *)
let run_machine cfg instrs =
  let m = U.Machine.create cfg in
  run_model (U.Machine.sink m) instrs;
  m

let ipc cfg instrs = (U.Machine.result (run_machine cfg instrs)).U.Machine.ipc

let test_inorder_ipc_bounds () =
  let m = run_machine (U.Hw_counters.ev56 ()) (straight_line_trace 10_000) in
  let r = U.Machine.result m in
  Alcotest.(check int) "instruction count" 10_000 (U.Machine.instructions m);
  Alcotest.(check bool) "IPC within issue width" true
    (r.U.Machine.ipc > 0.0 && r.U.Machine.ipc <= 2.0);
  (* cache-resident ALU code should run near full width *)
  Alcotest.(check bool) "near peak on easy code" true (r.U.Machine.ipc > 1.8)

let test_inorder_misses_hurt () =
  let e = ipc (U.Hw_counters.ev56 ()) (straight_line_trace 5_000) in
  (* loads striding far apart: every access misses *)
  let h =
    ipc (U.Hw_counters.ev56 ())
      (List.init 5_000 (fun i -> Tutil.load ~pc:0x1000 ~dst:1 ~addr:(i * 8192) ()))
  in
  Alcotest.(check bool) "misses lower IPC" true (h < e /. 4.0)

let test_inorder_counter_rates () =
  let r =
    U.Machine.result
      (run_machine (U.Hw_counters.ev56 ())
         (List.init 1_000 (fun i -> Tutil.load ~pc:0x1000 ~dst:1 ~addr:(i * 65536) ())))
  in
  Alcotest.(check bool) "thrashing L1D" true (r.U.Machine.l1d_miss_rate > 0.9);
  Alcotest.(check bool) "thrashing DTLB" true (r.U.Machine.dtlb_miss_rate > 0.9);
  Alcotest.(check bool) "I-stream resident" true (r.U.Machine.l1i_miss_rate < 0.05)

let test_ooo_ipc_bounds () =
  let r = ipc (U.Hw_counters.ev67 ()) (straight_line_trace 10_000) in
  Alcotest.(check bool) "IPC within width" true (r > 0.0 && r <= 4.0);
  Alcotest.(check bool) "wide on independent code" true (r > 3.0)

let test_ooo_beats_inorder_on_ilp () =
  let trace = straight_line_trace 10_000 in
  Alcotest.(check bool) "4-wide OOO > 2-wide in-order" true
    (ipc (U.Hw_counters.ev67 ()) trace > ipc (U.Hw_counters.ev56 ()) trace)

let test_ooo_serial_dependency_limits () =
  let r =
    ipc (U.Hw_counters.ev67 ())
      (List.init 10_000 (fun i -> Tutil.alu ~pc:(0x1000 + (4 * (i mod 64))) ~src1:1 ~dst:1 ()))
  in
  Alcotest.(check bool) "serial chain caps IPC near 1" true (r < 1.2)

let test_ooo_mispredicts_hurt () =
  let rng = Mica_util.Rng.create ~seed:5L in
  let random_branches =
    List.init 10_000 (fun i ->
        if i mod 4 = 0 then Tutil.branch ~pc:0x1000 ~taken:(Mica_util.Rng.bool rng) ~target:0x2000 ()
        else Tutil.alu ~pc:(0x1004 + (4 * (i mod 16))) ())
  in
  let r = U.Machine.result (run_machine (U.Hw_counters.ev67 ()) random_branches) in
  Alcotest.(check bool) "random branches mispredict" true
    (r.U.Machine.branch_mispredict_rate > 0.3);
  Alcotest.(check bool) "mispredicts throttle IPC" true (r.U.Machine.ipc < 2.5)

(* ---------------- hw counters ---------------- *)

let test_hw_counters_shape () =
  let p = Tutil.tiny_program "hw-shape" in
  let r = U.Hw_counters.measure p ~icount:10_000 in
  let v = U.Hw_counters.to_vector r in
  Alcotest.(check int) "7 metrics" U.Hw_counters.count (Array.length v);
  Array.iteri
    (fun i x -> if Float.is_nan x then Alcotest.failf "counter %d is NaN" i)
    v;
  Alcotest.(check bool) "rates in [0,1]" true
    (List.for_all
       (fun x -> x >= 0.0 && x <= 1.0)
       [
         r.U.Hw_counters.branch_mispredict_rate;
         r.U.Hw_counters.l1d_miss_rate;
         r.U.Hw_counters.l1i_miss_rate;
         r.U.Hw_counters.l2_miss_rate;
         r.U.Hw_counters.dtlb_miss_rate;
       ])

let test_hw_counters_deterministic () =
  let p = Tutil.tiny_program "hw-det" in
  let a = U.Hw_counters.to_vector (U.Hw_counters.measure p ~icount:10_000) in
  let b = U.Hw_counters.to_vector (U.Hw_counters.measure p ~icount:10_000) in
  Alcotest.(check bool) "deterministic" true (a = b)

(* The paper's two machines are compiled-in descriptions: the EV56 is the
   first preset, the EV67 the fleet's ev67 with five latencies changed. *)
let test_hw_counters_machines () =
  Alcotest.(check bool) "EV56 is the first preset" true
    (U.Hw_counters.ev56 () = List.hd (U.Machine_desc.presets ()));
  Alcotest.(check bool) "EV67 is the ev67 preset with l1i 3, l1d 3, l2 10, memory 87, DTLB 0"
    true
    ({ (Tutil.preset "ev67") with
       U.Machine.l1i_latency = 3; l1_latency = 3; l2_latency = 10; mem_latency = 87;
       dtlb_penalty = 0 }
    = U.Hw_counters.ev67 ())

(* ---------------- configurable machines ---------------- *)

let test_machine_presets_run () =
  let p = Tutil.tiny_program "machine-presets" in
  List.iter
    (fun cfg ->
      let r = U.Machine.measure cfg p ~icount:5_000 in
      let v = U.Machine.to_vector r in
      Alcotest.(check int) "6 metrics" 6 (Array.length v);
      Array.iter (fun x -> if Float.is_nan x then Alcotest.fail "NaN metric") v;
      if r.U.Machine.ipc <= 0.0 then Alcotest.failf "%s ipc <= 0" cfg.U.Machine.name)
    (U.Machine_desc.presets ())

let test_machine_ipc_respects_width () =
  let p = Tutil.tiny_program "machine-width" in
  List.iter
    (fun cfg ->
      let r = U.Machine.measure cfg p ~icount:5_000 in
      let peak =
        match cfg.U.Machine.core with
        | U.Machine.In_order { issue_width } -> float_of_int issue_width
        | U.Machine.Out_of_order { width; _ } -> float_of_int width
      in
      if r.U.Machine.ipc > peak +. 1e-9 then
        Alcotest.failf "%s ipc %.2f exceeds width %.0f" cfg.U.Machine.name r.U.Machine.ipc peak)
    (U.Machine_desc.presets ())

let test_machine_matches_canonical_models () =
  (* Hw_counters' seven counters are its two machines' own results to the
     bit, over every fourth registry workload *)
  List.iteri
    (fun i (w : Mica_workloads.Workload.t) ->
      if i mod 4 = 0 then begin
        let p = w.Mica_workloads.Workload.model in
        let hw = U.Hw_counters.to_vector (U.Hw_counters.measure p ~icount:20_000) in
        let alone =
          Array.append
            (U.Machine.to_vector (U.Machine.measure (U.Hw_counters.ev56 ()) p ~icount:20_000))
            [| (U.Machine.measure (U.Hw_counters.ev67 ()) p ~icount:20_000).U.Machine.ipc |]
        in
        Array.iteri
          (fun k x ->
            if Int64.bits_of_float x <> Int64.bits_of_float alone.(k) then
              Alcotest.failf "%s %s: Hw_counters %.17g <> Machine %.17g"
                (Mica_workloads.Workload.id w) U.Hw_counters.short_names.(k) x alone.(k))
          hw
      end)
    Mica_workloads.Registry.all

let test_machine_measure_all_isolated () =
  (* fanned-out machines give the same result as individual runs *)
  let p = Tutil.tiny_program "machine-fanout" in
  let embedded = Tutil.preset "embedded" in
  let together = U.Machine.measure_all [ U.Hw_counters.ev56 (); embedded ] p ~icount:5_000 in
  let alone =
    [ U.Machine.measure (U.Hw_counters.ev56 ()) p ~icount:5_000;
      U.Machine.measure embedded p ~icount:5_000 ]
  in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "identical results" true
        (U.Machine.to_vector a = U.Machine.to_vector b))
    together alone

let test_machine_bigger_cache_fewer_misses () =
  let w = Mica_workloads.Registry.find_exn "SPEC2000/gcc/166" in
  let small = U.Machine.measure (U.Hw_counters.ev56 ()) w.Mica_workloads.Workload.model ~icount:30_000 in
  let big = U.Machine.measure (Tutil.preset "wide") w.Mica_workloads.Workload.model ~icount:30_000 in
  Alcotest.(check bool) "64KB L1D misses less than 8KB" true
    (big.U.Machine.l1d_miss_rate < small.U.Machine.l1d_miss_rate)


let test_machine_prefetch_helps_streaming () =
  (* sequential sweep: next-line prefetching halves (or better) the L1D
     miss rate; on pointer-style random access it must not help *)
  let stream = List.init 4_000 (fun i -> Tutil.load ~pc:0x1000 ~dst:1 ~addr:(0x100000 + (i * 8)) ()) in
  let base = { (U.Hw_counters.ev56 ()) with U.Machine.name = "nopf" } in
  let pf = { base with U.Machine.name = "pf"; prefetch_next_line = true } in
  let run cfg trace =
    let t = U.Machine.create cfg in
    Mica_trace.Sink.feed_list (U.Machine.sink t) trace;
    (U.Machine.result t).U.Machine.l1d_miss_rate
  in
  let no_pf = run base stream and with_pf = run pf stream in
  Alcotest.(check bool) "prefetch cuts streaming misses" true (with_pf < no_pf /. 1.8);
  let rng = Mica_util.Rng.create ~seed:3L in
  let random =
    List.init 4_000 (fun _ ->
        Tutil.load ~pc:0x1000 ~dst:1 ~addr:(0x100000 + (Mica_util.Rng.int rng 65536 * 64)) ())
  in
  let no_pf_r = run base random and with_pf_r = run pf random in
  Alcotest.(check bool) "prefetch useless on random access" true
    (with_pf_r > no_pf_r -. 0.05)

(* ---------------- allocation budget ---------------- *)

(* Minor words per instruction of the per-instruction models, net of a
   null-sink generator pass over the same trace.  Minor-word counts repeat
   exactly at one domain, so the budget cannot flake; what is left is
   per-run setup (model state, result records). *)
let test_allocation_budget () =
  let icount = 20_000 in
  Mica_obs.Obs.set_enabled false;
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  List.iter
    (fun id ->
      let p = (Mica_workloads.Registry.find_exn id).Mica_workloads.Workload.model in
      let null_sink = Mica_trace.Sink.make ~name:"null" (fun _ -> ()) in
      let gen = words (fun () -> ignore (Mica_trace.Generator.run p ~icount ~sink:null_sink : int)) in
      List.iter
        (fun (name, f) ->
          let per_instr = (words f -. gen) /. float_of_int icount in
          if per_instr >= 0.5 then
            Alcotest.failf "%s on %s: %.3f minor words/instr (budget 0.5)" name id per_instr)
        [
          ("Hw_counters.measure", fun () -> ignore (U.Hw_counters.measure p ~icount : U.Hw_counters.result));
          ( "Machine.measure_all presets",
            fun () -> ignore (U.Machine.measure_all (U.Machine_desc.presets ()) p ~icount : U.Machine.result list) );
          ("Analyzer.analyze", fun () -> ignore (Mica_analysis.Analyzer.analyze p ~icount : float array));
        ])
    [ "SPEC2000/mcf/ref"; "SPEC2000/swim/ref"; "MiBench/sha/large" ]

(* ---------------- golden preset vectors ---------------- *)

(* The full 6-metric vector of every preset on a pinned trace, bit-exact.
   These lock the timing models down hard: any change to cache, TLB,
   predictor, issue or latency handling that shifts a single ULP anywhere
   shows up here.  Regenerate only for a deliberate model change. *)
let preset_goldens =
  [
    ( "ev56",
      [| 0.36746467745787936; 0.17249796582587471; 0.22902150863374734;
         0.0010499999999999999; 0.38878016960208739; 0.0012117540139351712 |] );
    ( "ev67",
      [| 0.82781456953642385; 0.17982099267697316; 0.088609512269009386;
         0.00055000000000000003; 1.; 0.0012117540139351712 |] );
    ( "embedded",
      [| 0.1599756836960782; 0.17249796582587471; 0.1937291729778855;
         0.0010499999999999999; 0.93769230769230771; 0.0022720387761284459 |] );
    ( "wide",
      [| 1.1934598400763814; 0.18104149715215623; 0.046652529536504089;
         0.00055000000000000003; 1.; 0.0012117540139351712 |] );
  ]

let test_preset_golden_vectors () =
  let p = Tutil.tiny_program "preset-golden" in
  List.iter2
    (fun (cfg : U.Machine.config) (name, expect) ->
      Alcotest.(check string) "preset order" name cfg.U.Machine.name;
      let v = U.Machine.to_vector (U.Machine.measure cfg p ~icount:20_000) in
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x <> Int64.bits_of_float expect.(i) then
            Alcotest.failf "%s %s: %.17g <> golden %.17g" name
              U.Machine.metric_names.(i) x expect.(i))
        v)
    (U.Machine_desc.presets ()) preset_goldens

(* ---------------- machine properties over random kernels ---------------- *)

let gen_machine_kernel =
  QCheck2.Gen.(
    let* load = float_range 0.0 0.4
    and* store = float_range 0.0 0.2
    and* brf = float_range 0.0 0.2
    and* int_mul = float_range 0.0 0.1
    and* fp = float_range 0.0 0.2
    and* data_kb = int_range 1 256
    and* stride = oneofl [ 4; 8; 16; 64 ]
    and* trip = int_range 1 64
    and* which = int_range 0 3 in
    let sum = load +. store +. brf +. int_mul +. fp in
    let scale = if sum > 0.9 then 0.9 /. sum else 1.0 in
    let spec =
      {
        Mica_trace.Kernel.default with
        Mica_trace.Kernel.name = "qcheck-machine";
        mix =
          {
            Mica_trace.Kernel.load = load *. scale;
            store = store *. scale;
            branch = brf *. scale;
            int_mul = int_mul *. scale;
            fp = fp *. scale;
          };
        data_bytes = data_kb * 1024;
        trip_count = trip;
        load_patterns = [ (1.0, Mica_trace.Kernel.Seq { stride }) ];
        store_patterns = [ (1.0, Mica_trace.Kernel.Seq { stride }) ];
      }
    in
    return (spec, which))

let prop_machine_rates_bounded =
  Tutil.qcheck_case ~count:30 "machine rates in [0,1], ipc within width"
    gen_machine_kernel
    (fun (spec, which) ->
      (match Mica_trace.Kernel.validate spec with
      | Ok () -> ()
      | Error m -> QCheck2.Test.fail_reportf "generated kernel invalid: %s" m);
      let cfg = List.nth (U.Machine_desc.presets ()) which in
      let p = Mica_trace.Program.single ~name:"qcheck-machine" spec in
      let r = U.Machine.measure cfg p ~icount:3_000 in
      let v = U.Machine.to_vector r in
      let width =
        match cfg.U.Machine.core with
        | U.Machine.In_order { issue_width } -> float_of_int issue_width
        | U.Machine.Out_of_order { width; _ } -> float_of_int width
      in
      let rates = List.tl (Array.to_list v) in
      r.U.Machine.ipc > 0.0
      && r.U.Machine.ipc <= width +. 1e-9
      && List.for_all (fun x -> x >= 0.0 && x <= 1.0) rates)

let suite =
  ( "uarch",
    [
      Alcotest.test_case "hw counters machines" `Quick test_hw_counters_machines;
      Alcotest.test_case "machine presets run" `Quick test_machine_presets_run;
      Alcotest.test_case "machine ipc within width" `Quick test_machine_ipc_respects_width;
      Alcotest.test_case "machine matches canonical" `Quick test_machine_matches_canonical_models;
      Alcotest.test_case "machine fanout isolated" `Quick test_machine_measure_all_isolated;
      Alcotest.test_case "machine cache scaling" `Quick test_machine_bigger_cache_fewer_misses;
      Alcotest.test_case "machine prefetcher" `Quick test_machine_prefetch_helps_streaming;
      Alcotest.test_case "preset golden vectors" `Quick test_preset_golden_vectors;
      Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
      prop_machine_rates_bounded;
      Alcotest.test_case "cache geometry" `Quick test_cache_geometry;
      Alcotest.test_case "cache invalid geometry" `Quick test_cache_invalid_geometry;
      Alcotest.test_case "cache size not multiple rejected" `Quick
        test_cache_size_not_multiple_rejected;
      Alcotest.test_case "cache 3-way LRU" `Quick test_cache_assoc3_lru;
      Alcotest.test_case "cache access range" `Quick test_cache_access_range;
      prop_cache_bigger_is_not_worse_on_stream;
      Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
      Alcotest.test_case "cache direct-mapped conflict" `Quick test_cache_direct_mapped_conflict;
      Alcotest.test_case "cache associativity" `Quick test_cache_associativity_absorbs_conflict;
      Alcotest.test_case "cache LRU" `Quick test_cache_lru;
      Alcotest.test_case "cache probe" `Quick test_cache_probe_no_side_effect;
      prop_cache_miss_rate_bounds;
      Alcotest.test_case "tlb basics" `Quick test_tlb_basic;
      Alcotest.test_case "1-byte lines and pages rejected" `Quick test_one_byte_blocks_rejected;
      Alcotest.test_case "tlb LRU" `Quick test_tlb_lru_eviction;
      Alcotest.test_case "tlb invalid" `Quick test_tlb_invalid;
      Alcotest.test_case "tlb access range" `Quick test_tlb_access_range;
      prop_cache_matches_reference;
      prop_tlb_matches_reference;
      Alcotest.test_case "bimodal learns bias" `Quick test_bimodal_learns_bias;
      Alcotest.test_case "bimodal vs alternation" `Quick test_bimodal_cannot_learn_alternation;
      Alcotest.test_case "local learns alternation" `Quick test_local_learns_alternation;
      Alcotest.test_case "gshare learns pattern" `Quick test_gshare_learns_global_pattern;
      Alcotest.test_case "tournament" `Quick test_tournament_tracks_best;
      Alcotest.test_case "predictor counts" `Quick test_predictor_counts;
      Alcotest.test_case "inorder IPC bounds" `Quick test_inorder_ipc_bounds;
      Alcotest.test_case "inorder misses hurt" `Quick test_inorder_misses_hurt;
      Alcotest.test_case "inorder counter rates" `Quick test_inorder_counter_rates;
      Alcotest.test_case "ooo IPC bounds" `Quick test_ooo_ipc_bounds;
      Alcotest.test_case "ooo beats inorder" `Quick test_ooo_beats_inorder_on_ilp;
      Alcotest.test_case "ooo serial limit" `Quick test_ooo_serial_dependency_limits;
      Alcotest.test_case "ooo mispredicts hurt" `Quick test_ooo_mispredicts_hurt;
      Alcotest.test_case "hw counters shape" `Quick test_hw_counters_shape;
      Alcotest.test_case "hw counters deterministic" `Quick test_hw_counters_deterministic;
    ] )
