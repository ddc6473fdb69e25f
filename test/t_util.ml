module Ring = Mica_util.Ring
module Csv = Mica_util.Csv

(* ---------------- Ring ---------------- *)

let test_ring_basic () =
  let r = Ring.create ~capacity:3 in
  Alcotest.(check int) "empty length" 0 (Ring.length r);
  Alcotest.(check bool) "not full" false (Ring.is_full r);
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check int) "length 2" 2 (Ring.length r);
  Alcotest.(check int) "newest" 2 (Ring.get r 0);
  Alcotest.(check int) "older" 1 (Ring.get r 1);
  Alcotest.(check int) "oldest" 1 (Ring.oldest r)

let test_ring_eviction () =
  let r = Ring.create ~capacity:3 in
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "full" true (Ring.is_full r);
  Alcotest.(check int) "newest is 5" 5 (Ring.get r 0);
  Alcotest.(check int) "oldest is 3" 3 (Ring.oldest r);
  let collected = ref [] in
  Ring.iter r (fun x -> collected := x :: !collected);
  Alcotest.(check (list int)) "iter newest->oldest" [ 3; 4; 5 ] !collected

let test_ring_clear () =
  let r = Ring.create ~capacity:2 in
  Ring.push r 9;
  Ring.clear r;
  Alcotest.(check int) "cleared" 0 (Ring.length r)

let prop_ring_model =
  Tutil.qcheck_case "ring matches list model"
    QCheck2.Gen.(pair (int_range 1 16) (list (int_bound 1000)))
    (fun (cap, xs) ->
      let r = Ring.create ~capacity:cap in
      List.iter (Ring.push r) xs;
      let expected =
        let rec last_n n l = if List.length l <= n then l else last_n n (List.tl l) in
        List.rev (last_n cap xs)
      in
      let actual = List.init (Ring.length r) (Ring.get r) in
      actual = expected)

(* Interleaved-operation model check: push/clear/get/oldest in random
   order against a plain list model ([prop_ring_model] above is push-only,
   so wrap-around after a mid-stream clear is never exercised there). *)
let prop_ring_interleaved_model =
  let op_gen =
    QCheck2.Gen.(
      frequency
        [ (6, map (fun x -> `Push x) (int_bound 1000)); (1, pure `Clear); (2, pure `Probe) ])
  in
  Tutil.qcheck_case "ring matches model under interleaved ops"
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 0 60) op_gen))
    (fun (cap, ops) ->
      let r = Ring.create ~capacity:cap in
      let model = ref [] in
      (* model: newest-first list, trimmed to capacity *)
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Push x ->
            Ring.push r x;
            model := x :: !model;
            if List.length !model > cap then
              model := List.filteri (fun i _ -> i < cap) !model
          | `Clear ->
            Ring.clear r;
            model := []
          | `Probe ->
            let n = List.length !model in
            if Ring.length r <> n then ok := false;
            if Ring.is_full r <> (n = cap) then ok := false;
            List.iteri (fun i x -> if Ring.get r i <> x then ok := false) !model;
            if n > 0 && Ring.oldest r <> List.nth !model (n - 1) then ok := false)
        ops;
      !ok
      && List.init (Ring.length r) (Ring.get r) = !model
      && Ring.capacity r = cap)

(* ---------------- Int_map ---------------- *)

module Int_map = Mica_util.Int_map

(* Random operation sequences against a [Hashtbl] reference: the map is an
   exact replacement for the analyzer hot paths, so every observable —
   find/mem/length and the full binding set — must agree at every step. *)
let prop_int_map_matches_hashtbl =
  let op_gen =
    QCheck2.Gen.(
      let key = int_bound 400 in
      frequency
        [
          (4, map2 (fun k v -> `Set (k, v)) key (int_range (-50) 50));
          (4, map2 (fun k d -> `Bump (k, d)) key (int_range (-10) 10));
          (2, map (fun k -> `Add_if_absent k) key);
          (3, map (fun k -> `Find k) key);
        ])
  in
  Tutil.qcheck_case "int_map matches hashtbl reference"
    QCheck2.Gen.(pair (int_range 0 8) (list_size (int_range 0 200) op_gen))
    (fun (initial, ops) ->
      let m = Int_map.create ~initial () in
      let h : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Set (k, v) ->
            Int_map.set m k v;
            Hashtbl.replace h k v
          | `Bump (k, d) ->
            Int_map.bump m k d;
            Hashtbl.replace h k (Option.value (Hashtbl.find_opt h k) ~default:0 + d)
          | `Add_if_absent k ->
            Int_map.add_if_absent m k;
            if not (Hashtbl.mem h k) then Hashtbl.replace h k 0
          | `Find k ->
            if Int_map.find m k ~default:min_int <> Option.value (Hashtbl.find_opt h k) ~default:min_int
            then ok := false;
            if Int_map.mem m k <> Hashtbl.mem h k then ok := false)
        ops;
      (* final full-state agreement *)
      if Int_map.length m <> Hashtbl.length h then ok := false;
      Int_map.iter m (fun k v -> if Hashtbl.find_opt h k <> Some v then ok := false);
      let seen = ref 0 in
      Int_map.iter m (fun _ _ -> incr seen);
      !ok && !seen = Hashtbl.length h)

let test_int_map_negative_keys_rejected () =
  let m = Int_map.create () in
  List.iter
    (fun f -> try f (); Alcotest.fail "negative key accepted" with Invalid_argument _ -> ())
    [
      (fun () -> Int_map.set m (-1) 0);
      (fun () -> Int_map.bump m (-3) 1);
      (fun () -> Int_map.add_if_absent m (-2));
    ]

(* -1 is the empty-slot marker: a lookup of a negative key must find no
   binding, on an empty map and on a full one. *)
let test_int_map_negative_keys_absent () =
  let m = Int_map.create () in
  let check what =
    List.iter
      (fun k ->
        Alcotest.(check bool) (Printf.sprintf "%s: mem %d" what k) false (Int_map.mem m k);
        Alcotest.(check int) (Printf.sprintf "%s: find %d" what k) 42 (Int_map.find m k ~default:42))
      [ -1; -2; min_int ]
  in
  check "empty";
  for k = 0 to 99 do
    Int_map.set m k (k + 1)
  done;
  check "100 bindings";
  Alcotest.(check int) "non-negative keys still found" 100 (Int_map.find m 99 ~default:0)

let prop_int_map_growth =
  (* dense sequential insertion forces repeated rehashing past [initial] *)
  Tutil.qcheck_case ~count:50 "int_map growth preserves bindings"
    QCheck2.Gen.(int_range 1 600)
    (fun n ->
      let m = Int_map.create ~initial:1 () in
      for k = 0 to n - 1 do
        Int_map.set m k (k * 3)
      done;
      let ok = ref (Int_map.length m = n) in
      for k = 0 to n - 1 do
        if Int_map.find m k ~default:(-1) <> k * 3 then ok := false
      done;
      !ok && not (Int_map.mem m n))

(* [remove] shifts the rest of a probe cluster back instead of leaving a
   tombstone, so the keys that matter are ones sharing home slots.  The
   pool holds keys that [Int_map]'s multiplicative hash sends to two
   adjacent home slots of its 16-slot table, and still to a few slots after
   growth (were the hash to change, they would merely collide less), plus
   some spread-out keys.  Interleaved set/remove/find must agree with
   [Hashtbl] at every step and in the final binding set. *)
let colliding_keys =
  let home k = ((k * 0x2545F4914F6CDD1D) land max_int) lsr 58 in
  let rec go k acc n =
    if n = 0 then List.rev acc
    else if home k = 5 || home k = 6 then go (k + 1) (k :: acc) (n - 1)
    else go (k + 1) acc n
  in
  Array.of_list (go 0 [] 24 @ List.init 8 (fun i -> (i * 7919) + 3))

let prop_int_map_remove_matches_hashtbl =
  let op_gen =
    QCheck2.Gen.(
      let key = map (fun i -> colliding_keys.(i)) (int_bound (Array.length colliding_keys - 1)) in
      frequency
        [
          (4, map2 (fun k v -> `Set (k, v)) key (int_range 0 50));
          (3, map (fun k -> `Remove k) key);
          (3, map (fun k -> `Find k) key);
        ])
  in
  Tutil.qcheck_case "int_map remove matches hashtbl reference"
    QCheck2.Gen.(list_size (int_range 0 300) op_gen)
    (fun ops ->
      let m = Int_map.create ~initial:16 () in
      let h : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let agrees k =
        Int_map.find m k ~default:(-1) = Option.value (Hashtbl.find_opt h k) ~default:(-1)
        && Int_map.mem m k = Hashtbl.mem h k
      in
      List.for_all
        (fun op ->
          (match op with
          | `Set (k, v) ->
            Int_map.set m k v;
            Hashtbl.replace h k v
          | `Remove k ->
            Int_map.remove m k;
            Hashtbl.remove h k
          | `Find _ -> ());
          (match op with `Set (k, _) | `Remove k | `Find k -> agrees k)
          && Int_map.length m = Hashtbl.length h)
        ops
      && Array.for_all agrees colliding_keys
      &&
      let seen = ref 0 in
      Int_map.iter m (fun k v -> if Hashtbl.find_opt h k = Some v then incr seen);
      !seen = Hashtbl.length h)

(* ---------------- Csv ---------------- *)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape_field "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape_field "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape_field "a\"b")

let test_csv_parse () =
  Alcotest.(check (list string)) "simple" [ "a"; "b"; "c" ] (Csv.parse_line "a,b,c");
  Alcotest.(check (list string)) "quoted comma" [ "a,b"; "c" ] (Csv.parse_line "\"a,b\",c");
  Alcotest.(check (list string)) "escaped quote" [ "a\"b" ] (Csv.parse_line "\"a\"\"b\"");
  Alcotest.(check (list string)) "empty fields" [ ""; ""; "" ] (Csv.parse_line ",,")

let test_csv_file_roundtrip () =
  let path = Filename.temp_file "mica_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let rows = [ [ "name"; "x,y"; "q\"q" ]; [ "1"; "2"; "3" ] ] in
      Csv.to_file path rows;
      Alcotest.(check (list (list string))) "roundtrip" rows (Csv.of_file path))

let prop_csv_roundtrip =
  let field_gen =
    QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; ','; '"'; ' '; 'z' ]) (int_range 0 8))
  in
  Tutil.qcheck_case "csv line roundtrip"
    QCheck2.Gen.(list_size (int_range 1 6) field_gen)
    (fun fields ->
      let line = String.concat "," (List.map Csv.escape_field fields) in
      Csv.parse_line line = fields)

(* ---------------- Pool ---------------- *)

module Pool = Mica_util.Pool

let test_pool_run_covers_each_index_once () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          List.iter
            (fun n ->
              let hits = Array.make (max n 1) 0 in
              Pool.run pool n (fun i -> hits.(i) <- hits.(i) + 1);
              if n = 0 then Alcotest.(check int) "nothing ran" 0 hits.(0)
              else
                Array.iteri
                  (fun i h -> Alcotest.(check int) (Printf.sprintf "index %d once" i) 1 h)
                  hits)
            [ 0; 1; 2; 7; 100 ]))
    [ 1; 3; 8 ]

let test_pool_map_ordered_and_jobs_invariant () =
  let expected = Array.init 33 (fun i -> i * i) in
  let at jobs = Pool.with_pool ~jobs (fun pool -> Pool.map pool 33 (fun i -> i * i)) in
  Alcotest.(check (array int)) "jobs=1" expected (at 1);
  Alcotest.(check (array int)) "jobs=4" expected (at 4)

let test_pool_run_blocks_partition () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let n = 37 in
      let owner = Array.make n (-1) in
      let blocks = ref [] in
      Pool.run_blocks pool n (fun b lo hi ->
          blocks := (b, lo, hi) :: !blocks;
          for i = lo to hi do
            owner.(i) <- b
          done);
      Array.iteri
        (fun i b -> if b < 0 then Alcotest.failf "index %d not covered" i)
        owner;
      (* contiguous: the owner can only step up by one along the range *)
      for i = 1 to n - 1 do
        if owner.(i) < owner.(i - 1) || owner.(i) > owner.(i - 1) + 1 then
          Alcotest.failf "non-contiguous partition at %d" i
      done;
      Alcotest.(check bool) "at most jobs blocks" true (List.length !blocks <= 4))

let test_pool_exception_propagates_and_pool_survives () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (try
         Pool.run pool 20 (fun i -> if i = 13 then failwith "boom");
         Alcotest.fail "expected exception"
       with Failure m -> Alcotest.(check string) "exception text" "boom" m);
      (* the pool must still work after a failed run *)
      let out = Pool.map pool 20 (fun i -> i + 1) in
      Alcotest.(check int) "usable after error" 20 out.(19))

let test_pool_nested_runs_inline () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let out = Array.make 6 0 in
      Pool.run pool 2 (fun o ->
          Pool.run pool 3 (fun i -> out.((o * 3) + i) <- (o * 3) + i + 1));
      Alcotest.(check (array int)) "nested covered" [| 1; 2; 3; 4; 5; 6 |] out)

let test_pool_survives_shutdown () =
  let pool = Pool.create ~jobs:3 in
  let sum () =
    let out = Pool.map pool 11 (fun i -> i) in
    Array.fold_left ( + ) 0 out
  in
  Alcotest.(check int) "before shutdown" 55 (sum ());
  Pool.shutdown pool;
  Alcotest.(check int) "after shutdown (workers respawn)" 55 (sum ());
  Pool.shutdown pool

let test_pool_default_jobs_env () =
  let set v = Unix.putenv "MICA_JOBS" v in
  set "";
  let fallback = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> set "")
    (fun () ->
      set "3";
      Alcotest.(check int) "MICA_JOBS=3 respected" 3 (Pool.default_jobs ());
      set " 5 ";
      Alcotest.(check int) "whitespace tolerated" 5 (Pool.default_jobs ());
      set "0";
      Alcotest.(check int) "non-positive falls back" fallback (Pool.default_jobs ());
      set "nope";
      Alcotest.(check int) "garbage falls back" fallback (Pool.default_jobs ());
      Alcotest.(check bool) "fallback positive" true (fallback >= 1))

(* ---------------- Fault ---------------- *)

module Fault = Mica_util.Fault

let plan_exn spec =
  match Fault.parse spec with
  | Ok p -> p
  | Error msg -> Alcotest.failf "plan %S rejected: %s" spec msg

let test_fault_parse_roundtrip () =
  let p = plan_exn "seed=7,pool.worker=0.3,cache.read=1@2" in
  Alcotest.(check string)
    "normalized" "seed=7,pool.worker=0.3,cache.read=1@2" (Fault.to_string p);
  (match Fault.parse (Fault.to_string p) with
  | Ok p' -> Alcotest.(check string) "roundtrip" (Fault.to_string p) (Fault.to_string p')
  | Error msg -> Alcotest.failf "roundtrip rejected: %s" msg);
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [ ""; "seed=7"; "pool.worker"; "nosuch.point=0.5"; "pool.worker=1.5";
      "pool.worker=nan"; "pool.worker=0.5@-1"; "seed=x,pool.worker=0.1";
      "pool.worker=0.1,pool.worker=0.2" ]

let test_fault_disabled_is_silent () =
  Fault.with_plan None (fun () ->
      Alcotest.(check bool) "disabled" false (Fault.enabled ());
      for key = 0 to 100 do
        List.iter (fun p -> Fault.check p ~key) Fault.all_points
      done)

let test_fault_deterministic_and_scoped () =
  let plan = plan_exn "seed=11,trace.gen=0.5" in
  Fault.with_plan (Some plan) (fun () ->
      let pattern () =
        List.init 64 (fun key -> Fault.fires Fault.Trace_gen ~key)
      in
      Alcotest.(check (list bool)) "pure function of key" (pattern ()) (pattern ());
      Alcotest.(check bool) "some fire" true (List.mem true (pattern ()));
      Alcotest.(check bool) "some don't" true (List.mem false (pattern ()));
      (* other points are untouched by a trace.gen rule *)
      for key = 0 to 63 do
        Alcotest.(check bool) "other point silent" false (Fault.fires Fault.Pool_worker ~key)
      done;
      (* a different attempt re-rolls the decision *)
      let at_attempt a =
        Fault.with_context ~task:0 ~attempt:a (fun () ->
            List.init 64 (fun key -> Fault.fires Fault.Trace_gen ~key))
      in
      Alcotest.(check bool) "attempt changes the roll" true (at_attempt 1 <> at_attempt 2));
  Alcotest.(check bool) "plan restored" false (Fault.enabled ())

let test_fault_task_filter () =
  let plan = plan_exn "seed=3,pool.worker=1@2" in
  Fault.with_plan (Some plan) (fun () ->
      let fires_for task =
        Fault.with_context ~task ~attempt:1 (fun () -> Fault.fires Fault.Pool_worker ~key:0)
      in
      Alcotest.(check bool) "task 2 fires" true (fires_for 2);
      Alcotest.(check bool) "task 1 silent" false (fires_for 1);
      Alcotest.(check bool) "task 3 silent" false (fires_for 3))

(* ---------------- Pool.run_results ---------------- *)

let outcome_values out =
  Array.map
    (fun (o : _ Pool.outcome) ->
      match o.Pool.result with Ok v -> v | Error _ -> Alcotest.fail "unexpected failure")
    out

let test_run_results_matches_map () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          List.iter
            (fun n ->
              let expected = Pool.map pool n (fun i -> (i * 7) mod 13) in
              let out = Pool.run_results pool n (fun i -> (i * 7) mod 13) in
              Alcotest.(check (array int))
                (Printf.sprintf "jobs=%d n=%d" jobs n)
                expected (outcome_values out);
              Array.iter
                (fun (o : _ Pool.outcome) ->
                  Alcotest.(check int) "single attempt" 1 o.Pool.attempts)
                out)
            [ 0; 1; 5; 64 ]))
    [ 1; 4 ]

let test_run_results_contains_failure () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let out =
        Pool.run_results ~retries:1 pool 20 (fun i ->
            if i = 13 then failwith "boom13" else i)
      in
      Array.iteri
        (fun i (o : _ Pool.outcome) ->
          if i = 13 then begin
            (match o.Pool.result with
            | Error { Pool.error = Failure m; _ } ->
              Alcotest.(check string) "error text" "boom13" m
            | Error _ -> Alcotest.fail "wrong error captured"
            | Ok _ -> Alcotest.fail "index 13 should fail");
            Alcotest.(check int) "budget consumed" 2 o.Pool.attempts
          end
          else
            match o.Pool.result with
            | Ok v -> Alcotest.(check int) "neighbor intact" i v
            | Error _ -> Alcotest.failf "index %d corrupted by neighbor failure" i)
        out;
      (* the pool is still usable afterwards *)
      let again = outcome_values (Pool.run_results pool 20 (fun i -> i)) in
      Alcotest.(check int) "pool survives" 19 again.(19))

let test_run_results_retry_clears_transient () =
  (* pool.worker=1@7 fires on every attempt of task 7... but only because
     the hash includes the attempt; use probability to let a retry pass *)
  let plan = plan_exn "seed=5,pool.worker=0.6@7" in
  Fault.with_plan (Some plan) (fun () ->
      Pool.with_pool ~jobs:2 (fun pool ->
          let out = Pool.run_results ~retries:8 pool 16 (fun i -> i * 3) in
          Array.iteri
            (fun i (o : _ Pool.outcome) ->
              match o.Pool.result with
              | Ok v ->
                Alcotest.(check int) "value" (i * 3) v;
                if i <> 7 then Alcotest.(check int) "only task 7 retried" 1 o.Pool.attempts
              | Error _ -> Alcotest.failf "task %d never recovered" i)
            out;
          let seven = out.(7) in
          Alcotest.(check bool) "task 7 was retried" true (seven.Pool.attempts > 1)))

let test_run_results_exhausted_budget () =
  let plan = plan_exn "seed=5,pool.worker=1@3" in
  Fault.with_plan (Some plan) (fun () ->
      Pool.with_pool ~jobs:2 (fun pool ->
          let out = Pool.run_results ~retries:2 pool 8 (fun i -> i) in
          match out.(3).Pool.result with
          | Error { Pool.error = Fault.Injected _; _ } ->
            Alcotest.(check int) "attempts = 1 + retries" 3 out.(3).Pool.attempts
          | Error _ -> Alcotest.fail "wrong error"
          | Ok _ -> Alcotest.fail "task 3 must exhaust its budget"))

let test_run_results_failure_backtrace () =
  (* Worker domains never had [Printexc.record_backtrace] switched on
     (it is per-domain state), so failures used to surface with an empty
     backtrace; the captured trace must now name the raise point. *)
  let has_frames s =
    let s = String.trim s in
    String.length s > 0
    &&
    let n = String.length s in
    let rec at i = i + 6 <= n && (String.sub s i 6 = "Raised" || at (i + 1)) in
    at 0
  in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let out =
            Pool.run_results ~retries:0 pool 8 (fun i ->
                if i = 5 then failwith "kaboom" else i)
          in
          match out.(5).Pool.result with
          | Error { Pool.backtrace; _ } ->
            Alcotest.(check bool)
              (Printf.sprintf "jobs=%d backtrace names the raise" jobs)
              true (has_frames backtrace)
          | Ok _ -> Alcotest.fail "task 5 must fail"))
    [ 1; 4 ]

let test_run_results_crash_recovery () =
  (* a crash kills the worker's whole block; the recovery pass must still
     produce every index, at any jobs *)
  let plan = plan_exn "seed=9,pool.crash=0.2" in
  let at jobs =
    Fault.with_plan (Some plan) (fun () ->
        Pool.with_pool ~jobs (fun pool ->
            outcome_values (Pool.run_results pool 32 (fun i -> i * i))))
  in
  let expected = Array.init 32 (fun i -> i * i) in
  Alcotest.(check (array int)) "jobs=1 all recovered" expected (at 1);
  Alcotest.(check (array int)) "jobs=4 all recovered" expected (at 4)

let suite =
  ( "util",
    [
      Alcotest.test_case "ring basics" `Quick test_ring_basic;
      Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
      Alcotest.test_case "ring clear" `Quick test_ring_clear;
      prop_ring_model;
      prop_ring_interleaved_model;
      prop_int_map_matches_hashtbl;
      Alcotest.test_case "int_map negative keys" `Quick test_int_map_negative_keys_rejected;
      Alcotest.test_case "int_map negative keys absent" `Quick test_int_map_negative_keys_absent;
      prop_int_map_growth;
      prop_int_map_remove_matches_hashtbl;
      Alcotest.test_case "csv escaping" `Quick test_csv_escape;
      Alcotest.test_case "csv parsing" `Quick test_csv_parse;
      Alcotest.test_case "csv file roundtrip" `Quick test_csv_file_roundtrip;
      prop_csv_roundtrip;
      Alcotest.test_case "pool covers indices" `Quick test_pool_run_covers_each_index_once;
      Alcotest.test_case "pool map ordered" `Quick test_pool_map_ordered_and_jobs_invariant;
      Alcotest.test_case "pool block partition" `Quick test_pool_run_blocks_partition;
      Alcotest.test_case "pool exceptions" `Quick test_pool_exception_propagates_and_pool_survives;
      Alcotest.test_case "pool nested inline" `Quick test_pool_nested_runs_inline;
      Alcotest.test_case "pool shutdown respawn" `Quick test_pool_survives_shutdown;
      Alcotest.test_case "pool MICA_JOBS" `Quick test_pool_default_jobs_env;
      Alcotest.test_case "fault spec roundtrip" `Quick test_fault_parse_roundtrip;
      Alcotest.test_case "fault disabled silent" `Quick test_fault_disabled_is_silent;
      Alcotest.test_case "fault deterministic" `Quick test_fault_deterministic_and_scoped;
      Alcotest.test_case "fault task filter" `Quick test_fault_task_filter;
      Alcotest.test_case "run_results = map" `Quick test_run_results_matches_map;
      Alcotest.test_case "run_results contains failure" `Quick test_run_results_contains_failure;
      Alcotest.test_case "run_results retry clears" `Quick test_run_results_retry_clears_transient;
      Alcotest.test_case "run_results budget exhausted" `Quick test_run_results_exhausted_budget;
      Alcotest.test_case "run_results crash recovery" `Quick test_run_results_crash_recovery;
      Alcotest.test_case "run_results failure backtrace" `Quick
        test_run_results_failure_backtrace;
    ] )
