(* A reusable pool of worker domains with static index partitioning.

   Design constraints, in order:

   1. Determinism.  There is no work stealing and no dynamic queue: [run]
      splits [0, n) into at most [jobs] contiguous blocks, block [b] is
      always the same index range for a given (n, jobs), and every task
      writes only to its own slot of the caller's result structure.  For
      tasks that are pure per index the observable result is therefore
      identical at any [jobs] — including 1 — which is the contract the
      selection/clustering kernels and their differential tests rely on.

   2. Zero cost when sequential.  [jobs = 1] (the common case on small
      machines) never spawns a domain, never takes a lock, and runs the
      body inline, so threading a pool through a hot path costs nothing
      when parallelism is off.

   3. Reuse.  Worker domains are spawned once (lazily, on first parallel
      [run]) and parked on a condition variable between calls, so every
      selection-stage fan-out does not pay domain spawn/join.

   Nested calls: a body that itself calls [run] on the same pool (for
   example BIC's k-sweep calling k-means restarts) runs inline — the
   [active] flag makes the inner call sequential instead of deadlocking on
   the busy workers.  This is also deterministic: inner tasks are pure per
   index either way. *)

module Obs = Mica_obs.Obs

(* Observability (inert when disabled; see DESIGN.md §11).  [pool.block]
   span time summed across domains over wall time gives worker
   utilization; [pool.pending] is the queue-depth gauge. *)
let m_runs = Obs.counter "pool.runs"
let m_tasks = Obs.counter "pool.tasks"
let m_parallel_runs = Obs.counter "pool.parallel_runs"
let m_retries = Obs.counter "pool.retries"
let m_crash_recoveries = Obs.counter "pool.crash_recoveries"
let m_pending = Obs.gauge "pool.pending"

type state = {
  mutex : Mutex.t;
  work : Condition.t;  (* workers park here between epochs *)
  finished : Condition.t;  (* the submitter parks here until pending = 0 *)
  mutable epoch : int;
  mutable body : int -> unit;  (* worker index -> run that worker's block *)
  mutable pending : int;
  mutable stop : bool;
  (* First worker exception, re-raised by [run] with its original
     backtrace.  The raw backtrace must be captured on the domain where
     the exception was raised — backtrace buffers are per-domain. *)
  mutable error : (exn * Printexc.raw_backtrace) option;
}

type t = {
  jobs : int;
  state : state;
  mutable domains : unit Domain.t array;  (* spawned on first parallel run *)
  active : bool Atomic.t;
}

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  {
    jobs;
    state =
      {
        mutex = Mutex.create ();
        work = Condition.create ();
        finished = Condition.create ();
        epoch = 0;
        body = ignore;
        pending = 0;
        stop = false;
        error = None;
      };
    domains = [||];
    active = Atomic.make false;
  }

let sequential = create ~jobs:1

(* [epoch0] is the state's epoch when the spawn was decided: only the
   submitter advances the epoch, and it does so after spawning, so a fresh
   worker must ignore every epoch up to [epoch0] (on respawn after
   [shutdown] the counter is already past 0). *)
let worker st ~epoch0 w =
  (* [record_backtrace] is per-domain state: without this, exceptions
     raised on a worker carry empty backtraces even when the caller
     enabled recording. *)
  Printexc.record_backtrace true;
  let last = ref epoch0 in
  let running = ref true in
  while !running do
    Mutex.lock st.mutex;
    while (not st.stop) && st.epoch = !last do
      Condition.wait st.work st.mutex
    done;
    if st.stop then begin
      Mutex.unlock st.mutex;
      running := false
    end
    else begin
      last := st.epoch;
      let body = st.body in
      Mutex.unlock st.mutex;
      let err =
        try body w; None
        with e -> Some (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock st.mutex;
      (match (err, st.error) with
      | Some e, None -> st.error <- Some e
      | _ -> ());
      st.pending <- st.pending - 1;
      if st.pending = 0 then Condition.signal st.finished;
      Mutex.unlock st.mutex
    end
  done

let ensure_spawned t =
  if Array.length t.domains = 0 && t.jobs > 1 then begin
    let epoch0 = t.state.epoch in
    t.domains <-
      Array.init (t.jobs - 1) (fun i -> Domain.spawn (fun () -> worker t.state ~epoch0 (i + 1)))
  end

(* Contiguous block of worker [w] among [blocks] over [0, n). *)
let block_range ~n ~blocks w = (w * n / blocks, ((w + 1) * n / blocks) - 1)

let run t n f =
  if n > 0 then begin
    Obs.incr m_runs;
    Obs.add m_tasks (float_of_int n);
    if t.jobs = 1 || n = 1 || not (Atomic.compare_and_set t.active false true) then
      for i = 0 to n - 1 do
        f i
      done
    else begin
      Obs.incr m_parallel_runs;
      Obs.set m_pending (float_of_int n);
      ensure_spawned t;
      let blocks = min t.jobs n in
      let st = t.state in
      Mutex.lock st.mutex;
      st.body <-
        (fun w ->
          if w < blocks then
            Obs.span "pool.block" (fun () ->
                let lo, hi = block_range ~n ~blocks w in
                for i = lo to hi do
                  f i
                done));
      st.pending <- Array.length t.domains;
      st.error <- None;
      st.epoch <- st.epoch + 1;
      Condition.broadcast st.work;
      Mutex.unlock st.mutex;
      let my_err =
        try
          Obs.span "pool.block" (fun () ->
              let lo, hi = block_range ~n ~blocks 0 in
              for i = lo to hi do
                f i
              done);
          None
        with e -> Some (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock st.mutex;
      while st.pending > 0 do
        Condition.wait st.finished st.mutex
      done;
      let worker_err = st.error in
      st.error <- None;
      Mutex.unlock st.mutex;
      Atomic.set t.active false;
      Obs.set m_pending 0.0;
      match (my_err, worker_err) with
      | Some (e, bt), _ | None, Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None, None -> ()
    end
  end

let run_blocks t n f =
  if n > 0 then begin
    let blocks = if t.jobs = 1 then 1 else min t.jobs n in
    if blocks = 1 then f 0 0 (n - 1)
    else
      run t blocks (fun b ->
          let lo, hi = block_range ~n ~blocks b in
          f b lo hi)
  end

let map t n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run t n (fun i -> out.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) out
  end

let shutdown t =
  if Array.length t.domains > 0 then begin
    let st = t.state in
    Mutex.lock st.mutex;
    st.stop <- true;
    Condition.broadcast st.work;
    Mutex.unlock st.mutex;
    Array.iter Domain.join t.domains;
    t.domains <- [||];
    st.stop <- false
  end

(* ---- supervised execution ----

   [run_results] is [map] with a containment boundary per task: the body's
   exceptions are caught, retried up to a budget, and returned as
   per-index outcomes instead of aborting the whole batch.  Scheduling is
   the same static partition as [run], and the retry loop is driven per
   index, so with a deterministic body (and deterministic faults — see
   [Fault]) the outcome array is bit-identical at any [jobs].

   A [Fault.Pool_crash] that escapes the per-task supervision models a
   worker domain dying mid-block: [run] re-raises it after the epoch
   drains, we discard the current workers ([shutdown]; they respawn
   lazily), and a sequential recovery pass recomputes every index the lost
   workers never delivered. *)

type failure = { error : exn; backtrace : string }
type 'a outcome = { result : ('a, failure) result; attempts : int }

let run_results ?(retries = 2) t n f =
  if n = 0 then [||]
  else begin
    Printexc.record_backtrace true;
    let attempt_task i =
      (* Runs on whichever domain owns index [i]'s block; recording is
         per-domain, so enable it here rather than only on the caller. *)
      Printexc.record_backtrace true;
      let rec go attempt =
        match
          Fault.with_context ~task:i ~attempt (fun () ->
              Fault.check Fault.Pool_worker ~key:0;
              f i)
        with
        | v -> { result = Ok v; attempts = attempt }
        | exception e ->
          let backtrace = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
          if attempt > retries then
            { result = Error { error = e; backtrace }; attempts = attempt }
          else begin
            Obs.incr m_retries;
            go (attempt + 1)
          end
      in
      go 1
    in
    let out = Array.make n None in
    (try
       run t n (fun i ->
           Fault.with_context ~task:i ~attempt:0 (fun () ->
               Fault.check Fault.Pool_crash ~key:0);
           out.(i) <- Some (attempt_task i))
     with _crash ->
       (* A worker died mid-block.  Discard the current domains (they
          respawn lazily on the next parallel run) and fall through to the
          recovery pass below. *)
       Obs.incr m_crash_recoveries;
       shutdown t);
    Array.mapi (fun i o -> match o with Some o -> o | None -> attempt_task i) out
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let default_parallelism () = max 1 (min 8 (Domain.recommended_domain_count ()))

let default_jobs () =
  match Sys.getenv_opt "MICA_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | Some _ | None -> default_parallelism ())
  | None -> default_parallelism ()

let default_pool = ref None

let default () =
  match !default_pool with
  | Some t -> t
  | None ->
    let t = create ~jobs:(default_jobs ()) in
    default_pool := Some t;
    at_exit (fun () -> shutdown t);
    t

let using ~jobs f =
  let jobs = max 1 jobs in
  if jobs = 1 then f sequential
  else begin
    let d = default () in
    if d.jobs = jobs then f d else with_pool ~jobs f
  end
