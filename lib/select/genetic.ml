module Rng = Mica_util.Rng
module Pool = Mica_util.Pool
module Obs = Mica_obs.Obs

let m_generations = Obs.counter "ga.generations"
let m_evaluations = Obs.counter "ga.evaluations"

(* Which path each evaluation took: a rebuild from the genome's columns,
   or the parent's sums plus per-column deltas.  They sum to
   [ga.evaluations]. *)
let m_rebuild_evals = Obs.counter "ga.rebuild_evals"
let m_delta_evals = Obs.counter "ga.delta_evals"

type config = {
  population : int;
  max_generations : int;
  tournament_size : int;
  crossover_rate : float;
  mutation_rate : float;
  elite : int;
  stall_generations : int;
  init_select_prob : float;
}

let default_config =
  {
    population = 48;
    max_generations = 250;
    tournament_size = 3;
    crossover_rate = 0.9;
    mutation_rate = 0.03;
    elite = 2;
    stall_generations = 40;
    init_select_prob = 0.25;
  }

type result = {
  selected : int array;
  fitness : float;
  rho : float;
  generations_run : int;
  best_history : float array;
  evaluations : int;
}

let genome_key genome =
  let buf = Bytes.make (Array.length genome) '0' in
  Array.iteri (fun i b -> if b then Bytes.set buf i '1') genome;
  Bytes.to_string buf

let subset_of_genome genome =
  let out = ref [] in
  for i = Array.length genome - 1 downto 0 do
    if genome.(i) then out := i :: !out
  done;
  Array.of_list !out

let cardinal genome = Array.fold_left (fun k b -> if b then k + 1 else k) 0 genome

(* bits where two genomes disagree *)
let distance a b =
  let d = ref 0 in
  Array.iteri (fun c x -> if x <> b.(c) then incr d) a;
  !d

(* The columns that turn [parent] into [genome], ascending: [c] where
   only the genome has it, [lnot c] where only the parent has it. *)
let delta_cols parent genome =
  let out = ref [] in
  for c = Array.length genome - 1 downto 0 do
    if genome.(c) <> parent.(c) then out := (if genome.(c) then c else lnot c) :: !out
  done;
  Array.of_list !out

(* Kept as a plain function (the [select.ga] span wraps a call to it in
   [run]) so the body's free variables stay ordinary arguments rather than
   closure-environment fields. *)
let run_body ~config ~pool ~rng fitness =
  let n = Fitness.n_characteristics fitness in
  let n_pairs = Fitness.n_pairs fitness in
  let pop = config.population in
  let cache : (string, float) Hashtbl.t = Hashtbl.create 1024 in
  let evaluations = ref 0 in
  (* All per-pair storage is allocated once and reused every generation.
     Each population slot owns two rows of running per-pair sums
     (previous and next generation); a slot's row is valid when it holds
     the sums of the genome currently in that slot.  [scratch] holds the
     distance rows of one generation's batch. *)
  let sums_prev = Array.init pop (fun _ -> Array.make n_pairs 0.0) in
  let sums_next = Array.init pop (fun _ -> Array.make n_pairs 0.0) in
  let valid_prev = Array.make pop false in
  let valid_next = Array.make pop false in
  let scratch = Fitness.scratch fitness pop in
  let parents = Array.make pop (-1) in
  let keys = Array.make pop "" in
  let scores = Array.make pop 0.0 in
  (* Evaluate one generation, whose slot [i] descends from slot
     [parents.(i)] of [elders].  The grouping pass is sequential and keyed
     on genome content, so which genomes get evaluated — and through which
     path — depends only on the genomes and the cache, never on the pool
     size; [Fitness.eval] then scores every distinct new genome exactly
     once, as one batch.  Results are therefore bit-identical at any
     [jobs]. *)
  let eval_batch population ~elders (sums_prev, valid_prev) (sums_next, valid_next) =
    Array.iteri (fun i g -> keys.(i) <- genome_key g) population;
    Array.fill valid_next 0 pop false;
    let first_slot : (string, int) Hashtbl.t = Hashtbl.create (2 * pop) in
    let fresh = ref [] in
    for i = pop - 1 downto 0 do
      if not (Hashtbl.mem cache keys.(i)) && not (Hashtbl.mem first_slot keys.(i))
      then begin
        Hashtbl.add first_slot keys.(i) i;
        fresh := i :: !fresh
      end
    done;
    let fresh = Array.of_list !fresh in
    let jobs =
      Array.map
        (fun i ->
          let g = population.(i) and p = parents.(i) in
          valid_next.(i) <- true;
          let delta =
            p >= 0 && valid_prev.(p)
            &&
            let d = distance elders.(p) g in
            d > 0 && 2 * d < cardinal g
          in
          (* a close descendant of an evaluated parent starts from the
             parent's sums and flips only the differing columns *)
          if delta then
            { Fitness.cols = delta_cols elders.(p) g; base = Some sums_prev.(p);
              keep = Some sums_next.(i) }
          else { Fitness.cols = subset_of_genome g; base = None; keep = Some sums_next.(i) })
        fresh
    in
    let rhos = Fitness.eval ~pool ~scratch fitness jobs in
    Array.iteri
      (fun u i ->
        incr evaluations;
        Obs.incr m_evaluations;
        Obs.incr
          (match jobs.(u).Fitness.base with None -> m_rebuild_evals | Some _ -> m_delta_evals);
        Hashtbl.add cache keys.(i)
          (Fitness.of_rho fitness ~size:(cardinal population.(i)) rhos.(u)))
      fresh;
    for i = 0 to pop - 1 do
      scores.(i) <- Hashtbl.find cache keys.(i);
      (* cache-hit slot whose genome is unchanged from its parent (an
         elite, or an unmutated copy): keep its sums alive so its own
         children can still take the delta path next generation *)
      let p = parents.(i) in
      if
        (not valid_next.(i))
        && p >= 0 && valid_prev.(p)
        && distance elders.(p) population.(i) = 0
      then begin
        Array.blit sums_prev.(p) 0 sums_next.(i) 0 n_pairs;
        valid_next.(i) <- true
      end
    done
  in
  let random_genome () =
    let g = Array.init n (fun _ -> Rng.bernoulli rng ~p:config.init_select_prob) in
    (* an empty genome is useless; force one bit *)
    if not (Array.exists Fun.id g) then g.(Rng.int rng n) <- true;
    g
  in
  let population = ref (Array.init pop (fun _ -> random_genome ())) in
  Array.fill parents 0 pop (-1);
  eval_batch !population ~elders:!population (sums_prev, valid_prev) (sums_next, valid_next);
  let prev = ref (sums_next, valid_next) and next = ref (sums_prev, valid_prev) in
  let tournament () =
    let best = ref (Rng.int rng pop) in
    for _ = 2 to config.tournament_size do
      let c = Rng.int rng pop in
      if scores.(c) > scores.(!best) then best := c
    done;
    !best
  in
  let mutate g =
    Array.iteri (fun i b -> if Rng.bernoulli rng ~p:config.mutation_rate then g.(i) <- not b) g;
    if not (Array.exists Fun.id g) then g.(Rng.int rng n) <- true
  in
  let best_of () =
    let best = ref 0 in
    Array.iteri (fun i s -> if s > scores.(!best) then best := i) scores;
    !best
  in
  let history = ref [] in
  let stall = ref 0 in
  let generation = ref 0 in
  let best_ever = ref (Array.copy !population.(best_of ())) in
  let best_ever_score = ref scores.(best_of ()) in
  while !generation < config.max_generations && !stall < config.stall_generations do
    incr generation;
    Obs.incr m_generations;
    (* elitism: carry the best genomes over unchanged *)
    let order = Array.init pop Fun.id in
    Array.sort (fun a b -> compare scores.(b) scores.(a)) order;
    let make_child i =
      if i < config.elite then begin
        parents.(i) <- order.(i);
        Array.copy !population.(order.(i))
      end
      else begin
        let ia = tournament () in
        let ib = tournament () in
        let a = !population.(ia) in
        (* either way the child descends from [ia]: a crossover child in a
           converging population differs from parent [a] only where the
           parents disagree *and* the coin picked [b], so the delta path
           usually beats a full rebuild for it too — [eval_batch] decides
           per child from the actual bit distance *)
        parents.(i) <- ia;
        let child =
          if Rng.bernoulli rng ~p:config.crossover_rate then begin
            let b = !population.(ib) in
            Array.init n (fun j -> if Rng.bool rng then a.(j) else b.(j))
          end
          else Array.copy a
        in
        mutate child;
        child
      end
    in
    let children = Array.init pop make_child in
    eval_batch children ~elders:!population !prev !next;
    population := children;
    let tmp = !prev in
    prev := !next;
    next := tmp;
    let b = best_of () in
    if scores.(b) > !best_ever_score +. 1e-12 then begin
      best_ever_score := scores.(b);
      best_ever := Array.copy !population.(b);
      stall := 0
    end
    else incr stall;
    history := !best_ever_score :: !history
  done;
  let selected = subset_of_genome !best_ever in
  {
    selected;
    fitness = !best_ever_score;
    rho = Fitness.rho fitness selected;
    generations_run = !generation;
    best_history = Array.of_list (List.rev !history);
    evaluations = !evaluations;
  }

let run ?(config = default_config) ?(pool = Pool.sequential) ~rng fitness =
  Obs.span "select.ga" (fun () -> run_body ~config ~pool ~rng fitness)
