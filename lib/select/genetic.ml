module Rng = Mica_util.Rng
module Pool = Mica_util.Pool
module Obs = Mica_obs.Obs

let m_generations = Obs.counter "ga.generations"
let m_evaluations = Obs.counter "ga.evaluations"

(* Which path each evaluation took: a full in-order [Subset.set_cols], or
   the parent's sums plus per-column deltas.  They sum to [ga.evaluations]. *)
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
  delta_eval : bool;
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
    delta_eval = true;
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

(* bits where the genome disagrees with the subset state's membership *)
let diff_to_state st genome =
  let d = ref 0 in
  Array.iteri (fun c b -> if b <> Fitness.Subset.mem st c then incr d) genome;
  !d

(* Kept as a plain function (the [select.ga] span wraps a call to it in
   [run]) so the body's free variables stay ordinary arguments rather than
   closure-environment fields. *)
let run_body ~config ~pool ~rng fitness =
  let n = Fitness.n_characteristics fitness in
  let pop = config.population in
  let cache : (string, float) Hashtbl.t = Hashtbl.create 1024 in
  let evaluations = ref 0 in
  (* All state below is preallocated once and reused every generation, so
     the steady-state loop does not allocate per evaluation.  Each
     population slot owns two subset states (previous and next
     generation); a slot's state is valid when it holds the running
     per-pair sums for the genome currently in that slot. *)
  let states_prev = Array.init pop (fun _ -> Fitness.Subset.make fitness) in
  let states_next = Array.init pop (fun _ -> Fitness.Subset.make fitness) in
  let valid_prev = Array.make pop false in
  let valid_next = Array.make pop false in
  let parents = Array.make pop (-1) in
  let keys = Array.make pop "" in
  let scores = Array.make pop 0.0 in
  let via_delta = Array.make pop false in
  (* Evaluate one generation.  The grouping pass is sequential and keyed
     on genome content, so which genomes get evaluated — and through which
     path — depends only on the genomes and the cache, never on the pool
     size; the parallel phase evaluates each distinct new genome exactly
     once, independently, with per-block scratch.  Results are therefore
     bit-identical at any [jobs]. *)
  let eval_batch population (states_prev, valid_prev) (states_next, valid_next) =
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
    let out = Array.make (Array.length fresh) 0.0 in
    Pool.run_blocks pool (Array.length fresh) (fun _ lo hi ->
        for u = lo to hi do
          let i = fresh.(u) in
          let g = population.(i) in
          let st = states_next.(i) in
          let p = parents.(i) in
          let delta =
            config.delta_eval && p >= 0 && valid_prev.(p)
            &&
            let d = diff_to_state states_prev.(p) g in
            let card = ref 0 in
            Array.iter (fun b -> if b then incr card) g;
            d > 0 && 2 * d < !card
          in
          if delta then begin
            (* close descendant of an evaluated parent: carry the parent's
               running sums over and flip only the differing columns *)
            Fitness.Subset.blit ~src:states_prev.(p) ~dst:st;
            Array.iteri
              (fun c b ->
                if b <> Fitness.Subset.mem st c then
                  if b then Fitness.Subset.add st c else Fitness.Subset.remove st c)
              g
          end
          else Fitness.Subset.set_cols st (subset_of_genome g);
          via_delta.(i) <- delta;
          valid_next.(i) <- true;
          out.(u) <- Fitness.Subset.fitness st
        done);
    Array.iteri
      (fun u i ->
        incr evaluations;
        Obs.incr m_evaluations;
        Obs.incr (if via_delta.(i) then m_delta_evals else m_rebuild_evals);
        Hashtbl.add cache keys.(i) out.(u))
      fresh;
    for i = 0 to pop - 1 do
      scores.(i) <- Hashtbl.find cache keys.(i);
      (* cache-hit slot whose genome is unchanged from its parent (an
         elite, or an unmutated copy): keep its sums alive so its own
         children can still take the delta path next generation *)
      if
        config.delta_eval && (not valid_next.(i))
        && parents.(i) >= 0
        && valid_prev.(parents.(i))
        && diff_to_state states_prev.(parents.(i)) population.(i) = 0
      then begin
        Fitness.Subset.blit ~src:states_prev.(parents.(i)) ~dst:states_next.(i);
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
  eval_batch !population (states_prev, valid_prev) (states_next, valid_next);
  let prev = ref (states_next, valid_next) and next = ref (states_prev, valid_prev) in
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
    eval_batch children !prev !next;
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
