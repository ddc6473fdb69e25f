module Obs = Mica_obs.Obs

(* Counter names are built per call, so any machine description gets its
   own; registering a name again returns the same counter.  This runs once
   per result, never per instruction, and only with metrics on. *)
let record ~model ~instrs ~l1i ~l1d ~l2 ~dtlb pred =
  if Obs.enabled () then begin
    let add name n = Obs.add (Obs.counter ("uarch." ^ model ^ "." ^ name)) (float_of_int n) in
    let cache level c =
      add (level ^ "_accesses") (Cache.accesses c);
      add (level ^ "_misses") (Cache.misses c)
    in
    add "instrs" instrs;
    cache "l1i" l1i;
    cache "l1d" l1d;
    cache "l2" l2;
    add "dtlb_accesses" (Tlb.accesses dtlb);
    add "dtlb_misses" (Tlb.misses dtlb);
    add "predictions" (Branch_pred.predictions pred);
    add "mispredictions" (Branch_pred.mispredictions pred)
  end
