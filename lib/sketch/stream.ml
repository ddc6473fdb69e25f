(* Windowed streaming characterization.

   Feeds the trace through a {!Sketch} in tumbling windows of a fixed
   instruction count: at each boundary the window's 56-characteristic
   vector is read out, folded into an exponentially-decayed running
   vector, optionally emitted as a snapshot, and the sketch is reset in
   place (no allocation) for the next window.  Memory is therefore O(1)
   in trace length plus O(snapshots) for the emitted vectors.

   Chunks that straddle a window boundary are split by restaging into a
   private chunk (the [Sink.sample] idiom), so windowing is a property
   of the instruction stream, not of its chunking — feeding the same
   trace with different chunk capacities yields bit-identical snapshots.

   Phase detection is a pure post-processing step: {!assign} maps a
   vector to its nearest centroid (from an offline [Mica_stats.Kmeans]
   fit), and {!purity} scores such an online labeling against the
   offline phase oracle. *)

module Chunk = Mica_trace.Chunk

type snapshot = {
  index : int;  (* window number, 0-based *)
  start_instr : int;
  instructions : int;  (* window length; the final window may be short *)
  vector : float array;  (* this window's extended characteristic vector *)
  decayed : float array;  (* EWMA over windows up to and including this one *)
}

type t = {
  sketch : Sketch.t;
  sketch_sink : Mica_trace.Sink.t;
  window : int;
  snapshot_every : int;
  stage : Chunk.t;
  mutable in_window : int;
  mutable windows_done : int;
  mutable total : int;
  mutable decayed : float array;  (* [||] until the first window closes *)
  mutable snapshots_rev : snapshot list;
  mutable finished : bool;
}

let default_window = 65536
let alpha = 0.5

let create ?(window = default_window) ?(snapshot_every = 1) ?ppm_order ?plan () =
  if window <= 0 then invalid_arg "Stream.create: window must be positive";
  if snapshot_every <= 0 then invalid_arg "Stream.create: snapshot_every must be positive";
  let sketch = Sketch.create ?ppm_order ?plan () in
  {
    sketch;
    sketch_sink = Sketch.sink sketch;
    window;
    snapshot_every;
    stage = Chunk.create ();
    in_window = 0;
    windows_done = 0;
    total = 0;
    decayed = [||];
    snapshots_rev = [];
    finished = false;
  }

let flush_stage t =
  if Chunk.length t.stage > 0 then begin
    t.sketch_sink.Mica_trace.Sink.on_chunk t.stage;
    Chunk.clear t.stage
  end

(* Close the current window: read the vector, fold the EWMA, emit a
   snapshot if due, reset the sketch. *)
let close_window t =
  flush_stage t;
  let v = Sketch.extended_vector t.sketch in
  if Array.length t.decayed = 0 then t.decayed <- Array.copy v
  else
    Array.iteri
      (fun i x -> t.decayed.(i) <- (alpha *. x) +. ((1.0 -. alpha) *. t.decayed.(i)))
      v;
  let index = t.windows_done in
  if (index + 1) mod t.snapshot_every = 0 || t.in_window < t.window then
    t.snapshots_rev <-
      {
        index;
        start_instr = t.total - t.in_window;
        instructions = t.in_window;
        vector = v;
        decayed = Array.copy t.decayed;
      }
      :: t.snapshots_rev;
  t.windows_done <- index + 1;
  t.in_window <- 0;
  Sketch.reset t.sketch

let sink t =
  Mica_trace.Sink.make ~name:"stream" (fun c ->
      let len = c.Chunk.len in
      for i = 0 to len - 1 do
        Chunk.append c i t.stage;
        t.in_window <- t.in_window + 1;
        t.total <- t.total + 1;
        if t.in_window = t.window then close_window t
        else if Chunk.is_full t.stage then flush_stage t
      done)

let finish t =
  if not t.finished then begin
    t.finished <- true;
    if t.in_window > 0 then close_window t
  end;
  Array.of_list (List.rev t.snapshots_rev)

let windows t = t.windows_done
let instructions t = t.total
let decayed t = if Array.length t.decayed = 0 then None else Some (Array.copy t.decayed)
let state_bytes t = Sketch.state_bytes t.sketch

let run ?window ?snapshot_every ?ppm_order ?plan program ~icount =
  let t = create ?window ?snapshot_every ?ppm_order ?plan () in
  let (_ : int) = Mica_trace.Generator.run program ~icount ~sink:(sink t) in
  let snapshots = finish t in
  (t, snapshots)

(* ------------------------------------------------------------------ *)
(* Online phase assignment                                             *)

let assign ~centroids v =
  if Array.length centroids = 0 then invalid_arg "Stream.assign: no centroids";
  let best = ref 0 and best_d = ref infinity in
  Array.iteri
    (fun ci c ->
      let d = ref 0.0 in
      Array.iteri
        (fun i x ->
          let dx = x -. v.(i) in
          d := !d +. (dx *. dx))
        c;
      if !d < !best_d then begin
        best_d := !d;
        best := ci
      end)
    centroids;
  !best

(* Cluster purity of an online labeling against an oracle labeling:
   each cluster votes for its majority oracle label; purity is the
   fraction of windows covered by those majorities.  Compared over the
   common prefix, so a trailing partial window on either side is
   ignored. *)
let purity ~labels ~oracle =
  let n = min (Array.length labels) (Array.length oracle) in
  if n = 0 then 0.0
  else begin
    let counts = Hashtbl.create 16 in
    for i = 0 to n - 1 do
      let key = (labels.(i), oracle.(i)) in
      Hashtbl.replace counts key (1 + Option.value (Hashtbl.find_opt counts key) ~default:0)
    done;
    let best = Hashtbl.create 16 in
    Hashtbl.iter
      (fun (c, _) k ->
        if k > Option.value (Hashtbl.find_opt best c) ~default:0 then Hashtbl.replace best c k)
      counts;
    let covered = Hashtbl.fold (fun _ k acc -> acc + k) best 0 in
    float_of_int covered /. float_of_int n
  end
