(* Fixed-capacity building blocks for the sketch analyzers.

   [Map] is a direct-mapped int -> int table: one hash, one slot, no
   probing and no growth.  A colliding insert simply evicts the previous
   resident ("latest wins"), which turns the exact per-key state of the
   streaming analyzers into a bounded approximation: the hot keys (the
   ones that dominate the characteristic) stay resident, cold keys decay
   away through eviction.  All operations are allocation-free.

   [Decay_hist] is a bounded histogram over fixed cutoffs. *)

module Map = struct
  type t = {
    keys : int array;  (* -1 marks an empty slot *)
    vals : int array;
    mask : int;
  }

  let rec ceil_pow2 n c = if c >= n then c else ceil_pow2 n (c * 2)

  let create ~slots =
    if slots < 1 then invalid_arg "Bounded.Map.create: slots must be positive";
    let cap = ceil_pow2 (max 16 slots) 16 in
    { keys = Array.make cap (-1); vals = Array.make cap 0; mask = cap - 1 }

  let state_bytes t = 2 * 8 * (t.mask + 1)

  let[@inline] slot t key = Cardinality.hash key land t.mask

  let find t key ~default =
    let i = slot t key in
    if Array.unsafe_get t.keys i = key then Array.unsafe_get t.vals i else default

  let[@inline] claim t i key =
    if Array.unsafe_get t.keys i <> key then begin
      Array.unsafe_set t.keys i key;
      true
    end
    else false

  let set t key v =
    if key < 0 then invalid_arg "Bounded.Map.set: negative key";
    let i = slot t key in
    ignore (claim t i key : bool);
    Array.unsafe_set t.vals i v

  (* [bump] adds [delta] when [key] is resident; an eviction restarts the
     count at [delta], as if the key had never been seen. *)
  let bump t key delta =
    if key < 0 then invalid_arg "Bounded.Map.bump: negative key";
    let i = slot t key in
    if claim t i key then Array.unsafe_set t.vals i delta
    else Array.unsafe_set t.vals i (Array.unsafe_get t.vals i + delta)

  let reset t = Array.fill t.keys 0 (t.mask + 1) (-1)
end

module Decay_hist = struct
  (* No running total: a [mutable float] field in this mixed record would
     be boxed, allocating on every store — and [record] runs per memory
     access in the stride sketches.  The total is a fold at read time. *)
  type t = {
    cutoffs : int array;  (* ascending; final implicit bucket is "> last" *)
    counts : float array;
  }

  let create ~cutoffs = { cutoffs; counts = Array.make (Array.length cutoffs + 1) 0.0 }

  (* top-level recursion: a nested closure here would allocate per record *)
  let rec bucket_from cutoffs v i n =
    if i >= n then n else if v <= Array.unsafe_get cutoffs i then i else bucket_from cutoffs v (i + 1) n

  let record t v =
    let b = bucket_from t.cutoffs v 0 (Array.length t.cutoffs) in
    t.counts.(b) <- t.counts.(b) +. 1.0

  let total t = Array.fold_left ( +. ) 0.0 t.counts

  let cdf t =
    let denom = Float.max (total t) 1.0 in
    let out = Array.make (Array.length t.cutoffs) 0.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i _ ->
        acc := !acc +. t.counts.(i);
        out.(i) <- !acc /. denom)
      out;
    out

  let reset t = Array.fill t.counts 0 (Array.length t.counts) 0.0
  let state_bytes t = 8 * (Array.length t.counts + Array.length t.cutoffs)
end
