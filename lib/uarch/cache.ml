type t = {
  name : string;
  line_shift : int;
  set_shift : int;
  set_mask : int;
  assoc : int;
  n_sets : int;
  tags : int array;  (* n_sets * assoc; -1 = invalid *)
  stamps : int array;  (* LRU timestamps, parallel to [tags] *)
  mutable clock : int;
  (* the line of the previous access and the slot holding it; -1 after
     [install] or before any access (a line is never negative) *)
  mutable last_line : int;
  mutable last_slot : int;
  mutable accesses : int;
  mutable misses : int;
  line_bytes : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let create ~name ~size_bytes ~line_bytes ~assoc =
  if not (is_pow2 line_bytes) then invalid_arg "Cache.create: line size must be a power of two";
  (* with 1-byte lines and one set, address -1 has tag -1, the invalid
     marker, and would hit in a cold cache; from 2 bytes up, every tag is
     non-negative *)
  if line_bytes < 2 then invalid_arg "Cache.create: line size must be at least 2 bytes";
  if assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  if size_bytes < line_bytes * assoc then
    invalid_arg "Cache.create: size must cover at least one set";
  (* Integer division here would silently shrink the cache; a size that is
     not a whole number of sets is a specification bug, so reject it. *)
  if size_bytes mod (line_bytes * assoc) <> 0 then
    invalid_arg "Cache.create: size must be a whole number of sets (a multiple of line_bytes * assoc)";
  let n_sets = size_bytes / (line_bytes * assoc) in
  if not (is_pow2 n_sets) then invalid_arg "Cache.create: set count must be a power of two";
  {
    name;
    line_shift = log2 line_bytes;
    set_shift = log2 n_sets;
    set_mask = n_sets - 1;
    assoc;
    n_sets;
    tags = Array.make (n_sets * assoc) (-1);
    stamps = Array.make (n_sets * assoc) 0;
    clock = 0;
    last_line = -1;
    last_slot = 0;
    accesses = 0;
    misses = 0;
    line_bytes;
  }

let name t = t.name
let sets t = t.n_sets
let line_bytes t = t.line_bytes
let assoc t = t.assoc

(* Per-access helpers take [int array] and [int] explicitly: an
   unannotated [tags.(i) = tag] would be polymorphic and compile to
   [caml_equal].  They return one int, never a tuple, and build no
   closure, so a lookup allocates nothing.  They scan one set,
   [base, base + assoc) with [base = set * assoc] and [set < n_sets], which
   lies inside [tags] and [stamps]; hence the unchecked reads. *)

(* Slot holding [tag] in [tags.(i .. stop - 1)], or -1.  A tag is installed
   only on a miss, so tags are unique within a set and the first match is
   the only one. *)
let rec find_slot (tags : int array) (tag : int) (i : int) (stop : int) =
  if i >= stop then -1
  else if Array.unsafe_get tags i = tag then i
  else find_slot tags tag (i + 1) stop

(* The LRU victim: the first slot with the strictly smallest stamp. *)
let rec lru_slot (stamps : int array) (best : int) (i : int) (stop : int) =
  if i >= stop then best
  else
    lru_slot stamps
      (if Array.unsafe_get stamps i < Array.unsafe_get stamps best then i else best)
      (i + 1) stop

(* Replace the LRU way of the set starting at [base] with [tag]; returns
   the way. *)
let fill t base tag =
  let victim = lru_slot t.stamps base (base + 1) (base + t.assoc) in
  Array.unsafe_set t.tags victim tag;
  Array.unsafe_set t.stamps victim t.clock;
  victim

(* Only a fill evicts, and a fill in [access] makes its own line the last
   one, so the previous access's line stays in [last_slot] until the next
   access or [install]: a repeat of it is a hit without a set scan.  It
   still counts, ticks the clock and refreshes the stamp, exactly as the
   scan's hit would. *)
let access t addr =
  t.accesses <- t.accesses + 1;
  let clock = t.clock + 1 in
  t.clock <- clock;
  let line = addr lsr t.line_shift in
  if line = t.last_line then begin
    Array.unsafe_set t.stamps t.last_slot clock;
    true
  end
  else begin
    let base = (line land t.set_mask) * t.assoc and tag = line lsr t.set_shift in
    let slot = find_slot t.tags tag base (base + t.assoc) in
    t.last_line <- line;
    if slot >= 0 then begin
      Array.unsafe_set t.stamps slot clock;
      t.last_slot <- slot;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      t.last_slot <- fill t base tag;
      false
    end
  end

let access_range t addr ~bytes =
  if bytes <= 0 then invalid_arg "Cache.access_range: bytes must be positive";
  let first = addr lsr t.line_shift and last = (addr + bytes - 1) lsr t.line_shift in
  let all_hit = ref true in
  for line = first to last do
    if not (access t (line lsl t.line_shift)) then all_hit := false
  done;
  !all_hit

let probe t addr =
  let line = addr lsr t.line_shift in
  let base = (line land t.set_mask) * t.assoc in
  find_slot t.tags (line lsr t.set_shift) base (base + t.assoc) >= 0

(* An install may evict the last line, so it forgets it. *)
let install t addr =
  t.clock <- t.clock + 1;
  t.last_line <- -1;
  let line = addr lsr t.line_shift in
  let base = (line land t.set_mask) * t.assoc and tag = line lsr t.set_shift in
  let slot = find_slot t.tags tag base (base + t.assoc) in
  if slot >= 0 then Array.unsafe_set t.stamps slot t.clock
  else ignore (fill t base tag : int)

let accesses t = t.accesses
let misses t = t.misses

let miss_rate t =
  if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses

let reset_counters t =
  t.accesses <- 0;
  t.misses <- 0
