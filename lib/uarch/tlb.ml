type t = {
  page_shift : int;
  pages : int array;  (* -1 = invalid *)
  stamps : int array;
  mutable mru : int;  (* entry of the last hit or fill, checked first *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

let create ~entries ~page_bytes =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  if page_bytes <= 0 || page_bytes land (page_bytes - 1) <> 0 then
    invalid_arg "Tlb.create: page_bytes must be a power of two";
  let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
  {
    page_shift = log2 page_bytes 0;
    pages = Array.make entries (-1);
    stamps = Array.make entries 0;
    mru = 0;
    clock = 0;
    accesses = 0;
    misses = 0;
  }

(* Entry holding [page] in [pages.(i .. n - 1)], or -1.  A page is
   installed only on a miss, so it sits in at most one entry and the first
   match is the only one; the invalid marker -1 never equals the page of a
   traced (non-negative) address.  [int array] and [int] are pinned so the
   compare is an integer one, not [caml_equal]. *)
let rec find_entry (pages : int array) (page : int) (i : int) (n : int) =
  if i >= n then -1
  else if Array.unsafe_get pages i = page then i
  else find_entry pages page (i + 1) n

(* The LRU victim: the first entry with the strictly smallest stamp. *)
let rec lru_entry (stamps : int array) (best : int) (i : int) (n : int) =
  if i >= n then best
  else
    lru_entry stamps
      (if Array.unsafe_get stamps i < Array.unsafe_get stamps best then i else best)
      (i + 1) n

let access t addr =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let page = addr lsr t.page_shift in
  let n = Array.length t.pages in
  let hit =
    if Array.unsafe_get t.pages t.mru = page then t.mru else find_entry t.pages page 0 n
  in
  if hit >= 0 then begin
    Array.unsafe_set t.stamps hit t.clock;
    t.mru <- hit;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let victim = lru_entry t.stamps 0 1 n in
    Array.unsafe_set t.pages victim page;
    Array.unsafe_set t.stamps victim t.clock;
    t.mru <- victim;
    false
  end

let access_range t addr ~bytes =
  if bytes <= 0 then invalid_arg "Tlb.access_range: bytes must be positive";
  let first = addr lsr t.page_shift and last = (addr + bytes - 1) lsr t.page_shift in
  let all_hit = ref true in
  for page = first to last do
    if not (access t (page lsl t.page_shift)) then all_hit := false
  done;
  !all_hit

let accesses t = t.accesses
let misses t = t.misses
let miss_rate t = if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses

let reset_counters t =
  t.accesses <- 0;
  t.misses <- 0
