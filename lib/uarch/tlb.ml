module Int_map = Mica_util.Int_map

(* An exact LRU in O(1) expected work per access.  [map] finds the entry
   holding a page.  Recency is a doubly linked list over every entry, most
   recent at [head], least recent at [tail], held in [next] (towards
   [tail]) and [prev] (towards [head]); -1 ends it.  The list starts in
   index order with entry 0 at the tail, and a miss always refills the
   tail, so the invalid entries are filled first and in index order.

   This is the TLB the obvious model gives: scan every entry for the page,
   and on a miss evict the first entry with the strictly smallest last-use
   stamp.  Invalid entries carry stamp 0 and valid ones distinct positive
   stamps, so that scan too fills invalid entries in index order and then
   evicts the least recently used page; both hold the same page in every
   entry after every access (test/t_uarch.ml pins this against the
   full-scan model). *)
type t = {
  page_shift : int;
  pages : int array;  (* entry -> page; -1 = invalid *)
  map : Int_map.t;  (* page -> entry, for valid entries only *)
  next : int array;
  prev : int array;
  mutable head : int;
  mutable tail : int;
  mutable accesses : int;
  mutable misses : int;
}

let create ~entries ~page_bytes =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  if page_bytes <= 0 || page_bytes land (page_bytes - 1) <> 0 then
    invalid_arg "Tlb.create: page_bytes must be a power of two";
  (* with 1-byte pages, address -1 is page -1, the invalid marker; from 2
     bytes up the shift is at least 1, so every page is non-negative, as
     [Int_map] keys must be *)
  if page_bytes < 2 then invalid_arg "Tlb.create: page_bytes must be at least 2";
  let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
  {
    page_shift = log2 page_bytes 0;
    pages = Array.make entries (-1);
    (* at most [entries] keys in [4 * entries] slots: the map never grows
       and its probes stay short *)
    map = Int_map.create ~initial:(4 * entries) ();
    next = Array.init entries (fun e -> e - 1);
    prev = Array.init entries (fun e -> if e = entries - 1 then -1 else e + 1);
    head = entries - 1;
    tail = 0;
    accesses = 0;
    misses = 0;
  }

(* The tail entry, given to [page]; the page it held leaves the map
   ([Int_map.remove] ignores the invalid page -1). *)
let refill t page =
  t.misses <- t.misses + 1;
  let e = t.tail in
  Int_map.remove t.map (Array.unsafe_get t.pages e);
  Array.unsafe_set t.pages e page;
  Int_map.set t.map page e;
  e

(* Move entry [e], which is not [head], to the front of the list. *)
let move_to_front t e =
  let p = Array.unsafe_get t.prev e and n = Array.unsafe_get t.next e in
  Array.unsafe_set t.next p n;
  if n >= 0 then Array.unsafe_set t.prev n p else t.tail <- p;
  let h = t.head in
  Array.unsafe_set t.prev e (-1);
  Array.unsafe_set t.next e h;
  Array.unsafe_set t.prev h e;
  t.head <- e

let access t addr =
  t.accesses <- t.accesses + 1;
  let page = addr lsr t.page_shift in
  (* a repeat of the most recent page changes no recency *)
  Array.unsafe_get t.pages t.head = page
  ||
  let e = Int_map.find t.map page ~default:(-1) in
  let hit = e >= 0 in
  let e = if hit then e else refill t page in
  (* only with one entry is the refilled tail also the head *)
  if e <> t.head then move_to_front t e;
  hit

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
