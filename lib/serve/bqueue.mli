(** A bounded multi-producer single-consumer queue — the daemon's
    admission queue.

    Boundedness is the backpressure mechanism: {!try_push} never blocks
    and never buffers beyond [capacity]; a [false] return is the caller's
    cue to shed the request with an immediate [overloaded] reply, so
    memory stays bounded no matter the arrival rate.

    {!close} flips the queue into drain mode: pushes are refused, but the
    consumer keeps receiving already-admitted items until the queue is
    empty, after which blocking {!pop} returns [None] — the dispatch
    loop's exit signal. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val try_push : 'a t -> 'a -> bool
(** [false] when the queue is full or closed; never blocks. *)

val pop : 'a t -> 'a option
(** Block until an item is available ([Some]) or the queue is closed and
    empty ([None]). *)

val try_pop : 'a t -> 'a option
(** [None] when currently empty (closed or not); never blocks. *)

val close : 'a t -> unit
(** Refuse subsequent pushes and wake blocked poppers.  Idempotent. *)

val length : 'a t -> int
val capacity : 'a t -> int
