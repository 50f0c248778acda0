(** Bounded multi-producer single-consumer queue (Mutex + Condition).

    The serving layer's backpressure primitive: connection readers
    [try_push] requests at shard domains and answer BUSY themselves on
    [false] — the queue never grows past its capacity, so a slow shard
    surfaces as an explicit reply instead of unbounded buffering.
    Barrier jobs and replies use {!push_unbounded}, which ignores the
    capacity: both are bounded by construction (one barrier per shard
    queue at a time per connection, replies by requests in flight). *)

type 'a t

val create : capacity:int -> 'a t

val try_push : 'a t -> 'a -> bool
(** [false] when the queue is full or closed. Never blocks. *)

val push_unbounded : 'a t -> 'a -> bool
(** Enqueue past the capacity limit; [false] only when closed. *)

val pop_batch : 'a t -> max:int -> 'a list
(** Block until at least one element is available, then return up to
    [max] in FIFO order. Returns [[]] only when the queue is closed and
    drained. *)

val close : 'a t -> unit
(** Wake the consumer; subsequent pushes fail. Elements already queued
    can still be popped. *)
