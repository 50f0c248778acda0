(** The serving engine: one I/O domain feeding per-shard bounded queues
    drained by shard domains (DESIGN.md §16), however many clients
    connect. Each connection is served by two threads of the I/O domain:
    a reader (decode frames, route requests) and a writer (flush reply
    frames, in completion order — replies carry request ids, so they may
    leave out of order), so a slow peer never blocks a shard domain.
    Single-key operations are routed by {!Store.Sharded.shard_of_key}
    into that shard's bounded queue; a full queue answers BUSY
    immediately from the reader — the server never buffers without
    bound. Cross-shard operations (SCAN, TXN_COMMIT, STATS) are barrier
    jobs enqueued on {e every} shard queue; the last shard domain to
    arrive runs them exclusively while the rest are parked, which gives
    them the same isolation the sequential {!Store.Sharded} facade
    assumes.

    Each dequeued request records its queueing delay as an
    {!Obs.Stall.Net_queue} stall (wall clock, ns since server start)
    into a server-owned per-shard ledger that shares the shard's metric
    registry, so [stall.net_queue_ns] surfaces through STATS next to the
    simulated-clock persistence stalls. Replies carry that delay plus
    the dominant persistence-stall cause overlapping the request's
    execution window, so a remote client can attribute its own tail
    latency without a second round trip.

    Transaction writes are buffered per connection in the reader;
    TXN_COMMIT replays them through the store's 2PC under a barrier.

    {b Exactly-once dedup (DESIGN.md §17)}: a HELLO frame grants the
    connection a session id; every mutation stamped with a
    [(session_id, seqno)] pair is recorded durably (a fenced
    {!Incll.Session} extlog record) after it applies and before its
    reply is enqueued, and remembered in a bounded per-shard table.
    A replayed stamp — a client retry after a lost reply, possibly
    straddling a server crash-restart — is answered with the recorded
    status instead of re-applied; each hit bumps the shard's
    [server.dedup_hits] counter. Single-key stamps dedup on the key's
    shard (routing is key-deterministic, so the retry lands on the same
    table); commit stamps dedup on the session's home shard
    ([sid mod nshards]) inside the commit barrier. Tables are rebuilt
    from {!Incll.System.recovered_sessions} when starting over a
    recovered store.

    {!stop} drains gracefully: stop accepting, let readers finish their
    in-flight requests and writers flush every outstanding reply, then
    shut the shard domains down. Answering a connection's last
    outstanding request (the reader holds one count until it stops
    reading) closes its reply queue, so its writer exits once flushed.
    Signal delivery (a SIGTERM handler firing mid-drain, say) cannot
    abort the drain: every blocking syscall in the reader, writer and
    accept loops resumes on EINTR. *)

type t

val start :
  ?config:Incll.System.config ->
  ?queue_capacity:int ->
  (* per-shard request queue bound; default 1024 *)
  ?batch:int ->
  (* max requests a shard domain dequeues at once; default 64 *)
  ?on_dequeue:(shard:int -> unit) ->
  (* test hook: runs on the shard domain after each batch dequeue,
     before execution — block here to force BUSY deterministically *)
  ?store:Store.Sharded.t ->
  (* serve this store instead of creating one — e.g. systems reattached
     from NVM mirrors after a crash-restart; [variant]/[shards]/[config]
     are ignored, and session dedup tables are reseeded from each
     shard's recovered session records *)
  variant:Incll.System.variant ->
  shards:int ->
  Wire.Client.addr ->
  t
(** Bind, listen and spawn the I/O + shard domains. [Tcp (host, 0)]
    binds an ephemeral port; read the real one back from {!addr}. *)

val addr : t -> Wire.Client.addr
(** The bound address (ephemeral TCP port resolved). *)

val store : t -> Store.Sharded.t
(** The underlying store. Only safe to touch after {!stop} — while the
    server runs, the shard domains own it. *)

val nshards : t -> int

val stop : t -> unit
(** Graceful drain, idempotent: stop accepting, wait until every
    connection's in-flight requests have finished, its replies have
    flushed and its socket is closed, then drain and join the shard
    domains. Connections still queued on
    the listen backlog when stop arrives — their [connect] already
    succeeded, possibly with requests already sent — are accepted and
    drained like established ones; requests delivered before the drain
    reached a connection are served normally, later arrivals are bounced
    [Shutting_down]. *)
