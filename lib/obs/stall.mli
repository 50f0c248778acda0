(** Stall ledger: a bounded per-shard ring of attributed stall intervals.

    A "stall" is a window of simulated time during which the shard made no
    progress on user operations because the runtime was busy with
    persistence machinery: an epoch flush, an sfence-backed clwb sweep, an
    external-log append or wrap-forced checkpoint, a limbo merge, the
    allocator's bump slow path, a transaction fence, or recovery. Each
    stall is recorded as [{cause; start_ns; dur_ns; epoch}] on the
    simulated clock, bumped into a per-cause [stall.<cause>_ns] histogram,
    and kept in a bounded ring so the bench harness can correlate slow
    operations against the stalls that overlapped them.

    Scoping is outermost-wins: instrumentation sites open a scope with
    {!enter}/{!exit}; nested scopes (an sfence inside an extlog append
    inside a txn fence) are swallowed by the outermost one, so each unit
    of stalled time is attributed to exactly one root cause and never
    double-counted. {!leaf} records a point stall only when no scope is
    open (the sfence/wbinvd hooks inside {!Nvm.Region} use it, so they are
    free-standing stalls between epochs and absorbed during one).

    One ledger belongs to one region (= one shard = one domain); no
    internal locking. *)

type cause =
  | Epoch_advance  (** stop-the-world wbinvd flush + durable epoch write *)
  | Clwb_sweep  (** sfence-backed clwb drain outside any coarser scope *)
  | Extlog  (** external-log append/seal, or a wrap-forced checkpoint *)
  | Limbo_merge  (** allocator limbo-chain merge at a checkpoint *)
  | Alloc_slow  (** allocator bump slow path (fresh chunk carve-out) *)
  | Txn_fence  (** transaction prepare/commit-record/watermark fences *)
  | Recovery  (** post-crash recovery, all phases *)
  | Net_queue
      (** time a request spent parked in a server shard queue before its
          shard domain picked it up (the serving layer's queueing delay;
          wall clock — the queue exists outside the simulated memory
          system) *)

val all_causes : cause list
(** Every constructor, in declaration order (exhaustiveness tests and
    per-cause tables iterate this). *)

val cause_name : cause -> string
(** Stable lowercase name: ["epoch_advance"], ["clwb_sweep"], ... — used
    as the [stall.<cause>_ns] metric suffix and the Perfetto slice name. *)

val cause_index : cause -> int
(** Position in {!all_causes} — the wire protocol's cause byte. *)

val cause_of_index : int -> cause option
(** Inverse of {!cause_index}; [None] out of range. *)

type entry = {
  cause : cause;
  start_ns : float;  (** simulated-clock start of the stall *)
  dur_ns : float;
  epoch : int;  (** shard epoch current when the stall was recorded *)
}

val dominant_cause : entry list -> t0:float -> t1:float -> cause option
(** The cause with the largest total overlap against the [t0, t1) window
    among [entries] (typically an {!overlapping} result); [None] when
    nothing overlaps. The bench runner's slow-op attribution and the
    server's per-request stall reporting share this. *)

type t

val create :
  ?capacity:int -> ?registry:Registry.t -> ?clock:Clock.t -> unit -> t
(** Ring of at most [capacity] (default 1024) entries. When [registry] is
    given, per-cause [stall.<cause>_ns] histograms are created in it so
    stall durations surface through the ordinary metrics pipeline.
    [clock] (default: a private clock at 0) stamps {!enter}, {!exit} and
    {!leaf}; a region passes its simulated clock. *)

val set_epoch : t -> int -> unit
(** Stamp subsequent entries with this epoch (the epoch manager owns the
    epoch counter; the region that owns the ledger does not). *)

val set_min_dur_ns : t -> float -> unit
(** Ring admission filter: entries shorter than this are still counted in
    histograms and per-cause totals but not kept in the ring (per-op
    sfences would otherwise evict the interesting entries). Default 0. *)

val record : t -> cause -> start_ns:float -> dur_ns:float -> unit
(** Record one stall directly (tests / out-of-band sites). *)

val enter : t -> cause -> unit
(** Open a scope at the clock's current time. Nested calls only bump a
    depth counter — the outermost cause wins. Never allocates. *)

val exit : t -> unit
(** Close the innermost scope; when the outermost closes, one entry is
    recorded spanning [enter]'s time to the clock's current time.
    Unbalanced [exit] (no open scope) is a no-op. Allocates only when it
    records an entry. *)

val in_scope : t -> bool
(** True while any scope is open (leaf recordings are suppressed). *)

val leaf : t -> cause -> dur_ns:float -> unit
(** Record a point stall of [dur_ns] ending at the clock's current time,
    unless a scope is open (in which case the open scope already accounts
    for this time). *)

val length : t -> int
(** Entries currently held in the ring. *)

val capacity : t -> int

val admitted : t -> int
(** Lifetime count of entries admitted to the ring (≥ [length]; the
    difference is what wrapped out). *)

val entries : t -> entry list
(** Ring contents, oldest first. *)

val overlapping : t -> t0:float -> t1:float -> entry list
(** Ring entries whose [start_ns, start_ns + dur_ns) interval intersects
    [t0, t1), oldest first. *)

val counts : t -> (cause * int) list
(** Lifetime per-cause entry counts (unfiltered by [min_dur_ns]), in
    {!all_causes} order. *)

val totals_ns : t -> (cause * float) list
(** Lifetime per-cause total stalled nanoseconds (unfiltered), in
    {!all_causes} order. *)

val clear : t -> unit
(** Drop ring contents, lifetime counts/totals and any open scope (the
    registry histograms, if any, are left alone — window measurements
    already diff those). *)

val to_json : t -> Json.t
(** [{"causes": {name: {count, total_ns}}, "entries": [...]}] — entries
    oldest first, each [{cause, start_ns, dur_ns, epoch}]. *)
