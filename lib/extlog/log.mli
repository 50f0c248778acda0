(** The external undo log (§4.2), extended with typed transaction records.

    An object-granularity undo log in its own slice of the persistent
    region. When a node must be logged, its {e entire current image} is
    appended and persisted (one [clwb] chain plus one [sfence]) {e before}
    the node is modified. A node is logged at most once per epoch (the
    caller tracks that via the node's logged-epoch field), so entries are
    mutually independent and can be replayed in any order (§4.3).

    Every entry carries a {e kind}: [kind_node] entries are the paper's
    undo images; [kind_txn_prepare] / [kind_txn_commit] entries are
    WAL-style commit-protocol records (serialized write sets keyed by a
    transaction id in the header's addr field) that {!replay} returns
    uncopied and {!Incll.Txn} interprets during recovery.

    The log is logically discarded at every checkpoint: the append cursor is
    transient and truncation resets it to the start, which means the entries
    of the epoch being rolled back always form a contiguous prefix of the
    log area. Each entry carries its epoch and a checksum, so replay applies
    exactly the prefix of intact entries belonging to the crashed epoch and
    stops reading at the first stale or torn entry: recovery costs the
    live prefix, not the log's capacity. *)

type t

exception Log_full
(** Raised by {!append} / {!append_record} when the entry does not fit;
    the caller reacts by forcing a checkpoint (which truncates the log)
    and retrying. *)

val kind_node : int
val kind_txn_prepare : int
val kind_txn_commit : int

val kind_session : int
(** Session dedup record (exactly-once serving, DESIGN.md §17): the addr
    field carries the session id, the payload a serialized
    (seqno, status, op) tuple ({!Incll.Session}). Returned uncopied by
    {!replay}, interpreted alongside txn records during recovery. *)

val attach : Nvm.Region.t -> t
(** Attach to the region's log slice with the cursor at the start. Use after
    [create] or at the start of recovery ({!replay} parks the cursor). *)

val append : t -> epoch:int -> addr:int -> size:int -> unit
(** Log the current image of the object at [addr .. addr+size): copy it into
    the log, write the entry header, flush and fence. [size] must be a
    positive multiple of 8. After [append] returns, the entry is durable. *)

val append_record : t -> kind:int -> epoch:int -> txn_id:int -> payload:string -> unit
(** Append a typed record ([kind_txn_prepare], [kind_txn_commit] or
    [kind_session]): [payload] is NUL-padded to 8 bytes, checksummed and
    fenced exactly like a node entry. After it returns, the record is
    durable. For session records [txn_id] carries the session id. *)

val record_bytes : payload_bytes:int -> int
(** Log bytes an {!append_record} with a payload of [payload_bytes] will
    consume (header + padding included), so a commit sequence can reserve
    headroom — force a checkpoint up front — instead of hitting
    {!Log_full} mid-protocol. *)

val truncate : t -> epoch:int -> unit
(** Logically discard the log (run from a checkpoint subscriber): reset the
    cursor and durably record [epoch] as the truncation floor, so stale
    entries of older epochs that the new epoch does not overwrite can never
    be replayed. *)

val truncation_epoch : t -> int

type record = { kind : int; epoch : int; txn_id : int; payload : string }
(** A typed (non-node) entry: [txn_id] is the header's addr field (the
    session id for [kind_session]), [payload] the NUL-padded bytes. *)

type replayed = {
  applied : int;  (** Node images copied back home. *)
  records : record list;  (** The prefix's typed records, in log order. *)
}

val replay : t -> is_failed:(int -> bool) -> replayed
(** Recovery's one pass over the log. The live prefix is the run of
    intact entries from the start of the log that are at or above the
    truncation floor and belong to a failed epoch; the pass reads it and
    stops at the first entry that is not live, reading nothing after
    that entry's header (appends are contiguous from the truncation
    point, so no later entry can be live). It copies every [kind_node]
    image of the prefix back to its home address, returns the typed
    records for {!Incll.Txn} to resolve (redo or discard), and parks the
    append cursor at the end of the prefix: recovery-time appends
    (transaction redo) must not overwrite entries that a crash during
    recovery replays again. Idempotent, and writes are not flushed — if
    recovery crashes, it simply runs again (§4.3). *)

val fold_all_records : t -> (record -> unit) -> unit
(** Iterate every intact typed record from the start of the log,
    whatever its epoch, stale ones after the live prefix included
    (diagnostics: [incll_fsck]). *)

val scan_entries :
  t -> (kind:int -> epoch:int -> addr:int -> size:int -> unit) -> unit
(** Iterate the intact entry prefix, whatever its epochs (diagnostics and
    tests). *)

(** {1 Statistics (Figure 7 measures logged-node counts)} *)

val nodes_logged : t -> int
(** Successful node-image appends since [attach] (txn records excluded). *)

val bytes_logged : t -> int
val capacity : t -> int
val used : t -> int
