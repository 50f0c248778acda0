(** Durable Masstree leaf node: layout accessors (Figure 1, Listing 2).

    A leaf is a 384-byte, cache-line-aligned NVM object of six lines:

    {v
    line 0 (  0- 63): version | next | flags | prev | reserved
    line 1 ( 64-127): epochWord(InCLLp) | permutationInCLL | permutation | keys[0..4]
    line 2 (128-191): keys[5..12]
    line 3 (192-255): keys[13] | keylen[0..13] | reserved
    line 4 (256-319): InCLL1 | vals[0..6]
    line 5 (320-383): vals[7..13] | InCLL2
    v}

    Line 1 co-locates [nodeEpoch], [permutationInCLL] and [permutation] —
    the ordering invariant of §4.1.2 depends on it. Lines 4/5 place each
    value InCLL in the same line as the seven value slots it can log
    (§4.1.3). This module is pure layout: the InCLL {e algorithm} lives in
    the [incll] library's hooks.

    Width is 14 (one key/value fewer than stock Masstree — the price of the
    two value InCLLs, §4.1). *)

val width : int
val node_bytes : int

(** {1 Field offsets (for white-box tests and the recovery code)} *)

val off_version : int
val off_next : int
val off_flags : int
val off_prev : int
val off_epoch_word : int
val off_perm_incll : int
val off_perm : int
val key_off : int -> int
val keylen_off : int -> int
val val_off : int -> int
val incll1_off : int
val incll2_off : int

val create :
  Alloc.Api.t -> Nvm.Region.t -> layer:int -> epoch:int -> int
(** Allocate and initialise an empty leaf: empty permutation, InCLLp
    stamped with [epoch], both value InCLLs invalid. Returns the node
    address (64-byte aligned). *)

(** {1 Accessors}

    Allocation-free, except {!key}: words whose bit 63 is always 0
    (version, flags, permutations, pointers) go through
    {!Nvm.Region.read_int}; the epoch word, the value InCLLs and the key
    stores use split words ({!Nvm.Region.read_split}). *)

val version : Nvm.Region.t -> int -> int
val set_version : Nvm.Region.t -> int -> int -> unit
val next : Nvm.Region.t -> int -> int
val set_next : Nvm.Region.t -> int -> int -> unit
val prev : Nvm.Region.t -> int -> int
val set_prev : Nvm.Region.t -> int -> int -> unit
val layer : Nvm.Region.t -> int -> int
val is_leaf_node : Nvm.Region.t -> int -> bool
(** Discriminate leaf from internal via the flags word (shared offset). *)

val epoch_word : Nvm.Region.t -> int -> Epoch_word.t
val set_epoch_word : Nvm.Region.t -> int -> Epoch_word.t -> unit
val perm_incll : Nvm.Region.t -> int -> Permutation.t
val set_perm_incll : Nvm.Region.t -> int -> Permutation.t -> unit
val perm : Nvm.Region.t -> int -> Permutation.t
val set_perm : Nvm.Region.t -> int -> Permutation.t -> unit

val key : Nvm.Region.t -> int -> slot:int -> int64
(** The slot's key slice (allocates the [int64]: splits, scans and
    validation only). *)

val set_key : Nvm.Region.t -> int -> slot:int -> hi:int -> lo:int -> unit
(** Store the slice whose unsigned 32-bit halves are [hi] and [lo]. *)

val keylen : Nvm.Region.t -> int -> slot:int -> int
val set_keylen : Nvm.Region.t -> int -> slot:int -> int -> unit
val value : Nvm.Region.t -> int -> slot:int -> int
val set_value : Nvm.Region.t -> int -> slot:int -> int -> unit

val incll_which : int -> int
(** The value InCLL covering slot [i]'s cache line: 0 (InCLL1) for slots
    0–6, 1 (InCLL2) for slots 7–13. *)

val incll : Nvm.Region.t -> int -> which:int -> int
(** Load value InCLL [which] as a split word: returns its low 48 bits
    (see {!Val_incll}); its 16 epoch bits are then
    [Nvm.Region.split_top region]. *)

val set_incll :
  Nvm.Region.t -> int -> which:int -> low_epoch:int -> low:int -> unit

(** {1 Search} *)

val find : Nvm.Region.t -> int -> hi:int -> lo:int -> keylen:int -> int
(** Binary search over the permutation's sorted ranks by
    [(slice, keylen)], the slice given by its unsigned 32-bit halves.
    Returns the rank [r >= 0] of the matching entry, or [lnot r] (< 0)
    when absent, [r] being the rank to insert it at. Allocates nothing. *)

val entry_count : Nvm.Region.t -> int -> int
