(** Masstree's 64-bit [permutation] field (§2.2).

    One word encodes both which leaf slots are occupied and the sorted
    order of the occupied slots:

    {v
    bits 0..3     : count of active entries
    bits 4(i+1).. : 4-bit slot index at sorted rank i
    v}

    The first [count] ranks are the active slots in key order; the
    remaining ranks hold the free slots. Insertion takes the free slot at
    rank [count] and rotates it into place; deletion rotates a slot out
    into the free section. Both are single-word updates — that is what lets
    the paper undo {e any} number of same-epoch inserts and deletes by
    restoring this one word from [permutationInCLL] (§4.1.1).

    The width is 14, one below stock Masstree's 15: the durable leaf gives
    a slot up to the two value InCLLs (§4.1). The word is a tagged [int]:
    its 60 used bits never reach bit 63, so it is loaded and stored with
    {!Nvm.Region.read_int} / {!Nvm.Region.write_int}. All functions are
    pure and allocation-free. *)

type t = int

val width : int
(** 14, the durable leaf width (§4.1). *)

val empty : t
(** No active entries; free slots in ascending order. *)

val count : t -> int
val slot_at_rank : t -> int -> int
(** Slot index stored at sorted rank [i] ([0 <= i < width]; ranks at or
    beyond [count] are free slots). *)

val is_full : t -> bool

val insert : t -> rank:int -> t
(** Activate the first free slot at sorted rank [rank] (shifting later
    ranks); the slot chosen is [slot_at_rank (insert p ~rank) rank]. The
    permutation must not be full, and [0 <= rank <= count]. *)

val remove : t -> rank:int -> t
(** Deactivate the slot at rank [rank] ([slot_at_rank p rank]); it
    becomes the first free slot. *)

val active_slots : t -> int list
(** Slots in sorted order (testing aid). *)

val free_slots : t -> int list

val is_valid : t -> bool
(** The 15 slot values are a permutation of [0..width-1] and
    [count <= width] (testing aid). *)

val pp : Format.formatter -> t -> unit
