(** The packed value-InCLL word (§4.1.3, Listing 2's [ValInCLL]).

    One 64-bit word logs one value-pointer overwrite:

    {v
    | lowNodeEpoch (16) | pointer>>4 (44) | idx (4) |
     63               48 47             4 3        0
    v}

    The paper steals the canonical-form upper bits of an x64 pointer and
    the low bits guaranteed by 16-byte alignment; our region offsets are
    16-byte aligned and far below 2^48, so the same packing applies. [idx]
    identifies which of the seven value slots sharing the cache line was
    logged; 15 ([invalid_idx]) means "unused". The 16 epoch bits combine
    with the high bits of the node's [nodeEpoch] (§4.1.3).

    The epoch field is the word's top 16 bits, so the word moves through
    the region as a split word ({!Nvm.Region.read_split}): the epoch is
    the split's top half as it stands, and this module codes the low 48
    bits. Every function here is allocation-free. *)

val invalid_idx : int

val pack : ptr:int -> idx:int -> int
(** Low 48 bits logging [ptr] (16-byte aligned, below 2^48) for slot
    [idx]. *)

val idx : int -> int
val ptr : int -> int
(** Fields of the low 48 bits. *)

val invalid : int
(** Low 48 bits of an unused InCLL ([pack ~ptr:0 ~idx:invalid_idx]). *)

val is_invalid : int -> bool
