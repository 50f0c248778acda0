(** The InCLLp control word (§4.1.1): [nodeEpoch] plus the two transient
    booleans, packed into the word at leaf offset 64:

    {v | logged (1) | insAllowed (1) | nodeEpoch (62) | v}

    [insAllowed] and [logged] are "semantically transient and do not
    require persistence ordering" (§4.1.2) — recovery never trusts them —
    so sharing the epoch's word costs nothing.

    [logged] is bit 63, so the word moves through the region as a split
    word ({!Nvm.Region.read_split}): its top 16 bits and its low 48. In
    between it is held as a tagged [int] that packs the same three fields
    with the flags at bits 61 and 62, which bounds [nodeEpoch] below 2^61
    — some 70 million years of 1 ms epochs. Every function here is
    allocation-free. *)

type t = private int

val max_epoch : int
(** [2^61 - 1]. *)

val make : epoch:int -> ins_allowed:bool -> logged:bool -> t
(** [epoch] must lie in [0, max_epoch]. *)

val epoch : t -> int
val ins_allowed : t -> bool
val logged : t -> bool

val forbid_inserts : t -> t
(** The same word with [ins_allowed] cleared (Listing 3's remove). *)

val of_split : top:int -> low:int -> t
(** Decode the stored word from its top 16 and low 48 bits. *)

val split_top : t -> int
val split_low : t -> int
(** The top 16 and low 48 bits of the stored word. *)
