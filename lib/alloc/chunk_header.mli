(** The compact 16-byte chunk header of the durable allocator (§5.1).

    Three logical fields — [next], [nextInCLL] and a 32-bit epoch — are
    packed into two words that share the chunk's first cache line:

    {v
    word0 (next):      | epoch[31:16] | class[1:0] | ptr>>4 (44b) | ctr (2b) |
    word1 (nextInCLL): | epoch[15:0]  | class[3:2] | ptr>>4 (44b) | ctr (2b) |
                        63          48  47       46 45           2 1        0
    v}

    The paper steals the upper 16 bits of each canonical-form pointer for
    the two epoch halves and the (16-byte-alignment) low bits for a 2-bit
    counter; we additionally stash the size class in the two remaining bits
    of each word, which a real implementation derives from segregated pages.

    The counter is bumped when both words are rewritten at the first
    modification of an epoch. Equal counters ⇒ both words are from the same
    update and the epoch halves combine; unequal counters ⇒ the crash hit
    between the two stores and [next] must be recovered from [nextInCLL]
    (§5.1).

    The epoch halves occupy bit 63, so both words move through the region
    as split words ({!Nvm.Region.read_split}), and a header decodes into a
    caller-owned {!view}: no function here allocates. *)

type view = {
  mutable next : int;  (** Current free-list successor (payload of word0). *)
  mutable next_incll : int;  (** Successor at the beginning of [epoch]. *)
  mutable epoch : int;  (** 32-bit epoch reassembled from the two halves. *)
  mutable ctr_matches : bool;
  mutable size_class : int;
}

val view : unit -> view
(** A zeroed view to decode into (one per allocator). *)

val read : Nvm.Region.t -> chunk:int -> view -> unit
(** Decode both header words into the view. When [ctr_matches] is false,
    [epoch] is meaningless and only [next_incll] and [size_class] may be
    trusted. *)

val write_first_touch :
  Nvm.Region.t -> chunk:int -> current_next:int -> epoch:int -> cls:int -> unit
(** First modification of the chunk in [epoch]: store
    [nextInCLL := current_next] and re-tag [next := current_next] with the
    new epoch and a bumped counter — word1 strictly before word0, in the
    same cache line, so PCSO gives the §5.1 recovery invariant. *)

val write_next : Nvm.Region.t -> chunk:int -> next:int -> unit
(** Subsequent modification within the same epoch: rewrite word0's pointer
    bits only, preserving counter, epoch half and class. *)

val init : Nvm.Region.t -> chunk:int -> epoch:int -> cls:int -> unit
(** Initialise the header of a freshly carved chunk ([next = null]). *)

val restore : Nvm.Region.t -> chunk:int -> marker_epoch:int -> unit
(** Recovery: [next := nextInCLL] and re-stamp both words with
    [marker_epoch] and a fresh counter. Idempotent. *)
