(** Masstree keys: arbitrary byte strings, consumed 8 bytes per trie layer
    (§2.2).

    At layer [l] a key contributes a {e slice} — its bytes
    [8l .. 8l+7] packed big-endian into 64 bits (zero-padded) — plus the
    number of key bytes the slice actually covers. Keys that extend past a
    layer descend into the next layer with the remaining suffix.

    The hot paths take a slice as its two unsigned 32-bit halves, tagged
    ints that {!Nvm.Region.compare_u64} compares against a stored word
    without boxing; splits, scans and validation use the [int64] form.

    In-leaf ordering is by [(slice unsigned, keylen)], with the
    layer-link marker sorting after every terminal length; because slices
    are big-endian and zero-padded, this coincides with lexicographic byte
    order of the full keys. *)

val layer_link_len : int
(** Sentinel keylen (15) marking a slot whose value is the next-layer
    root. *)

val suffix_len_marker : int
(** Sentinel keylen (9) marking a slot whose key continues past the slice
    with a suffix stored inline in the value buffer (Masstree's ksuf). It
    sorts after a full 8-byte terminal and before a layer link, matching
    the fact that suffixed keys are longer than their slice. At most one
    of a suffix entry / a link entry exists per slice: a second long key
    on the same slice converts the suffix entry into a nested layer. *)

val slice_hi : string -> layer:int -> int
val slice_lo : string -> layer:int -> int
(** Unsigned 32-bit halves of the slice of [key] at trie depth [layer]
    (8-byte granularity). Allocation-free; raise [Invalid_argument] when
    the layer lies beyond the key. *)

val slice_len : string -> layer:int -> int
(** Key bytes the slice covers (0–8); 8 with remaining bytes means the
    key continues in the next layer. *)

val slice : string -> layer:int -> int64
(** The whole slice as an [int64]. *)

val hi32 : int64 -> int
val lo32 : int64 -> int
(** Unsigned 32-bit halves of a slice. *)

val has_suffix : string -> layer:int -> bool
(** True when the key extends beyond this layer's 8 bytes. *)

val suffix : string -> layer:int -> string
(** Remaining bytes after this layer (only when [has_suffix]). *)

val compare_slices : int64 -> int64 -> int
(** Unsigned 64-bit comparison (big-endian packing makes this byte order). *)

val compare_entry : int64 -> int -> int64 -> int -> int
(** [(slice, keylen)] ordering used inside a leaf. *)

val bytes_of_slice : int64 -> len:int -> string
(** Recover the raw bytes of a slice (for key reconstruction in scans). *)

val of_int64 : int64 -> string
(** 8-byte big-endian key from an integer (benchmark keys). *)

val to_int64 : string -> int64
(** Inverse of {!of_int64}; the string must be exactly 8 bytes. *)
