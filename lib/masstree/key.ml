let layer_link_len = 15
let suffix_len_marker = 9

(* Byte [i] of [key], 0 past its end (zero padding). *)
let byte key i =
  if i < String.length key then Char.code (String.unsafe_get key i) else 0

let slice_off key ~layer =
  let off = 8 * layer in
  if off > String.length key then invalid_arg "Key: layer beyond key";
  off

let be32 key off =
  (byte key off lsl 24)
  lor (byte key (off + 1) lsl 16)
  lor (byte key (off + 2) lsl 8)
  lor byte key (off + 3)

let slice_hi key ~layer = be32 key (slice_off key ~layer)
let slice_lo key ~layer = be32 key (slice_off key ~layer + 4)
let slice_len key ~layer = min 8 (String.length key - slice_off key ~layer)

let slice key ~layer =
  Int64.logor
    (Int64.shift_left (Int64.of_int (slice_hi key ~layer)) 32)
    (Int64.of_int (slice_lo key ~layer))

let hi32 s = Int64.to_int (Int64.shift_right_logical s 32)
let lo32 s = Int64.to_int s land 0xffff_ffff
let has_suffix key ~layer = String.length key > 8 * (layer + 1)

let suffix key ~layer =
  let off = 8 * (layer + 1) in
  String.sub key off (String.length key - off)

let compare_slices = Int64.unsigned_compare

let compare_entry s1 l1 s2 l2 =
  let c = compare_slices s1 s2 in
  if c <> 0 then c else compare (l1 : int) l2

let bytes_of_slice bits ~len =
  String.init len (fun i ->
      Char.chr
        (Int64.to_int
           (Int64.logand (Int64.shift_right_logical bits (8 * (7 - i))) 0xffL)))

let of_int64 v = bytes_of_slice v ~len:8

let to_int64 s =
  if String.length s <> 8 then invalid_arg "Key.to_int64: need 8 bytes";
  slice s ~layer:0
