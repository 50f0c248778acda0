let invalid_idx = 15

let pack ~ptr ~idx =
  if ptr land 15 <> 0 then invalid_arg "Val_incll.pack: unaligned pointer";
  if idx < 0 || idx > 15 then invalid_arg "Val_incll.pack: bad idx";
  ptr land 0xffff_ffff_fff0 lor idx

let idx low = low land 0xf
let ptr low = low land 0xffff_ffff_fff0
let invalid = invalid_idx
let is_invalid low = idx low = invalid_idx
