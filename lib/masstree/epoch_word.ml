type t = int

let max_epoch = (1 lsl 61) - 1
let ins_bit = 1 lsl 61
let logged_bit = 1 lsl 62

let make ~epoch ~ins_allowed ~logged =
  if epoch < 0 || epoch > max_epoch then invalid_arg "Epoch_word.make: epoch";
  epoch
  lor (if ins_allowed then ins_bit else 0)
  lor if logged then logged_bit else 0

let epoch w = w land max_epoch
let ins_allowed w = w land ins_bit <> 0
let logged w = w land logged_bit <> 0
let forbid_inserts w = w land lnot ins_bit

(* Stored word: logged at bit 63, insAllowed at 62, the epoch below; its
   top 16 bits are bits 15, 14 and 13..0 of [split_top], of which the
   epoch bound leaves bit 13 clear. *)
let of_split ~top ~low =
  ((top land 0x1fff) lsl 48)
  lor low
  lor (if top land 0x4000 <> 0 then ins_bit else 0)
  lor if top land 0x8000 <> 0 then logged_bit else 0

let split_top w =
  ((w lsr 48) land 0x1fff)
  lor (if ins_allowed w then 0x4000 else 0)
  lor if logged w then 0x8000 else 0

let split_low w = w land 0xffff_ffff_ffff
