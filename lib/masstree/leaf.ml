let width = 14
let node_bytes = 384

let off_version = 0
let off_next = 8
let off_flags = 16
let off_prev = 24
let off_epoch_word = 64
let off_perm_incll = 72
let off_perm = 80
let incll1_off = 256
let incll2_off = 376

let key_off slot =
  if slot < 0 || slot >= width then invalid_arg "Leaf.key_off";
  88 + (8 * slot)

let keylen_off slot =
  if slot < 0 || slot >= width then invalid_arg "Leaf.keylen_off";
  200 + slot

let val_off slot =
  if slot < 0 || slot >= width then invalid_arg "Leaf.val_off"
  else if slot <= 6 then 264 + (8 * slot)
  else 320 + (8 * (slot - 7))

(* Layout invariants the InCLL algorithm depends on. *)
let () =
  assert (off_epoch_word / 64 = off_perm / 64);
  assert (off_perm_incll / 64 = off_perm / 64);
  for s = 0 to 6 do
    assert (val_off s / 64 = incll1_off / 64)
  done;
  for s = 7 to 13 do
    assert (val_off s / 64 = incll2_off / 64)
  done

let flag_leaf = 1

let version region node = Nvm.Region.read_int region (node + off_version)
let set_version region node v = Nvm.Region.write_int region (node + off_version) v
let next region node = Nvm.Region.read_int region (node + off_next)
let set_next region node v = Nvm.Region.write_int region (node + off_next) v
let prev region node = Nvm.Region.read_int region (node + off_prev)
let set_prev region node v = Nvm.Region.write_int region (node + off_prev) v

let flags region node = Nvm.Region.read_int region (node + off_flags)
let layer region node = (flags region node lsr 8) land 0xffff
let is_leaf_node region node = flags region node land flag_leaf = flag_leaf

let epoch_word region node =
  let low = Nvm.Region.read_split region (node + off_epoch_word) in
  Epoch_word.of_split ~top:(Nvm.Region.split_top region) ~low

let set_epoch_word region node w =
  Nvm.Region.write_split region (node + off_epoch_word)
    ~top:(Epoch_word.split_top w) ~low:(Epoch_word.split_low w)

let perm_incll region node = Nvm.Region.read_int region (node + off_perm_incll)
let set_perm_incll region node v = Nvm.Region.write_int region (node + off_perm_incll) v
let perm region node = Nvm.Region.read_int region (node + off_perm)
let set_perm region node v = Nvm.Region.write_int region (node + off_perm) v

let key region node ~slot = Nvm.Region.read_i64 region (node + key_off slot)

let set_key region node ~slot ~hi ~lo =
  Nvm.Region.write_split region (node + key_off slot) ~top:(hi lsr 16)
    ~low:(((hi land 0xffff) lsl 32) lor lo)

let keylen region node ~slot = Nvm.Region.read_u8 region (node + keylen_off slot)
let set_keylen region node ~slot v = Nvm.Region.write_u8 region (node + keylen_off slot) v

let value region node ~slot =
  Nvm.Region.read_int region (node + val_off slot)

let set_value region node ~slot v =
  Nvm.Region.write_int region (node + val_off slot) v

let incll_which slot = if slot <= 6 then 0 else 1
let incll_addr node which = node + if which = 0 then incll1_off else incll2_off
let incll region node ~which = Nvm.Region.read_split region (incll_addr node which)

let set_incll region node ~which ~low_epoch ~low =
  Nvm.Region.write_split region (incll_addr node which) ~top:low_epoch ~low

let create (alloc : Alloc.Api.t) region ~layer ~epoch =
  let node = alloc.Alloc.Api.alloc ~aligned:true ~size:node_bytes in
  assert (node land 63 = 0);
  set_version region node 0;
  set_next region node 0;
  set_prev region node 0;
  Nvm.Region.write_int region (node + off_flags) (flag_leaf lor (layer lsl 8));
  set_perm_incll region node Permutation.empty;
  set_epoch_word region node
    (Epoch_word.make ~epoch ~ins_allowed:true ~logged:false);
  set_perm region node Permutation.empty;
  let low_epoch = epoch land 0xffff in
  set_incll region node ~which:0 ~low_epoch ~low:Val_incll.invalid;
  set_incll region node ~which:1 ~low_epoch ~low:Val_incll.invalid;
  node

let entry_count region node = Permutation.count (perm region node)

(* Binary search over the sorted ranks. Invariant: entries at ranks < lo
   are smaller, at ranks >= hi are greater or equal. The probe reads
   keylen before the key slice (the historical argument order of the
   entry comparison) and compares via {!Nvm.Region.compare_u64}; a loop
   over local refs, not a local closure, so a search allocates nothing. *)
let find region node ~hi:shi ~lo:slo ~keylen:klen =
  let p = perm region node in
  let lo = ref 0 and hi = ref (Permutation.count p) and found = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let slot = Permutation.slot_at_rank p mid in
    let kl = keylen region node ~slot in
    let c = Nvm.Region.compare_u64 region (node + key_off slot) ~hi:shi ~lo:slo in
    let c = if c <> 0 then c else compare (kl : int) klen in
    if c = 0 then begin
      found := mid;
      hi := !lo
    end
    else if c < 0 then lo := mid + 1
    else hi := mid
  done;
  if !found >= 0 then !found else lnot !lo
