let width = 15
let node_bytes = 384

let off_version = 0
let off_logged_epoch = 8
let off_flags = 16
let off_nkeys = 24

let key_off i =
  if i < 0 || i >= width then invalid_arg "Internal.key_off";
  64 + (8 * i)

let child_off i =
  if i < 0 || i > width then invalid_arg "Internal.child_off";
  192 + (8 * i)

let nkeys region node = Nvm.Region.read_int region (node + off_nkeys)
let set_nkeys region node v =
  Nvm.Region.write_int region (node + off_nkeys) v

let key region node ~i = Nvm.Region.read_i64 region (node + key_off i)
let set_key region node ~i v = Nvm.Region.write_i64 region (node + key_off i) v

let child region node ~i =
  Nvm.Region.read_int region (node + child_off i)

let set_child region node ~i v =
  Nvm.Region.write_int region (node + child_off i) v

let logged_epoch region node =
  Nvm.Region.read_int region (node + off_logged_epoch)

let set_logged_epoch region node v =
  Nvm.Region.write_int region (node + off_logged_epoch) v

let layer region node =
  (Nvm.Region.read_int region (node + off_flags) lsr 8) land 0xffff

let create (alloc : Alloc.Api.t) region ~layer =
  let node = alloc.Alloc.Api.alloc ~aligned:true ~size:node_bytes in
  assert (node land 63 = 0);
  Nvm.Region.write_int region (node + off_version) 0;
  set_logged_epoch region node 0;
  (* bit 0 clear: not a leaf (shared flag position with Leaf). *)
  Nvm.Region.write_int region (node + off_flags) (layer lsl 8);
  set_nkeys region node 0;
  node

let is_full region node = nkeys region node >= width

let search_child region node ~hi:shi ~lo:slo =
  (* First key strictly greater than the slice gives the child index; an
     unboxed comparison in a loop over local refs, so the descent
     allocates nothing. *)
  let lo = ref 0 and hi = ref (nkeys region node) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Nvm.Region.compare_u64 region (node + key_off mid) ~hi:shi ~lo:slo <= 0
    then lo := mid + 1
    else hi := mid
  done;
  !lo

let insert_separator region node ~at ~sep ~right =
  let n = nkeys region node in
  if n >= width then invalid_arg "Internal.insert_separator: full";
  if at < 0 || at > n then invalid_arg "Internal.insert_separator: bad index";
  for i = n downto at + 1 do
    set_key region node ~i (key region node ~i:(i - 1))
  done;
  for i = n + 1 downto at + 2 do
    set_child region node ~i (child region node ~i:(i - 1))
  done;
  set_key region node ~i:at sep;
  set_child region node ~i:(at + 1) right;
  set_nkeys region node (n + 1)

let remove_child region node ~i =
  let n = nkeys region node in
  if n < 1 then invalid_arg "Internal.remove_child: no keys";
  if i < 0 || i > n then invalid_arg "Internal.remove_child: bad index";
  (* Dropping child [i] removes the separator between it and a neighbour:
     key [i-1] for i>0, key 0 when the leftmost child goes. *)
  let kdrop = if i = 0 then 0 else i - 1 in
  for j = kdrop to n - 2 do
    set_key region node ~i:j (key region node ~i:(j + 1))
  done;
  for j = i to n - 1 do
    set_child region node ~i:j (child region node ~i:(j + 1))
  done;
  set_nkeys region node (n - 1)
