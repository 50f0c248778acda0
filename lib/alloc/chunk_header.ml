type view = {
  mutable next : int;
  mutable next_incll : int;
  mutable epoch : int;
  mutable ctr_matches : bool;
  mutable size_class : int;
}

let view () =
  { next = 0; next_incll = 0; epoch = 0; ctr_matches = true; size_class = 0 }

(* A word's low 48 bits: class bits, pointer, counter. Its top 16 bits
   are the epoch half. *)
let encode ~ptr ~ctr ~cls2 =
  if ptr land 15 <> 0 then invalid_arg "Chunk_header: unaligned pointer";
  ((cls2 land 3) lsl 46) lor ((ptr lsr 4) lsl 2) lor (ctr land 3)

let ctr_of low = low land 3
let ptr_of low = ((low lsr 2) land 0xfff_ffff_ffff) lsl 4
let cls2_of low = (low lsr 46) land 3

let read region ~chunk v =
  let l0 = Nvm.Region.read_split region chunk in
  let hi = Nvm.Region.split_top region in
  let l1 = Nvm.Region.read_split region (chunk + 8) in
  let lo = Nvm.Region.split_top region in
  v.next <- ptr_of l0;
  v.next_incll <- ptr_of l1;
  v.epoch <- (hi lsl 16) lor lo;
  v.ctr_matches <- ctr_of l0 = ctr_of l1;
  v.size_class <- (cls2_of l1 lsl 2) lor cls2_of l0

let write_words region ~chunk ~next ~next_incll ~ctr ~epoch ~cls =
  (* word1 (the log copy) strictly before word0; same line => PCSO keeps
     this order on a crash. *)
  Nvm.Region.write_split region (chunk + 8) ~top:epoch
    ~low:(encode ~ptr:next_incll ~ctr ~cls2:(cls lsr 2));
  Nvm.Region.write_split region chunk ~top:(epoch lsr 16)
    ~low:(encode ~ptr:next ~ctr ~cls2:cls);
  Nvm.Region.release_fence region

let write_first_touch region ~chunk ~current_next ~epoch ~cls =
  let ctr0 = ctr_of (Nvm.Region.read_split region chunk) in
  write_words region ~chunk ~next:current_next ~next_incll:current_next
    ~ctr:(ctr0 + 1) ~epoch ~cls

let write_next region ~chunk ~next =
  let l0 = Nvm.Region.read_split region chunk in
  Nvm.Region.write_split region chunk
    ~top:(Nvm.Region.split_top region)
    ~low:(encode ~ptr:next ~ctr:(ctr_of l0) ~cls2:(cls2_of l0))

let init region ~chunk ~epoch ~cls =
  write_words region ~chunk ~next:0 ~next_incll:0 ~ctr:0 ~epoch ~cls

let restore region ~chunk ~marker_epoch =
  let l0 = Nvm.Region.read_split region chunk in
  let l1 = Nvm.Region.read_split region (chunk + 8) in
  let next_incll = ptr_of l1 in
  let cls = (cls2_of l1 lsl 2) lor cls2_of l0 in
  let ctr0 = ctr_of (Nvm.Region.read_split region chunk) in
  (* The new ctr must differ from word0's current one: [write_words] emits
     word1 first, so a crash that persists only word1 would otherwise leave
     the two ctrs equal by coincidence (old ctr0 = 0) while the decoded
     epoch is a chimera of word0's high half and word1's low half — a state
     that reads as committed but still carries the failed [next]. With
     ctr0+1 a torn restore is always a visible mismatch and simply re-runs. *)
  write_words region ~chunk ~next:next_incll ~next_incll ~ctr:(ctr0 + 1)
    ~epoch:marker_epoch ~cls
