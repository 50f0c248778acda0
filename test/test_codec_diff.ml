(* Differential test of the NVM word codecs. The codecs decode with int
   arithmetic and move words whose bit 63 matters as split words; the
   [Int64] encoders and decoders they replaced are kept below, in this
   test only, as the reference model. Every generator leans on the cases
   that exercise bit 63: [logged] set, value-InCLL low epochs >= 0x8000,
   chunk-header epoch halves >= 0x8000. *)

module EW = Masstree.Epoch_word
module V = Masstree.Val_incll
module P = Masstree.Permutation
module CH = Alloc.Chunk_header

(* --- the reference model: the historical Int64 codecs ------------------- *)

let mask w = if w = 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L
let get x ~lo ~width = Int64.logand (Int64.shift_right_logical x lo) (mask width)
let get_int x ~lo ~width = Int64.to_int (get x ~lo ~width)

let set x ~lo ~width v =
  let m = Int64.shift_left (mask width) lo in
  Int64.logor
    (Int64.logand x (Int64.lognot m))
    (Int64.shift_left (Int64.logand v (mask width)) lo)

module Ref = struct
  let ew_pack ~epoch ~ins_allowed ~logged =
    let open Int64 in
    logor
      (logand (of_int epoch) (mask 62))
      (logor
         (if ins_allowed then shift_left 1L 62 else 0L)
         (if logged then shift_left 1L 63 else 0L))

  let ew_unpack w =
    (get_int w ~lo:0 ~width:62, get w ~lo:62 ~width:1 = 1L, get w ~lo:63 ~width:1 = 1L)

  let vi_pack ~ptr ~idx ~low_epoch =
    let open Int64 in
    logor
      (of_int (idx land 0xf))
      (logor
         (shift_left (of_int (ptr lsr 4)) 4)
         (shift_left (of_int (low_epoch land 0xffff)) 48))

  let vi_unpack w =
    ( get_int w ~lo:4 ~width:44 lsl 4,
      get_int w ~lo:0 ~width:4,
      get_int w ~lo:48 ~width:16 )

  let ch_encode ~ptr ~ctr ~cls2 ~half =
    let open Int64 in
    logor
      (of_int (ctr land 3))
      (logor
         (shift_left (of_int (ptr lsr 4)) 2)
         (logor
            (shift_left (of_int (cls2 land 3)) 46)
            (shift_left (of_int (half land 0xffff)) 48)))

  let ch_decode w =
    ( get_int w ~lo:0 ~width:2,
      get_int w ~lo:2 ~width:44 lsl 4,
      get_int w ~lo:46 ~width:2,
      get_int w ~lo:48 ~width:16 )

  (* (next, next_incll, epoch, ctr_matches, size_class) *)
  let ch_read region ~chunk =
    let ctr0, ptr0, cls_lo, hi = ch_decode (Nvm.Region.read_i64 region chunk) in
    let ctr1, ptr1, cls_hi, lo = ch_decode (Nvm.Region.read_i64 region (chunk + 8)) in
    (ptr0, ptr1, (hi lsl 16) lor lo, ctr0 = ctr1, (cls_hi lsl 2) lor cls_lo)

  let ch_write_words region ~chunk ~next ~next_incll ~ctr ~epoch ~cls =
    let hi = (epoch lsr 16) land 0xffff and lo = epoch land 0xffff in
    Nvm.Region.write_i64 region (chunk + 8)
      (ch_encode ~ptr:next_incll ~ctr ~cls2:(cls lsr 2) ~half:lo);
    Nvm.Region.write_i64 region chunk (ch_encode ~ptr:next ~ctr ~cls2:cls ~half:hi);
    Nvm.Region.release_fence region

  let ch_write_first_touch region ~chunk ~current_next ~epoch ~cls =
    let ctr0, _, _, _ = ch_decode (Nvm.Region.read_i64 region chunk) in
    ch_write_words region ~chunk ~next:current_next ~next_incll:current_next
      ~ctr:((ctr0 + 1) land 3) ~epoch ~cls

  let ch_write_next region ~chunk ~next =
    let ctr, _, cls_lo, hi = ch_decode (Nvm.Region.read_i64 region chunk) in
    Nvm.Region.write_i64 region chunk (ch_encode ~ptr:next ~ctr ~cls2:cls_lo ~half:hi)

  let ch_restore region ~chunk ~marker_epoch =
    let _, next_incll, _, _, cls = ch_read region ~chunk in
    let ctr0, _, _, _ = ch_decode (Nvm.Region.read_i64 region chunk) in
    ch_write_words region ~chunk ~next:next_incll ~next_incll
      ~ctr:((ctr0 + 1) land 3) ~epoch:marker_epoch ~cls

  let nibble p i = get_int p ~lo:(4 * i) ~width:4
  let set_rank p rank slot = set p ~lo:(4 * (rank + 1)) ~width:4 (Int64.of_int slot)
  let with_count p c = set p ~lo:0 ~width:4 (Int64.of_int c)

  let perm_empty =
    let rec fill p i = if i >= P.width then p else fill (set_rank p i i) (i + 1) in
    fill 0L 0

  let perm_insert p ~rank =
    let c = nibble p 0 in
    let slot = nibble p (c + 1) in
    let p' = ref p in
    for i = c downto rank + 1 do
      p' := set_rank !p' i (nibble !p' i)
    done;
    (with_count (set_rank !p' rank slot) (c + 1), slot)

  let perm_remove p ~rank =
    let c = nibble p 0 in
    let slot = nibble p (rank + 1) in
    let p' = ref p in
    for i = rank to c - 2 do
      p' := set_rank !p' i (nibble !p' (i + 2))
    done;
    (with_count (set_rank !p' (c - 1) slot) (c - 1), slot)
end

(* --- helpers ------------------------------------------------------------- *)

let region () =
  Nvm.Region.create
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = 64 * 1024;
      extlog_bytes = 4096;
      crash_support = Nvm.Config.Counting;
    }

(* Shared by every case: each one writes the words it reads. *)
let ra = region ()
let rb = region ()

let addr = 4096

(* The 64-bit word a split pair denotes. *)
let of_split ~top ~low =
  Int64.logor (Int64.shift_left (Int64.of_int top) 48) (Int64.of_int low)

let split_of w r =
  Nvm.Region.write_i64 r addr w;
  let low = Nvm.Region.read_split r addr in
  (Nvm.Region.split_top r, low)

(* Half the draws from [0x8000, 0xffff]: bit 63 set. *)
let half16 =
  QCheck.Gen.(oneof [ int_bound 0xffff; map (fun x -> 0x8000 lor x) (int_bound 0x7fff) ])

let ptr_gen = QCheck.Gen.(map (fun x -> x * 16) (int_bound ((1 lsl 44) - 1)))

(* --- properties ---------------------------------------------------------- *)

let region_split_words =
  QCheck.Test.make ~name:"region split words = int64 words" ~count:1000
    QCheck.int64 (fun w ->
      let r = ra in
      let top, low = split_of w r in
      Nvm.Region.write_split r (addr + 8) ~top ~low;
      of_split ~top ~low = w && Nvm.Region.read_i64 r (addr + 8) = w)

let epoch_word =
  QCheck.Test.make ~name:"epoch word codec = int64 reference" ~count:2000
    QCheck.(
      make
        Gen.(
          triple
            (oneof [ int_bound 1_000_000; int_bound EW.max_epoch ])
            bool (frequency [ (3, return true); (1, return false) ])))
    (fun (epoch, ins_allowed, logged) ->
      let w = EW.make ~epoch ~ins_allowed ~logged in
      let word = Ref.ew_pack ~epoch ~ins_allowed ~logged in
      let r = ra in
      let top, low = split_of word r in
      let d = EW.of_split ~top ~low in
      of_split ~top:(EW.split_top w) ~low:(EW.split_low w) = word
      && Ref.ew_unpack word = (EW.epoch d, EW.ins_allowed d, EW.logged d))

let val_incll =
  QCheck.Test.make ~name:"value InCLL codec = int64 reference" ~count:2000
    QCheck.(make Gen.(triple ptr_gen (int_bound 15) half16))
    (fun (ptr, idx, low_epoch) ->
      let word = Ref.vi_pack ~ptr ~idx ~low_epoch in
      let r = ra in
      let top, low = split_of word r in
      of_split ~top:low_epoch ~low:(V.pack ~ptr ~idx) = word
      && Ref.vi_unpack word = (V.ptr low, V.idx low, top)
      && V.is_invalid low = (idx = V.invalid_idx))

(* Two regions start from the same reference-encoded header; each header
   operation runs through the codec on one and the reference on the
   other, and the words and decodes must agree after every step. *)
let chunk_header =
  QCheck.Test.make ~name:"chunk header codec = int64 reference" ~count:1000
    QCheck.(
      make
        Gen.(
          pair
            (tup4 ptr_gen ptr_gen (pair half16 half16) (pair (int_bound 3) (int_bound 3)))
            (tup3 (int_bound 15) ptr_gen (pair half16 half16))))
    (fun ((next, next_incll, (ehi, elo), (ctr0, ctr1)), (cls, ptr, (mhi, mlo))) ->
      let a = ra and b = rb in
      List.iter
        (fun r ->
          Nvm.Region.write_i64 r (addr + 8)
            (Ref.ch_encode ~ptr:next_incll ~ctr:ctr1 ~cls2:(cls lsr 2) ~half:elo);
          Nvm.Region.write_i64 r addr
            (Ref.ch_encode ~ptr:next ~ctr:ctr0 ~cls2:cls ~half:ehi))
        [ a; b ];
      let v = CH.view () in
      let same () =
        CH.read a ~chunk:addr v;
        Nvm.Region.read_i64 a addr = Nvm.Region.read_i64 b addr
        && Nvm.Region.read_i64 a (addr + 8) = Nvm.Region.read_i64 b (addr + 8)
        && Ref.ch_read b ~chunk:addr
           = (v.CH.next, v.CH.next_incll, v.CH.epoch, v.CH.ctr_matches, v.CH.size_class)
      in
      let epoch = (mhi lsl 16) lor mlo in
      let s0 = same () in
      CH.write_next a ~chunk:addr ~next:ptr;
      Ref.ch_write_next b ~chunk:addr ~next:ptr;
      let s1 = same () in
      CH.write_first_touch a ~chunk:addr ~current_next:next ~epoch ~cls;
      Ref.ch_write_first_touch b ~chunk:addr ~current_next:next ~epoch ~cls;
      let s2 = same () in
      CH.restore a ~chunk:addr ~marker_epoch:epoch;
      Ref.ch_restore b ~chunk:addr ~marker_epoch:epoch;
      let s3 = same () in
      CH.init a ~chunk:addr ~epoch ~cls;
      Ref.ch_write_words b ~chunk:addr ~next:0 ~next_incll:0 ~ctr:0 ~epoch ~cls;
      s0 && s1 && s2 && s3 && same ())

(* Every counter and class value, both epoch halves with bit 15 set. *)
let chunk_header_exhaustive () =
  let epoch = 0x8001_ffff in
  for cls = 0 to 15 do
    for ctr = 0 to 3 do
      let w0 = Ref.ch_encode ~ptr:(64 * 1024) ~ctr ~cls2:cls ~half:(epoch lsr 16) in
      let w1 = Ref.ch_encode ~ptr:4096 ~ctr ~cls2:(cls lsr 2) ~half:epoch in
      let r = ra in
      Nvm.Region.write_i64 r addr w0;
      Nvm.Region.write_i64 r (addr + 8) w1;
      let v = CH.view () in
      CH.read r ~chunk:addr v;
      Alcotest.(check bool)
        (Printf.sprintf "cls %d ctr %d" cls ctr)
        true
        (Ref.ch_read r ~chunk:addr
        = (v.CH.next, v.CH.next_incll, v.CH.epoch, v.CH.ctr_matches, v.CH.size_class))
    done
  done

let permutation =
  QCheck.Test.make ~name:"permutation codec = int64 reference" ~count:1000
    QCheck.(list_of_size Gen.(int_range 1 60) (pair bool (int_bound 13)))
    (fun ops ->
      let p = ref P.empty and q = ref Ref.perm_empty in
      let ok = ref (Int64.of_int !p = !q) in
      List.iter
        (fun (is_insert, pos) ->
          let c = P.count !p in
          if is_insert && not (P.is_full !p) then begin
            let rank = pos mod (c + 1) in
            let q', slot = Ref.perm_insert !q ~rank in
            p := P.insert !p ~rank;
            q := q';
            ok := !ok && P.slot_at_rank !p rank = slot
          end
          else if (not is_insert) && c > 0 then begin
            let rank = pos mod c in
            let q', slot = Ref.perm_remove !q ~rank in
            ok := !ok && P.slot_at_rank !p rank = slot;
            p := P.remove !p ~rank;
            q := q'
          end;
          ok := !ok && Int64.of_int !p = !q)
        ops;
      !ok)

let tests =
  ( "codec-diff",
    [
      QCheck_alcotest.to_alcotest region_split_words;
      QCheck_alcotest.to_alcotest epoch_word;
      QCheck_alcotest.to_alcotest val_incll;
      QCheck_alcotest.to_alcotest chunk_header;
      Alcotest.test_case "chunk header: every ctr and class" `Quick
        chunk_header_exhaustive;
      QCheck_alcotest.to_alcotest permutation;
    ] )
