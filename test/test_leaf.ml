(* White-box tests for the durable leaf layout (Figure 1) and the packed
   InCLL words (Listing 2). *)

module L = Masstree.Leaf
module V = Masstree.Val_incll
module EW = Masstree.Epoch_word

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk () =
  let cfg =
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = 2 * 1024 * 1024;
      extlog_bytes = 64 * 1024;
    }
  in
  let r = Nvm.Region.create cfg in
  Nvm.Superblock.format r;
  let em = Epoch.Manager.create r in
  let a = Alloc.Api.of_durable (Alloc.Durable.create em) in
  (r, a)

(* --- the layout invariants the paper's argument rests on ---------------- *)

let incllp_fields_share_a_line () =
  check "epoch word with permutation" true
    (Nvm.Region.same_line L.off_epoch_word L.off_perm);
  check "permutationInCLL with permutation" true
    (Nvm.Region.same_line L.off_perm_incll L.off_perm)

let value_inclls_cover_their_lines () =
  for s = 0 to 6 do
    check "InCLL1 with vals[0..6]" true
      (Nvm.Region.same_line (L.val_off s) L.incll1_off)
  done;
  for s = 7 to 13 do
    check "InCLL2 with vals[7..13]" true
      (Nvm.Region.same_line (L.val_off s) L.incll2_off)
  done;
  check "the two value lines differ" false
    (Nvm.Region.same_line L.incll1_off L.incll2_off)

let node_is_six_lines () =
  check_int "384 bytes" 384 L.node_bytes;
  check_int "width 14 (one less than stock)" 14 L.width;
  (* Offsets stay inside the node. *)
  for s = 0 to L.width - 1 do
    check "key inside" true (L.key_off s + 8 <= L.node_bytes);
    check "keylen inside" true (L.keylen_off s < L.node_bytes);
    check "val inside" true (L.val_off s + 8 <= L.node_bytes)
  done

let create_initialises () =
  let r, a = mk () in
  let leaf = L.create a r ~layer:3 ~epoch:7 in
  check "64-aligned" true (leaf land 63 = 0);
  check "is leaf" true (L.is_leaf_node r leaf);
  check_int "layer" 3 (L.layer r leaf);
  check_int "empty" 0 (L.entry_count r leaf);
  let ew = L.epoch_word r leaf in
  check_int "epoch" 7 (EW.epoch ew);
  check "insAllowed" true (EW.ins_allowed ew);
  check "not logged" false (EW.logged ew);
  check "incll1 invalid" true (V.is_invalid (L.incll r leaf ~which:0));
  check "incll2 invalid" true (V.is_invalid (L.incll r leaf ~which:1));
  check_int "next null" 0 (L.next r leaf)

let field_accessors_roundtrip () =
  let r, a = mk () in
  let leaf = L.create a r ~layer:0 ~epoch:2 in
  L.set_key r leaf ~slot:5 ~hi:0 ~lo:0xDEADBEEF;
  Alcotest.(check int64) "key" 0xDEADBEEFL (L.key r leaf ~slot:5);
  L.set_keylen r leaf ~slot:5 8;
  check_int "keylen" 8 (L.keylen r leaf ~slot:5);
  L.set_value r leaf ~slot:5 4096;
  check_int "value" 4096 (L.value r leaf ~slot:5);
  L.set_value r leaf ~slot:13 8192;
  check_int "value hi line" 8192 (L.value r leaf ~slot:13);
  L.set_next r leaf (12345 * 16);
  check_int "next" (12345 * 16) (L.next r leaf)

(* --- ValInCLL packing (§4.1.3) ------------------------------------------ *)

let val_incll_roundtrip =
  QCheck.Test.make ~name:"ValInCLL pack/unpack" ~count:1000
    QCheck.(triple (int_bound 1_000_000) (int_bound 14) (int_bound 0xffff))
    (fun (p16, idx, low_epoch) ->
      let r, a = mk () in
      let leaf = L.create a r ~layer:0 ~epoch:2 in
      let ptr = p16 * 16 in
      L.set_incll r leaf ~which:1 ~low_epoch ~low:(V.pack ~ptr ~idx);
      let low = L.incll r leaf ~which:1 in
      V.ptr low = ptr && V.idx low = idx
      && Nvm.Region.split_top r = low_epoch)

let val_incll_invalid () =
  let r, a = mk () in
  let leaf = L.create a r ~layer:0 ~epoch:0x51234 in
  check "invalid" true (V.is_invalid (L.incll r leaf ~which:0));
  check_int "keeps epoch" 0x1234 (Nvm.Region.split_top r);
  check "unaligned ptr rejected" true
    (try
       ignore (V.pack ~ptr:7 ~idx:0);
       false
     with Invalid_argument _ -> true)

let epoch_word_roundtrip =
  QCheck.Test.make ~name:"epoch word pack/unpack" ~count:1000
    QCheck.(triple (int_bound 0x3FFFFFFF) bool bool)
    (fun (epoch, ins, logged) ->
      let w = EW.make ~epoch ~ins_allowed:ins ~logged in
      let w = EW.of_split ~top:(EW.split_top w) ~low:(EW.split_low w) in
      EW.epoch w = epoch && EW.ins_allowed w = ins && EW.logged w = logged)

(* --- search -------------------------------------------------------------- *)

let find_in_sorted_leaf () =
  let r, a = mk () in
  let leaf = L.create a r ~layer:0 ~epoch:2 in
  (* Install entries for slices 10,20,30 by hand. *)
  let p = ref Masstree.Permutation.empty in
  List.iteri
    (fun i v ->
      p := Masstree.Permutation.insert !p ~rank:i;
      let slot = Masstree.Permutation.slot_at_rank !p i in
      L.set_key r leaf ~slot ~hi:0 ~lo:v;
      L.set_keylen r leaf ~slot 8;
      L.set_value r leaf ~slot (v * 16))
    [ 10; 20; 30 ];
  L.set_perm r leaf !p;
  let find lo ~keylen = L.find r leaf ~hi:0 ~lo ~keylen in
  check_int "found at rank 1" 1 (find 20 ~keylen:8);
  (* Absent: [lnot] of the insertion rank. *)
  check_int "between 20 and 30" 2 (lnot (find 25 ~keylen:8));
  check_int "before all" 0 (lnot (find 5 ~keylen:8));
  check_int "after all" 3 (lnot (find 40 ~keylen:8));
  (* Same slice, different keylen is a distinct entry. *)
  check_int "shorter sorts before" 1 (lnot (find 20 ~keylen:4))

let tests =
  ( "leaf",
    [
      Alcotest.test_case "InCLLp fields share a line" `Quick incllp_fields_share_a_line;
      Alcotest.test_case "value InCLLs cover their lines" `Quick value_inclls_cover_their_lines;
      Alcotest.test_case "node is six lines" `Quick node_is_six_lines;
      Alcotest.test_case "create initialises" `Quick create_initialises;
      Alcotest.test_case "field accessors" `Quick field_accessors_roundtrip;
      QCheck_alcotest.to_alcotest val_incll_roundtrip;
      Alcotest.test_case "ValInCLL invalid" `Quick val_incll_invalid;
      QCheck_alcotest.to_alcotest epoch_word_roundtrip;
      Alcotest.test_case "find in sorted leaf" `Quick find_in_sorted_leaf;
    ] )
