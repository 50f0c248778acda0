(* White-box tests of the InCLL algorithm (Listing 3): which modifications
   are absorbed by the in-line logs, which fall back to the external log,
   and in what order the words are written. *)

module L = Masstree.Leaf
module V = Masstree.Val_incll
module EW = Masstree.Epoch_word
module Sys_ = Incll.System

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let key8 i = Masstree.Key.of_int64 (Util.Scramble.fmix64 (Int64.of_int i))

let cfg =
  {
    Sys_.default_config with
    Sys_.nvm =
      {
        Nvm.Config.default with
        Nvm.Config.size_bytes = 8 * 1024 * 1024;
        extlog_bytes = 1024 * 1024;
      };
    (* Epochs advance only when tests ask for it. *)
    epoch_len_ns = 1.0e15;
  }

let mk ?(variant = Sys_.Incll) () = Sys_.create ~config:cfg variant

let counters s =
  match Sys_.ctx s with Some c -> c.Incll.Ctx.counters | None -> assert false

(* Locate the leaf currently holding [key] (single-layer trees). *)
let leaf_of s key =
  let region = Sys_.region s in
  let tree = Sys_.tree s in
  let hi = Masstree.Key.slice_hi key ~layer:0
  and lo = Masstree.Key.slice_lo key ~layer:0 in
  let rec descend node =
    if L.is_leaf_node region node then node
    else
      descend
        (Masstree.Internal.child region node
           ~i:(Masstree.Internal.search_child region node ~hi ~lo))
  in
  descend (Masstree.Tree.root tree)

let populate s n =
  for i = 0 to n - 1 do
    Sys_.put s ~key:(key8 i) ~value:"12345678"
  done;
  Sys_.advance_epoch s

(* --- first touch --------------------------------------------------------- *)

let first_touch_saves_permutation () =
  let s = mk () in
  populate s 200;
  let k = key8 1000 in
  let leaf = leaf_of s k in
  let region = Sys_.region s in
  let perm_before = L.perm region leaf in
  let logged_before = Sys_.nodes_logged s in
  Sys_.put s ~key:k ~value:"new-val!";
  (* fresh insert *)
  check "permutationInCLL holds pre-image" true
    (L.perm_incll region leaf = perm_before);
  check "permutation moved" true (L.perm region leaf <> perm_before);
  let ew = L.epoch_word region leaf in
  check "stamped with current epoch" true
    (match Sys_.epoch_manager s with
    | Some em -> EW.epoch ew = Epoch.Manager.current em
    | None -> false);
  check_int "no external logging" logged_before (Sys_.nodes_logged s);
  check "no draining fence on the leaf path" true
    ((counters s).Incll.Ctx.first_touches > 0)

let repeat_inserts_free () =
  let s = mk () in
  populate s 50;
  let logged_before = Sys_.nodes_logged s in
  (* Many inserts into the same epoch: InCLLp covers all of them. *)
  for i = 500 to 540 do
    Sys_.put s ~key:(key8 i) ~value:"xxxxxxxx"
  done;
  (* Splits may log structurally; measure a split-free window instead. *)
  ignore logged_before;
  let before = Sys_.nodes_logged s in
  for i = 600 to 604 do
    Sys_.put s ~key:(key8 i) ~value:"yyyyyyyy"
  done;
  check "at most split logging" true (Sys_.nodes_logged s - before <= 3)

let repeat_removes_free () =
  let s = mk () in
  populate s 200;
  let before = Sys_.nodes_logged s in
  (* Spread the deletes so no leaf empties (an emptied leaf is unlinked,
     which is a structural change and rightly uses the external log). *)
  for i = 0 to 49 do
    ignore (Sys_.remove s ~key:(key8 (i * 4)))
  done;
  check_int "non-emptying removes never log externally" before
    (Sys_.nodes_logged s)

let emptying_remove_unlinks_and_logs () =
  let s = mk () in
  populate s 200;
  let t = Sys_.tree s in
  let before = (Masstree.Tree.stats t).Masstree.Tree.leaf_removals in
  let logged0 = Sys_.nodes_logged s in
  for i = 0 to 199 do
    ignore (Sys_.remove s ~key:(key8 i))
  done;
  check "leaves were unlinked" true
    ((Masstree.Tree.stats t).Masstree.Tree.leaf_removals > before + 5);
  check "unlinking logged structurally" true (Sys_.nodes_logged s > logged0);
  check_int "tree empty" 0 (Masstree.Tree.cardinal t);
  Masstree.Tree.validate t;
  (* The tree collapsed back to a single root leaf. *)
  check "root is a leaf" true
    (Masstree.Leaf.is_leaf_node (Sys_.region s) (Masstree.Tree.root t))

(* --- the delete-then-insert fallback (§4.1.1) ---------------------------- *)

let mixed_remove_insert_logs () =
  let s = mk () in
  populate s 100;
  let k = key8 5 in
  let leaf = leaf_of s k in
  ignore (Sys_.remove s ~key:k);
  let region = Sys_.region s in
  check "insAllowed cleared" false (EW.ins_allowed (L.epoch_word region leaf));
  let before = (counters s).Incll.Ctx.ext_fallback_mixed in
  (* Re-insert a key that lands in the same leaf. *)
  Sys_.put s ~key:k ~value:"back-in!";
  check "mixed fallback logged" true
    ((counters s).Incll.Ctx.ext_fallback_mixed > before);
  check "node marked logged" true (EW.logged (L.epoch_word region leaf))

let insert_then_remove_stays_incll () =
  let s = mk () in
  populate s 100;
  let before = Sys_.nodes_logged s in
  let k = key8 700 in
  Sys_.put s ~key:k ~value:"tmptmptm";
  ignore (Sys_.remove s ~key:k);
  (* insert-then-remove is fine under InCLLp (§4.1.1) — only the reverse
     order forces the external log. *)
  check_int "no logging" before (Sys_.nodes_logged s)

let logged_node_needs_nothing_more () =
  let s = mk () in
  populate s 100;
  let k = key8 5 in
  ignore (Sys_.remove s ~key:k);
  Sys_.put s ~key:k ~value:"back-in!" (* forces the log *);
  let before = Sys_.nodes_logged s in
  (* Further mixed operations on the logged node are free. *)
  ignore (Sys_.remove s ~key:k);
  Sys_.put s ~key:k ~value:"again!!!";
  check_int "logged once per epoch" before (Sys_.nodes_logged s)

(* --- value updates (§4.1.3) ---------------------------------------------- *)

let update_uses_val_incll () =
  let s = mk () in
  populate s 100;
  let k = key8 7 in
  let leaf = leaf_of s k in
  let region = Sys_.region s in
  let rank =
    L.find region leaf ~hi:(Masstree.Key.slice_hi k ~layer:0)
      ~lo:(Masstree.Key.slice_lo k ~layer:0) ~keylen:8
  in
  if rank < 0 then Alcotest.fail "key must exist";
  let slot = Masstree.Permutation.slot_at_rank (L.perm region leaf) rank in
  let old_val = L.value region leaf ~slot in
  let before = Sys_.nodes_logged s in
  Sys_.put s ~key:k ~value:"updated!";
  let low = L.incll region leaf ~which:(L.incll_which slot) in
  check_int "InCLL logs the slot" slot (V.idx low);
  check_int "InCLL holds the pre-image pointer" old_val (V.ptr low);
  check_int "no external log" before (Sys_.nodes_logged s);
  check "new value visible" true (Sys_.get s ~key:k = Some "updated!")

let repeated_update_same_key_free () =
  let s = mk () in
  populate s 100;
  let k = key8 7 in
  Sys_.put s ~key:k ~value:"u1u1u1u1";
  let before = Sys_.nodes_logged s in
  let hits0 = (counters s).Incll.Ctx.val_incll_hits in
  for _ = 1 to 10 do
    Sys_.put s ~key:k ~value:"u2u2u2u2"
  done;
  check_int "skewed updates free (§4.1.3)" before (Sys_.nodes_logged s);
  check "hits counted" true ((counters s).Incll.Ctx.val_incll_hits >= hits0 + 10)

let two_hot_slots_same_line_log () =
  (* Find two keys in the same value cache line of one leaf and update
     both in one epoch: the second must fall back to the external log. *)
  let s = mk () in
  populate s 400;
  let region = Sys_.region s in
  (* Pick a leaf with >= 2 entries in slots 0..6. *)
  let found = ref None in
  let rec scan_keys i =
    if i >= 400 || !found <> None then ()
    else begin
      let k = key8 i in
      let leaf = leaf_of s k in
      let p = L.perm region leaf in
      let in_low =
        List.filter (fun slot -> slot <= 6)
          (Masstree.Permutation.active_slots p)
      in
      (match in_low with
      | s1 :: s2 :: _ ->
          let key_of_slot slot =
            Masstree.Key.bytes_of_slice (L.key region leaf ~slot)
              ~len:(L.keylen region leaf ~slot)
          in
          found := Some (key_of_slot s1, key_of_slot s2)
      | _ -> ());
      scan_keys (i + 1)
    end
  in
  scan_keys 0;
  match !found with
  | None -> Alcotest.fail "no leaf with two low-line entries"
  | Some (k1, k2) ->
      let before = (counters s).Incll.Ctx.ext_fallback_update in
      Sys_.put s ~key:k1 ~value:"hot1hot1";
      Sys_.put s ~key:k2 ~value:"hot2hot2";
      check "second hot slot forced the log" true
        ((counters s).Incll.Ctx.ext_fallback_update > before)

let updates_in_different_lines_both_incll () =
  let s = mk () in
  populate s 400;
  let region = Sys_.region s in
  let found = ref None in
  let rec scan_keys i =
    if i >= 400 || !found <> None then ()
    else begin
      let k = key8 i in
      let leaf = leaf_of s k in
      let p = L.perm region leaf in
      let slots = Masstree.Permutation.active_slots p in
      let low = List.find_opt (fun s -> s <= 6) slots in
      let high = List.find_opt (fun s -> s >= 7) slots in
      (match (low, high) with
      | Some s1, Some s2 ->
          let key_of_slot slot =
            Masstree.Key.bytes_of_slice (L.key region leaf ~slot)
              ~len:(L.keylen region leaf ~slot)
          in
          found := Some (key_of_slot s1, key_of_slot s2)
      | _ -> ());
      scan_keys (i + 1)
    end
  in
  scan_keys 0;
  match !found with
  | None -> Alcotest.fail "no suitable leaf"
  | Some (k1, k2) ->
      let before = Sys_.nodes_logged s in
      Sys_.put s ~key:k1 ~value:"line1!!!";
      Sys_.put s ~key:k2 ~value:"line2!!!";
      check_int "both absorbed by the two InCLLs" before (Sys_.nodes_logged s)

(* --- epoch-distance fallback (§4.1.3) ------------------------------------ *)

let epoch_overflow_forces_log () =
  (* A node whose last touch is >= 2^16 epochs old cannot encode the
     distance in 16 bits: its next first-touch must externally log. *)
  let s = mk () in
  populate s 30;
  (match Sys_.epoch_manager s with
  | Some em ->
      (* Jump the epoch counter far ahead (cheaper than 65k advances). *)
      for _ = 1 to 4 do
        Epoch.Manager.advance em
      done;
      let target = Epoch.Manager.current em + 66_000 in
      while Epoch.Manager.current em < target do
        Epoch.Manager.advance em
      done
  | None -> ());
  let before = (counters s).Incll.Ctx.ext_fallback_epoch in
  Sys_.put s ~key:(key8 3) ~value:"newepoch";
  check "epoch-distance fallback" true
    ((counters s).Incll.Ctx.ext_fallback_epoch > before)

(* --- ablation: InCLLp only ----------------------------------------------- *)

let val_incll_ablation_logs_updates () =
  let s =
    Sys_.create ~config:{ cfg with Sys_.val_incll = false } Sys_.Incll
  in
  populate s 100;
  let before = Sys_.nodes_logged s in
  Sys_.put s ~key:(key8 7) ~value:"updated!";
  check "update logs externally without value InCLLs" true
    (Sys_.nodes_logged s > before);
  (* But inserts still ride on InCLLp: no insert/remove fallback counters
     move (splits may still log structurally). *)
  let c = counters s in
  let mixed0 = c.Incll.Ctx.ext_fallback_mixed in
  let upd0 = c.Incll.Ctx.ext_fallback_update in
  for i = 900 to 940 do
    Sys_.put s ~key:(key8 i) ~value:"freshkey"
  done;
  check_int "no mixed fallback" mixed0 c.Incll.Ctx.ext_fallback_mixed;
  check_int "no update fallback" upd0 c.Incll.Ctx.ext_fallback_update

(* --- LOGGING variant ------------------------------------------------------ *)

let logging_variant_logs_every_first_touch () =
  let s = mk ~variant:Sys_.Logging () in
  populate s 100;
  let before = Sys_.nodes_logged s in
  Sys_.put s ~key:(key8 3) ~value:"anything";
  check "update logged" true (Sys_.nodes_logged s > before);
  let mid = Sys_.nodes_logged s in
  Sys_.put s ~key:(key8 3) ~value:"again!!!";
  check_int "once per epoch" mid (Sys_.nodes_logged s);
  Sys_.advance_epoch s;
  Sys_.put s ~key:(key8 3) ~value:"epoch+1!";
  check "re-logged next epoch" true (Sys_.nodes_logged s > mid)

let tests =
  ( "incll",
    [
      Alcotest.test_case "first touch saves permutation" `Quick first_touch_saves_permutation;
      Alcotest.test_case "repeat inserts free" `Quick repeat_inserts_free;
      Alcotest.test_case "removes never log" `Quick repeat_removes_free;
      Alcotest.test_case "emptying remove unlinks" `Quick emptying_remove_unlinks_and_logs;
      Alcotest.test_case "remove-then-insert logs" `Quick mixed_remove_insert_logs;
      Alcotest.test_case "insert-then-remove stays InCLL" `Quick insert_then_remove_stays_incll;
      Alcotest.test_case "logged node needs nothing more" `Quick logged_node_needs_nothing_more;
      Alcotest.test_case "update uses value InCLL" `Quick update_uses_val_incll;
      Alcotest.test_case "repeated update same key free" `Quick repeated_update_same_key_free;
      Alcotest.test_case "two hot slots in a line log" `Quick two_hot_slots_same_line_log;
      Alcotest.test_case "two lines both InCLL" `Quick updates_in_different_lines_both_incll;
      Alcotest.test_case "epoch-distance fallback" `Slow epoch_overflow_forces_log;
      Alcotest.test_case "ablation: InCLLp only" `Quick val_incll_ablation_logs_updates;
      Alcotest.test_case "LOGGING logs first touches" `Quick logging_variant_logs_every_first_touch;
    ] )
