(* Tests for key slicing and ordering (the trie layering of §2.2). *)

module K = Masstree.Key

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let slice_basic () =
  check_int "len" 2 (K.slice_len "AB" ~layer:0);
  Alcotest.(check int64) "big endian, left aligned" 0x4142_0000_0000_0000L
    (K.slice "AB" ~layer:0);
  check_int "hi half" 0x4142_0000 (K.slice_hi "AB" ~layer:0);
  check_int "lo half" 0 (K.slice_lo "AB" ~layer:0);
  check_int "halves of a full slice" 0x6566_6768
    (K.slice_lo "abcdefgh" ~layer:0);
  check_int "hi32" 0x4142_0000 (K.hi32 (K.slice "AB" ~layer:0));
  check_int "lo32" 0x6566_6768 (K.lo32 (K.slice "abcdefgh" ~layer:0))

let slice_full_and_suffix () =
  let k = "abcdefghij" in
  check_int "first slice full" 8 (K.slice_len k ~layer:0);
  check "has suffix" true (K.has_suffix k ~layer:0);
  Alcotest.(check string) "suffix" "ij" (K.suffix k ~layer:0);
  check_int "second slice" 2 (K.slice_len k ~layer:1);
  check_int "second slice bytes" 0x696a_0000 (K.slice_hi k ~layer:1);
  check "no more" false (K.has_suffix k ~layer:1)

let empty_key () =
  check_int "len 0" 0 (K.slice_len "" ~layer:0);
  Alcotest.(check int64) "zero bits" 0L (K.slice "" ~layer:0);
  check "no suffix" false (K.has_suffix "" ~layer:0)

let unsigned_comparison () =
  (* Bytes >= 0x80 must sort above ASCII: requires unsigned compare. *)
  let hi = K.slice "\xff" ~layer:0 in
  let lo = K.slice "a" ~layer:0 in
  check "0xff > 'a'" true (K.compare_slices hi lo > 0)

let entry_ordering () =
  let s = K.slice "ab" ~layer:0 in
  (* Shorter key sorts first; the layer-link marker sorts after the full
     8-byte terminal. *)
  check "len splits ties" true (K.compare_entry s 2 s 3 < 0);
  check "link after terminal" true (K.compare_entry s K.layer_link_len s 8 > 0)

let slice_order_is_lexicographic =
  QCheck.Test.make ~name:"slice order = byte order" ~count:1000
    QCheck.(pair (string_of_size Gen.(int_bound 8)) (string_of_size Gen.(int_bound 8)))
    (fun (a, b) ->
      let c =
        K.compare_entry (K.slice a ~layer:0) (K.slice_len a ~layer:0)
          (K.slice b ~layer:0) (K.slice_len b ~layer:0)
      in
      let expected = compare a b in
      (c < 0 && expected < 0) || (c > 0 && expected > 0)
      || (c = 0 && expected = 0))

let bytes_roundtrip =
  QCheck.Test.make ~name:"slice bytes roundtrip" ~count:1000
    QCheck.(string_of_size Gen.(int_bound 8))
    (fun s ->
      K.bytes_of_slice (K.slice s ~layer:0) ~len:(K.slice_len s ~layer:0) = s)

let int64_roundtrip =
  QCheck.Test.make ~name:"of_int64/to_int64 roundtrip" ~count:1000 QCheck.int64
    (fun v -> K.to_int64 (K.of_int64 v) = v)

let int64_order_preserved =
  QCheck.Test.make ~name:"of_int64 preserves unsigned order" ~count:1000
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      let ka = K.of_int64 a and kb = K.of_int64 b in
      compare ka kb = Int64.unsigned_compare a b)

let tests =
  ( "key",
    [
      Alcotest.test_case "slice basic" `Quick slice_basic;
      Alcotest.test_case "slice full + suffix" `Quick slice_full_and_suffix;
      Alcotest.test_case "empty key" `Quick empty_key;
      Alcotest.test_case "unsigned comparison" `Quick unsigned_comparison;
      Alcotest.test_case "entry ordering" `Quick entry_ordering;
      QCheck_alcotest.to_alcotest slice_order_is_lexicographic;
      QCheck_alcotest.to_alcotest bytes_roundtrip;
      QCheck_alcotest.to_alcotest int64_roundtrip;
      QCheck_alcotest.to_alcotest int64_order_preserved;
    ] )
