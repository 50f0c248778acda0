(* Allocation regression for the hot paths (DESIGN.md §11): a point
   lookup, an update of an existing key, an allocator round trip and an
   external-log append must not allocate on the OCaml heap. Each probe
   counts [Gc.minor_words] over [calls] calls, less an empty loop of the
   same shape. Any per-call allocation costs at least two words (header
   plus one field), so "below [slack] words per call" means "none", while
   tolerating a one-off growth of some internal buffer. *)

module Sys_ = Incll.System
module L = Masstree.Leaf

let calls = 2000
let slack = 0.05

let minor_words_per_call f =
  let measure g =
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      g ()
    done;
    Gc.minor_words () -. w0
  in
  f ();
  let empty = measure (fun () -> ()) in
  (measure f -. empty) /. float_of_int calls

let check_words name ~expected f =
  let w = minor_words_per_call f in
  if Float.abs (w -. expected) > slack then
    Alcotest.failf "%s: %.2f words per call, expected %.0f" name w expected

let key8 i = Masstree.Key.of_int64 (Util.Scramble.fmix64 (Int64.of_int i))

(* A populated INCLL system whose epoch never advances on its own. *)
let system () =
  let config =
    {
      Sys_.default_config with
      Sys_.nvm =
        {
          Nvm.Config.default with
          Nvm.Config.size_bytes = 16 * 1024 * 1024;
          extlog_bytes = 1024 * 1024;
        };
      epoch_len_ns = 1e15;
    }
  in
  let s = Sys_.create ~config Sys_.Incll in
  for i = 0 to 1999 do
    Sys_.put s ~key:(key8 i) ~value:"12345678"
  done;
  Sys_.advance_epoch s;
  s

let leaf_find () =
  let s = system () in
  let region = Sys_.region s in
  let key = key8 7 in
  let hi = Masstree.Key.slice_hi key ~layer:0
  and lo = Masstree.Key.slice_lo key ~layer:0 in
  let rec descend node =
    if L.is_leaf_node region node then node
    else
      descend
        (Masstree.Internal.child region node
           ~i:(Masstree.Internal.search_child region node ~hi ~lo))
  in
  let leaf = descend (Masstree.Tree.root (Sys_.tree s)) in
  Alcotest.(check bool) "key present" true (L.find region leaf ~hi ~lo ~keylen:8 >= 0);
  check_words "Leaf.find" ~expected:0.0 (fun () ->
      ignore (Sys.opaque_identity (L.find region leaf ~hi ~lo ~keylen:8)))

let durable_round_trip () =
  let s = system () in
  let api = Alloc.Api.of_durable (Option.get (Sys_.durable_alloc s)) in
  (* Stock the free list, as the limbo merge at each checkpoint does, so
     the measured pairs pop it rather than carve fresh chunks. *)
  let stock = List.init (calls + 16) (fun _ -> api.alloc ~aligned:false ~size:32) in
  List.iter api.dealloc stock;
  Sys_.advance_epoch s;
  check_words "Durable alloc+dealloc" ~expected:0.0 (fun () ->
      api.dealloc (api.alloc ~aligned:false ~size:32))

let extlog_append () =
  let r =
    Nvm.Region.create
      {
        Nvm.Config.default with
        Nvm.Config.size_bytes = 8 * 1024 * 1024;
        extlog_bytes = 2 * 1024 * 1024;
      }
  in
  Nvm.Superblock.format r;
  let log = Extlog.Log.attach r in
  Extlog.Log.truncate log ~epoch:3;
  let node = 4 * 1024 * 1024 in
  for i = 0 to 47 do
    Nvm.Region.write_int r (node + (8 * i)) (i * 0x1234567)
  done;
  Alcotest.(check bool) "tracing off" false (Nvm.Region.tracing r);
  check_words "Extlog.Log.append" ~expected:0.0 (fun () ->
      Extlog.Log.append log ~epoch:3 ~addr:node ~size:384)

let tree_put_update () =
  let s = system () in
  let tree = Sys_.tree s in
  let key = key8 11 in
  let splits () = (Masstree.Tree.stats tree).Masstree.Tree.leaf_splits in
  let em = Option.get (Sys_.epoch_manager s) in
  let splits0 = splits () and epoch0 = Epoch.Manager.current em in
  check_words "Tree.put update" ~expected:0.0 (fun () ->
      Masstree.Tree.put tree ~key ~value:"abcdefgh");
  Alcotest.(check int) "no split" splits0 (splits ());
  Alcotest.(check int) "no epoch advance" epoch0 (Epoch.Manager.current em)

let tree_get () =
  let s = system () in
  let tree = Sys_.tree s in
  let key = key8 13 in
  Alcotest.(check (option string)) "present" (Some "12345678")
    (Masstree.Tree.get tree ~key);
  (* The result only: an 8-byte string (header + 2 words) in a [Some]
     (header + 1 word). *)
  check_words "Tree.get" ~expected:5.0 (fun () ->
      ignore (Sys.opaque_identity (Masstree.Tree.get tree ~key)))

let tests =
  ( "alloc-free",
    [
      Alcotest.test_case "Leaf.find allocates nothing" `Quick leaf_find;
      Alcotest.test_case "durable alloc+dealloc allocates nothing" `Quick
        durable_round_trip;
      Alcotest.test_case "extlog append allocates nothing" `Quick extlog_append;
      Alcotest.test_case "tree update allocates nothing" `Quick tree_put_update;
      Alcotest.test_case "tree get allocates only its result" `Quick tree_get;
    ] )
