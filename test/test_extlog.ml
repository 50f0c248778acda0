(* Tests for the external undo log (§4.2). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk () =
  let cfg =
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = 2 * 1024 * 1024;
      extlog_bytes = 16 * 1024;
    }
  in
  let r = Nvm.Region.create cfg in
  Nvm.Superblock.format r;
  (r, Extlog.Log.attach r)

let node_addr = 1024 * 1024 (* inside the heap slice *)

let fill r addr n seed =
  for i = 0 to (n / 8) - 1 do
    Nvm.Region.write_i64 r (addr + (8 * i)) (Int64.of_int (seed + i))
  done

let content r addr n = Bytes.to_string (Nvm.Region.read_bytes r addr ~len:n)
let applied log ~is_failed = (Extlog.Log.replay log ~is_failed).Extlog.Log.applied

let records log ~is_failed =
  List.map
    (fun { Extlog.Log.kind; epoch; txn_id; payload } ->
      (kind, epoch, txn_id, payload))
    (Extlog.Log.replay log ~is_failed).Extlog.Log.records

let append_replay_roundtrip () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:5;
  fill r node_addr 128 100;
  let image = content r node_addr 128 in
  Extlog.Log.append log ~epoch:5 ~addr:node_addr ~size:128;
  (* Mutate the node, then roll it back. *)
  fill r node_addr 128 999;
  check "mutated" true (content r node_addr 128 <> image);
  check_int "one applied" 1 (applied log ~is_failed:(fun e -> e = 5));
  Alcotest.(check string) "restored" image (content r node_addr 128)

let entries_are_durable_immediately () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:5;
  fill r node_addr 64 42;
  Extlog.Log.append log ~epoch:5 ~addr:node_addr ~size:64;
  let image = content r node_addr 64 in
  fill r node_addr 64 777;
  (* Worst-case crash: nothing unflushed survives — but the log entry was
     fenced, so replay still restores the node. *)
  Nvm.Region.crash_persist_none r;
  let log2 = Extlog.Log.attach r in
  check_int "entry survived" 1 (applied log2 ~is_failed:(fun e -> e = 5));
  Alcotest.(check string) "restored" image (content r node_addr 64)

let replay_skips_other_epochs () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:4;
  fill r node_addr 64 1;
  Extlog.Log.append log ~epoch:4 ~addr:node_addr ~size:64;
  check_int "wrong epoch not applied" 0
    (applied log ~is_failed:(fun e -> e = 9));
  ignore r

let truncation_floor_blocks_stale_entries () =
  (* Epoch 4 writes a long log; epoch 5 truncates and writes a short one;
     stale epoch-4 entries beyond the prefix must not replay even if epoch
     4 is in the failed set. *)
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:4;
  let other = node_addr + 4096 in
  fill r other 64 50;
  Extlog.Log.append log ~epoch:4 ~addr:other ~size:64;
  fill r other 64 60;
  Extlog.Log.append log ~epoch:4 ~addr:other ~size:64;
  Extlog.Log.truncate log ~epoch:5;
  fill r node_addr 64 70;
  Extlog.Log.append log ~epoch:5 ~addr:node_addr ~size:64;
  let before = content r other 64 in
  check_int "only the prefix entry" 1
    (applied log ~is_failed:(fun e -> e = 4 || e = 5));
  Alcotest.(check string) "stale entry not applied" before (content r other 64)

let torn_tail_entry_rejected () =
  (* An entry whose payload lines were lost must fail its checksum. *)
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:5;
  fill r node_addr 256 11;
  Extlog.Log.append log ~epoch:5 ~addr:node_addr ~size:256;
  (* Corrupt one payload word directly, then rebuild the reader. *)
  Nvm.Region.write_i64 r (Nvm.Layout.extlog_off + 64 + 48 + 16) 0xDEADL;
  Nvm.Region.wbinvd r;
  let log2 = Extlog.Log.attach r in
  check_int "rejected" 0 (applied log2 ~is_failed:(fun e -> e = 5))

let log_full_raises () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:3;
  fill r node_addr 1024 0;
  check "raises" true
    (try
       for _ = 1 to 1000 do
         Extlog.Log.append log ~epoch:3 ~addr:node_addr ~size:1024
       done;
       false
     with Extlog.Log.Log_full -> true);
  check "capacity accounted" true (Extlog.Log.used log <= Extlog.Log.capacity log)

let truncate_resets_cursor () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:3;
  fill r node_addr 64 0;
  Extlog.Log.append log ~epoch:3 ~addr:node_addr ~size:64;
  let used = Extlog.Log.used log in
  check "used > 0" true (used > 0);
  Extlog.Log.truncate log ~epoch:4;
  check_int "cursor reset" 0 (Extlog.Log.used log);
  check_int "floor recorded" 4 (Extlog.Log.truncation_epoch log)

let replay_order_independent () =
  (* Entries are for distinct nodes (at-most-once-per-epoch), so replaying
     is just a set of memcpys; verify multiple entries all land. *)
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:6;
  let addrs = List.init 5 (fun i -> node_addr + (i * 512)) in
  let images =
    List.map
      (fun a ->
        fill r a 64 (a / 7);
        let img = content r a 64 in
        Extlog.Log.append log ~epoch:6 ~addr:a ~size:64;
        img)
      addrs
  in
  List.iter (fun a -> fill r a 64 123456) addrs;
  check_int "all applied" 5 (applied log ~is_failed:(fun e -> e = 6));
  List.iter2
    (fun a img -> Alcotest.(check string) "restored" img (content r a 64))
    addrs images

let replay_idempotent () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:6;
  fill r node_addr 64 5;
  let image = content r node_addr 64 in
  Extlog.Log.append log ~epoch:6 ~addr:node_addr ~size:64;
  fill r node_addr 64 99;
  ignore (applied log ~is_failed:(fun e -> e = 6));
  ignore (applied log ~is_failed:(fun e -> e = 6));
  Alcotest.(check string) "still correct" image (content r node_addr 64)

let scan_lists_entries () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:7;
  fill r node_addr 64 1;
  Extlog.Log.append log ~epoch:7 ~addr:node_addr ~size:64;
  fill r (node_addr + 512) 128 2;
  Extlog.Log.append log ~epoch:7 ~addr:(node_addr + 512) ~size:128;
  let seen = ref [] in
  Extlog.Log.scan_entries log (fun ~kind:_ ~epoch ~addr ~size ->
      seen := (epoch, addr, size) :: !seen);
  Alcotest.(check (list (triple int int int)))
    "entries"
    [ (7, node_addr, 64); (7, node_addr + 512, 128) ]
    (List.rev !seen)

let stats_track_appends () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:3;
  fill r node_addr 64 0;
  Extlog.Log.append log ~epoch:3 ~addr:node_addr ~size:64;
  Extlog.Log.append log ~epoch:3 ~addr:node_addr ~size:64;
  check_int "nodes" 2 (Extlog.Log.nodes_logged log);
  check_int "bytes" 128 (Extlog.Log.bytes_logged log)

let bad_sizes_rejected () =
  let _, log = mk () in
  check "odd size" true
    (try
       Extlog.Log.append log ~epoch:3 ~addr:node_addr ~size:63;
       false
     with Invalid_argument _ -> true)

let record_roundtrip () =
  let _, log = mk () in
  Extlog.Log.truncate log ~epoch:9;
  Extlog.Log.append_record log ~kind:Extlog.Log.kind_txn_prepare ~epoch:9
    ~txn_id:41 ~payload:"s0,s2";
  Extlog.Log.append_record log ~kind:Extlog.Log.kind_txn_commit ~epoch:9
    ~txn_id:41 ~payload:"";
  match records log ~is_failed:(fun e -> e = 9) with
  | [ (k1, e1, id1, p1); (k2, e2, id2, p2) ] ->
      check_int "prepare kind" Extlog.Log.kind_txn_prepare k1;
      check_int "commit kind" Extlog.Log.kind_txn_commit k2;
      check_int "prepare epoch" 9 e1;
      check_int "commit epoch" 9 e2;
      check_int "prepare id" 41 id1;
      check_int "commit id" 41 id2;
      (* Payloads are NUL-padded to 8 bytes; content must round-trip as a
         prefix with only padding after it. *)
      check "prepare payload prefix" true
        (String.length p1 >= 5 && String.sub p1 0 5 = "s0,s2"
        && String.for_all (fun c -> c = '\000')
             (String.sub p1 5 (String.length p1 - 5)));
      check "commit payload is padding" true
        (String.for_all (fun c -> c = '\000') p2)
  | l -> Alcotest.failf "expected 2 records, got %d" (List.length l)

let replay_skips_txn_records () =
  (* A txn record interleaved between node images must not be copied
     anywhere by replay, and live-epoch filtering applies to records
     exactly as to node entries. *)
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:4;
  fill r node_addr 64 1;
  let image = content r node_addr 64 in
  Extlog.Log.append log ~epoch:4 ~addr:node_addr ~size:64;
  Extlog.Log.append_record log ~kind:Extlog.Log.kind_txn_prepare ~epoch:4
    ~txn_id:7 ~payload:"x";
  fill r node_addr 64 2;
  check_int "only the node entry applies" 1
    (applied log ~is_failed:(fun e -> e = 4));
  Alcotest.(check string) "node image restored" image (content r node_addr 64);
  check_int "record of a non-failed epoch is not live" 0
    (List.length (records log ~is_failed:(fun e -> e = 5)));
  let all = ref 0 in
  Extlog.Log.fold_all_records log (fun _ -> incr all);
  check_int "but fold_all still sees it" 1 !all

(* The replay pass reads the live prefix and the header of the entry
   that ends it, nothing more: with the log filled to capacity by intact
   entries of an older epoch, its region reads are those of the live
   entries whatever the capacity. Every entry here is 128 bytes (a
   48-byte header and an 80-byte payload), so entries are line-aligned
   and each payload spans exactly two lines. *)
let replay_reads ~extlog_bytes =
  let cfg =
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = 2 * 1024 * 1024;
      extlog_bytes;
    }
  in
  let r = Nvm.Region.create cfg in
  Nvm.Superblock.format r;
  let log = Extlog.Log.attach r in
  Extlog.Log.truncate log ~epoch:2;
  fill r node_addr 80 7;
  (try
     while true do
       Extlog.Log.append log ~epoch:2 ~addr:node_addr ~size:80
     done
   with Extlog.Log.Log_full -> ());
  let stale = Extlog.Log.used log / 128 in
  Extlog.Log.truncate log ~epoch:5;
  fill r node_addr 80 1;
  Extlog.Log.append log ~epoch:5 ~addr:node_addr ~size:80;
  Extlog.Log.append_record log ~kind:Extlog.Log.kind_txn_prepare ~epoch:5
    ~txn_id:3 ~payload:(String.make 80 'p');
  Extlog.Log.append_record log ~kind:Extlog.Log.kind_session ~epoch:5
    ~txn_id:9 ~payload:(String.make 80 's');
  fill r (node_addr + 512) 80 2;
  Extlog.Log.append log ~epoch:5 ~addr:(node_addr + 512) ~size:80;
  Nvm.Region.crash_persist_none r;
  let log = Extlog.Log.attach r in
  let stats = Nvm.Region.stats r in
  let reads0 = stats.Nvm.Stats.reads in
  (* Epoch 2 counts as failed: only the truncation floor makes it stale. *)
  let rep = Extlog.Log.replay log ~is_failed:(fun e -> e = 2 || e = 5) in
  let reads = stats.Nvm.Stats.reads - reads0 in
  check_int "nodes applied" 2 rep.Extlog.Log.applied;
  check_int "records returned" 2 (List.length rep.Extlog.Log.records);
  check_int "cursor parked at the live end" (4 * 128) (Extlog.Log.used log);
  (stale, reads)

let replay_reads_only_the_live_prefix () =
  (* Per live entry: 6 header words, 10 checksummed payload words and 2
     payload lines (the node blit's source or the record's read_string).
     Plus the truncation floor, and the magic and epoch words of the
     first stale entry, which end the pass. *)
  let expected = 1 + (4 * (6 + 10 + 2)) + 2 in
  List.iter
    (fun extlog_bytes ->
      let stale, reads = replay_reads ~extlog_bytes in
      check "log filled with stale entries" true
        (stale >= (extlog_bytes / 128) - 2);
      check_int
        (Printf.sprintf "reads with a %d-byte log" extlog_bytes)
        expected reads)
    [ 16 * 1024; 256 * 1024 ]

(* System level: a crashed image whose log carries 10 or 2000 extra
   intact stale entries after its live prefix recovers with the same
   simulated cost in every phase after the replay, and the replay itself
   does not grow with the stale tail. The stale entries are sealed in a
   scratch log and copied byte for byte past the live prefix (an entry's
   checksum does not cover its position). *)
let recovery_cost_ignores_stale_entries () =
  let module Sys_ = Incll.System in
  let cfg =
    {
      Sys_.default_config with
      Sys_.nvm =
        {
          Nvm.Config.default with
          Nvm.Config.size_bytes = 8 * 1024 * 1024;
          extlog_bytes = 512 * 1024;
        };
    }
  in
  let key i = Masstree.Key.of_int64 (Util.Scramble.fmix64 (Int64.of_int i)) in
  let s = Sys_.create ~config:cfg Sys_.Incll in
  for round = 0 to 3 do
    for i = 0 to 199 do
      Sys_.put s ~key:(key i) ~value:(Printf.sprintf "%d.%d" round i)
    done;
    Sys_.advance_epoch s
  done;
  for i = 0 to 19 do
    Sys_.put s ~key:(key i) ~value:"live"
  done;
  Sys_.txn_begin s;
  Sys_.txn_put s ~key:(key 500) ~value:"t";
  Sys_.txn_commit s;
  Sys_.crash s (Util.Rng.create ~seed:3);
  let r = Sys_.region s in
  let size = Nvm.Region.size r in
  let image = Nvm.Region.read_bytes r 0 ~len:size in
  let log = Extlog.Log.attach r in
  let floor = Extlog.Log.truncation_epoch log in
  check "older epochs exist" true (floor > 1);
  let live_end = ref 0 in
  let past = ref false in
  Extlog.Log.scan_entries log (fun ~kind:_ ~epoch ~addr:_ ~size ->
      if epoch < floor then past := true;
      if not !past then live_end := !live_end + 48 + size);
  check "live prefix found" true (!live_end > 0);
  let base = Nvm.Layout.extlog_off + 64 in
  let with_stale n =
    let img = Bytes.copy image in
    let scratch = Nvm.Region.create cfg.Sys_.nvm in
    Nvm.Superblock.format scratch;
    let slog = Extlog.Log.attach scratch in
    Extlog.Log.truncate slog ~epoch:1;
    fill scratch node_addr 64 9;
    for _ = 1 to n do
      Extlog.Log.append slog ~epoch:1 ~addr:node_addr ~size:64
    done;
    let bytes = Extlog.Log.used slog in
    Bytes.blit
      (Nvm.Region.read_bytes scratch base ~len:bytes)
      0 img (base + !live_end) bytes;
    img
  in
  let recover img =
    let region = Nvm.Region.create cfg.Sys_.nvm in
    Nvm.Region.install_image region img;
    let s = Sys_.attach ~config:cfg Sys_.Incll region in
    check "txn value redone" true (Sys_.get s ~key:(key 500) = Some "t");
    match Sys_.last_recover_stats s with
    | Some st -> st
    | None -> Alcotest.fail "no recover stats"
  in
  let phase st name = List.assoc name st.Sys_.phases in
  let few = recover (with_stale 10) and many = recover (with_stale 2000) in
  let plain = recover image in
  List.iter
    (fun st ->
      check_int "replayed" plain.Sys_.replayed_entries st.Sys_.replayed_entries;
      check_int "txns redone" 1 st.Sys_.txns_redone;
      List.iter
        (fun name ->
          Alcotest.(check (float 0.0)) name (phase plain name) (phase st name))
        [ "recover.alloc_chains"; "recover.txn_resolve" ])
    [ few; many ];
  Alcotest.(check (float 0.0))
    "replay cost" (phase few "recover.extlog_replay")
    (phase many "recover.extlog_replay");
  Alcotest.(check (float 0.0))
    "recovery cost" few.Sys_.recovery_sim_ns many.Sys_.recovery_sim_ns

let tests =
  ( "extlog",
    [
      Alcotest.test_case "append/replay roundtrip" `Quick append_replay_roundtrip;
      Alcotest.test_case "entries durable immediately" `Quick entries_are_durable_immediately;
      Alcotest.test_case "replay skips other epochs" `Quick replay_skips_other_epochs;
      Alcotest.test_case "truncation floor blocks stale" `Quick truncation_floor_blocks_stale_entries;
      Alcotest.test_case "torn entry rejected" `Quick torn_tail_entry_rejected;
      Alcotest.test_case "log full raises" `Quick log_full_raises;
      Alcotest.test_case "truncate resets cursor" `Quick truncate_resets_cursor;
      Alcotest.test_case "replay multiple entries" `Quick replay_order_independent;
      Alcotest.test_case "replay idempotent" `Quick replay_idempotent;
      Alcotest.test_case "scan lists entries" `Quick scan_lists_entries;
      Alcotest.test_case "stats track appends" `Quick stats_track_appends;
      Alcotest.test_case "bad sizes rejected" `Quick bad_sizes_rejected;
      Alcotest.test_case "txn record roundtrip" `Quick record_roundtrip;
      Alcotest.test_case "replay skips txn records" `Quick replay_skips_txn_records;
      Alcotest.test_case "replay reads only the live prefix" `Quick
        replay_reads_only_the_live_prefix;
      Alcotest.test_case "recovery cost ignores stale entries" `Quick
        recovery_cost_ignores_stale_entries;
    ] )
