(* Differential test of the external log's replay pass. The pass reads
   only the live prefix and stops at the first entry that is not live;
   the full-scan walk it replaced read and checksummed every intact entry
   of the log and only stopped *using* entries after the first non-live
   one (a [stop] flag). That walk is kept below, in this test only, as
   the reference model. Random logs mix node images, PREPARE, commit and
   session records over several truncation rounds and epochs, with an
   optional torn word and the stale tail of the earlier rounds. *)

let header_bytes = 48

(* The log slice starts after its one-line header (the truncation
   floor). *)
let log_base = Nvm.Layout.extlog_off + 64
let heap_addr = 1024 * 1024
let heap_span = 8 * 1024

(* --- the reference model: the full-scan fold_live ------------------- *)

module Ref = struct
  let magic = 0xE10C_11E0_1234_5678L

  let checksum r ~payload_off ~size ~kind ~epoch ~addr =
    let open Int64 in
    let acc = ref (of_int (epoch lxor (kind * 0x51ed))) in
    acc := logxor !acc (mul (of_int addr) 0x9E3779B97F4A7C15L);
    acc := logxor !acc (of_int size);
    for i = 0 to (size / 8) - 1 do
      let w = Nvm.Region.read_i64 r (payload_off + (8 * i)) in
      acc := logxor !acc (mul (add w (of_int (i + 1))) 0xC4CEB9FE1A85EC53L)
    done;
    !acc

  (* Every intact entry, whatever its epoch. *)
  let fold_entries r ~len f =
    let rec loop pos =
      if pos + header_bytes <= len then begin
        let entry = log_base + pos in
        let word k = Nvm.Region.read_i64 r (entry + (8 * k)) in
        if word 0 = magic then begin
          let kind = Int64.to_int (word 1) and epoch = Int64.to_int (word 2) in
          let addr = Int64.to_int (word 3) and size = Int64.to_int (word 4) in
          let shape_ok =
            size > 0
            && size land 7 = 0
            && pos + header_bytes + size <= len
            && addr >= 0
            && (kind = 0 && addr + size <= Nvm.Region.size r
               || kind = 1 || kind = 2 || kind = 3)
          in
          let payload_off = entry + header_bytes in
          if
            shape_ok
            && checksum r ~payload_off ~size ~kind ~epoch ~addr = word 5
          then begin
            f ~kind ~epoch ~addr ~size ~payload_off;
            loop (pos + header_bytes + size)
          end
        end
      end
    in
    loop 0

  let fold_live r ~len ~is_failed f =
    let floor = Nvm.Region.read_int r Nvm.Layout.extlog_off in
    let stop = ref false in
    fold_entries r ~len (fun ~kind ~epoch ~addr ~size ~payload_off ->
        if (not !stop) && epoch >= floor && is_failed epoch then
          f ~kind ~epoch ~addr ~size ~payload_off
        else stop := true)

  (* Node images copied home, records in log order, and the live end
     the cursor was parked at. *)
  let replay r ~len ~is_failed =
    let applied = ref 0 and records = ref [] and live_end = ref 0 in
    fold_live r ~len ~is_failed (fun ~kind ~epoch ~addr ~size ~payload_off ->
        if kind = 0 then begin
          Nvm.Region.blit_within r ~src:payload_off ~dst:addr ~len:size;
          incr applied
        end
        else
          records :=
            (kind, epoch, addr, Nvm.Region.read_string r payload_off ~len:size)
            :: !records;
        live_end := !live_end + header_bytes + size);
    (!applied, List.rev !records, !live_end)
end

(* --- random logs ----------------------------------------------------- *)

type entry =
  | Node of { slot : int; words : int; seed : int }
  | Record of { kind : int; txn_id : int; len : int; fill : char }

(* One truncation round: the floor it sets (the previous floor plus
   [gap]) and its entries, each tagged with an epoch offset of 0 to 2
   from the floor, so a round can span a failed epoch and a recovery
   epoch as a crash during recovery leaves it. *)
type round = { gap : int; entries : (int * entry) list }

type scenario = {
  rounds : round list;
  torn : (int * int) option;  (* (entry index, word) in the last round *)
  failed : bool array;  (* is_failed, by epoch *)
}

let max_epoch = 16

let entry_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun slot words seed -> Node { slot; words; seed })
            (int_bound 15) (int_range 1 16) nat );
        ( 2,
          map3
            (fun kind (txn_id, len) fill -> Record { kind; txn_id; len; fill })
            (int_range 1 3)
            (pair (int_bound 50) (int_bound 90))
            printable );
      ])

let scenario_gen =
  QCheck.Gen.(
    let round =
      map2
        (fun gap entries -> { gap; entries })
        (int_range 1 3)
        (list_size (int_range 0 40) (pair (int_bound 2) entry_gen))
    in
    map3
      (fun rounds torn failed -> { rounds; torn; failed = Array.of_list failed })
      (list_size (int_range 1 4) round)
      (opt (pair (int_bound 40) (int_bound 20)))
      (list_repeat (max_epoch + 1) (frequency [ (3, return true); (1, return false) ])))

let print_scenario s =
  Printf.sprintf "%d rounds (%s), torn %s"
    (List.length s.rounds)
    (String.concat "," (List.map (fun r -> string_of_int (List.length r.entries)) s.rounds))
    (match s.torn with
    | None -> "none"
    | Some (i, w) -> Printf.sprintf "entry %d word %d" i w)

(* Build the scenario's log in a fresh region, then overwrite every home
   address so the replayed images are visible. *)
let build s =
  let cfg =
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = 2 * 1024 * 1024;
      extlog_bytes = 8 * 1024;
    }
  in
  let r = Nvm.Region.create cfg in
  Nvm.Superblock.format r;
  let log = Extlog.Log.attach r in
  let floor = ref 0 in
  let last = List.length s.rounds - 1 in
  List.iteri
    (fun ri round ->
      floor := !floor + round.gap;
      Extlog.Log.truncate log ~epoch:!floor;
      let offsets = ref [] in
      (try
         List.iter
           (fun (de, e) ->
             let epoch = !floor + de in
             offsets := Extlog.Log.used log :: !offsets;
             match e with
             | Node { slot; words; seed } ->
                 let addr = heap_addr + (slot * 256) in
                 for i = 0 to words - 1 do
                   Nvm.Region.write_int r (addr + (8 * i)) (seed + (i * 7919))
                 done;
                 Extlog.Log.append log ~epoch ~addr ~size:(8 * words)
             | Record { kind; txn_id; len; fill } ->
                 Extlog.Log.append_record log ~kind ~epoch ~txn_id
                   ~payload:(String.make len fill))
           round.entries
       with Extlog.Log.Log_full -> offsets := List.tl !offsets);
      match s.torn with
      | Some (i, w) when ri = last && i < List.length !offsets ->
          let pos = List.nth (List.rev !offsets) i in
          let at = log_base + pos + (8 * w) in
          if at < log_base + Extlog.Log.capacity log then
            Nvm.Region.write_int r at 0x7E57
      | _ -> ())
    s.rounds;
  for i = 0 to (heap_span / 8) - 1 do
    Nvm.Region.write_int r (heap_addr + (8 * i)) (-1 - i)
  done;
  (r, log)

let replay_matches_full_scan =
  QCheck.Test.make ~name:"replay = full-scan fold_live reference" ~count:300
    (QCheck.make ~print:print_scenario scenario_gen)
    (fun s ->
      let is_failed e = e <= max_epoch && s.failed.(e) in
      let r_new, log = build s in
      let r_ref, ref_log = build s in
      let rep = Extlog.Log.replay log ~is_failed in
      let applied, records, live_end =
        Ref.replay r_ref ~len:(Extlog.Log.capacity ref_log) ~is_failed
      in
      let heap r = Nvm.Region.read_string r heap_addr ~len:heap_span in
      rep.Extlog.Log.applied = applied
      && List.map
           (fun { Extlog.Log.kind; epoch; txn_id; payload } ->
             (kind, epoch, txn_id, payload))
           rep.Extlog.Log.records
         = records
      && Extlog.Log.used log = live_end
      && heap r_new = heap r_ref)

let tests =
  ( "extlog-diff",
    [ QCheck_alcotest.to_alcotest replay_matches_full_scan ] )
