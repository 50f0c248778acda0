type variant = Mt | Mt_plus | Logging | Incll

let variant_name = function
  | Mt -> "MT"
  | Mt_plus -> "MT+"
  | Logging -> "LOGGING"
  | Incll -> "INCLL"

let variant_of_string s =
  match String.uppercase_ascii s with
  | "MT" -> Mt
  | "MT+" | "MTPLUS" | "MT_PLUS" -> Mt_plus
  | "LOGGING" | "LOG" -> Logging
  | "INCLL" -> Incll
  | _ -> invalid_arg ("System.variant_of_string: " ^ s)

type config = {
  nvm : Nvm.Config.t;
  epoch_len_ns : float;
  val_incll : bool;
}

let default_config =
  { nvm = Nvm.Config.default; epoch_len_ns = 64.0e6; val_incll = true }

type recover_stats = {
  replayed_entries : int;
  recovery_sim_ns : float;
  recovery_wall_ns : float;
  quarantined_chains : int;
      (* allocator chains found corrupt and unlinked during this recovery *)
  txns_redone : int;  (* committed transactions redone from PREPARE records *)
  txns_aborted : int;  (* in-doubt transactions rolled back *)
  sessions_recovered : int;  (* distinct sessions rebuilt from dedup records *)
  phases : (string * float) list;
      (* ordered (phase, sim ns) breakdown; sums to recovery_sim_ns *)
}

(* A transaction buffers its writes until commit (last-write-wins), so
   abort never touches the tree. *)
type txn_state = { id : int; mutable writes : (string * string option) list }

type t = {
  variant : variant;
  config : config;
  region : Nvm.Region.t;
  em : Epoch.Manager.t option;
  ctx : Ctx.t option;
  dalloc : Alloc.Durable.t option;
  tree : Masstree.Tree.t;
  last_recover_stats : recover_stats option;
  mutable active_txn : txn_state option;
  mutable next_txn_id : int;
  (* (sid, last_seq, status of that seq) per session found in the crashed
     epoch's dedup records; the serving layer reseeds its table from it. *)
  recovered_sessions : (int * int * int) list;
}

let variant t = t.variant
let region t = t.region
let metrics t = Nvm.Region.metrics t.region
let tree t = t.tree
let epoch_manager t = t.em
let ctx t = t.ctx
let durable_alloc t = t.dalloc
let last_recover_stats t = t.last_recover_stats

let nodes_logged t =
  match t.ctx with Some c -> Extlog.Log.nodes_logged c.Ctx.log | None -> 0

let hooks_for variant config ctx =
  match variant with
  | Mt | Mt_plus -> Masstree.Hooks.transient
  | Logging -> Logging_hooks.make ctx
  | Incll -> Incll_hooks.make ~val_incll:config.val_incll ctx

(* The external log is discarded at every checkpoint (§3). *)
let subscribe_log_truncation em log =
  Epoch.Manager.subscribe_post_advance em (fun () ->
      Extlog.Log.truncate log ~epoch:(Epoch.Manager.current em))

(* Feed the adaptive scheduler's log-pressure trigger (DESIGN.md §15):
   checkpointing early when the log nears capacity converts synchronous
   log-wrap advances on the op path into scheduled ones. *)
let subscribe_log_pressure em log =
  Epoch.Manager.set_log_pressure em (fun () ->
      float_of_int (Extlog.Log.used log)
      /. float_of_int (max 1 (Extlog.Log.capacity log)))

let create ?(config = default_config) variant =
  let region = Nvm.Region.create config.nvm in
  Nvm.Superblock.format region;
  match variant with
  | Mt | Mt_plus ->
      let em =
        match variant with
        | Mt_plus ->
            Some (Epoch.Manager.create ~epoch_len_ns:config.epoch_len_ns region)
        | _ -> None
      in
      let kind =
        match variant with
        | Mt -> Alloc.Transient.General
        | _ -> Alloc.Transient.Pool
      in
      let talloc = Alloc.Transient.create kind region in
      let current_epoch =
        match em with
        | Some em -> fun () -> Epoch.Manager.current em
        | None -> fun () -> 2
      in
      let tree =
        Masstree.Tree.create region
          (Alloc.Api.of_transient talloc)
          Masstree.Hooks.transient ~current_epoch
      in
      {
        variant;
        config;
        region;
        em;
        ctx = None;
        dalloc = None;
        tree;
        last_recover_stats = None;
        active_txn = None;
        next_txn_id = 1;
        recovered_sessions = [];
      }
  | Logging | Incll ->
      let em = Epoch.Manager.create ~epoch_len_ns:config.epoch_len_ns region in
      let dalloc = Alloc.Durable.create em in
      let log = Extlog.Log.attach region in
      Extlog.Log.truncate log ~epoch:(Epoch.Manager.current em);
      subscribe_log_truncation em log;
      subscribe_log_pressure em log;
      let ctx = Ctx.make em log in
      let tree =
        Masstree.Tree.create region
          (Alloc.Api.of_durable dalloc)
          (hooks_for variant config ctx)
          ~current_epoch:(fun () -> Epoch.Manager.current em)
      in
      (* Initialisation must itself be a completed checkpoint: a crash in
         the first working epoch then rolls back to the freshly formatted
         (empty) store instead of to an allocator state that predates the
         root leaf. *)
      Epoch.Manager.advance em;
      {
        variant;
        config;
        region;
        em = Some em;
        ctx = Some ctx;
        dalloc = Some dalloc;
        tree;
        last_recover_stats = None;
        active_txn = None;
        next_txn_id = 1;
        recovered_sessions = [];
      }

let after_op t =
  match t.em with
  | Some em -> ignore (Epoch.Manager.maybe_advance em)
  | None -> ()

let put t ~key ~value =
  Nvm.Region.charge_op t.region;
  Masstree.Tree.put t.tree ~key ~value;
  after_op t

let get t ~key =
  Nvm.Region.charge_op t.region;
  let r = Masstree.Tree.get t.tree ~key in
  after_op t;
  r

let mem t ~key = Option.is_some (get t ~key)

let remove t ~key =
  Nvm.Region.charge_op t.region;
  let r = Masstree.Tree.remove t.tree ~key in
  after_op t;
  r

let scan t ~start ~n =
  Nvm.Region.charge_op t.region;
  let r = Masstree.Tree.scan t.tree ~start ~n in
  after_op t;
  r

let scan_rev t ?bound ~n () =
  Nvm.Region.charge_op t.region;
  let r = Masstree.Tree.scan_rev t.tree ?bound ~n () in
  after_op t;
  r

(* How much uncommitted work is currently at risk: the simulated time
   since the last completed checkpoint (bounded by the epoch length). *)
let durability_lag_ns t =
  match t.em with
  | None -> infinity
  | Some em ->
      Nvm.Stats.sim_ns (Nvm.Region.stats t.region)
      -. Epoch.Manager.epoch_start_ns em

let advance_epoch t =
  match t.em with
  | Some em -> Epoch.Manager.advance em
  | None -> ()

let require_recoverable t what =
  match t.variant with
  | Logging | Incll -> ()
  | Mt | Mt_plus ->
      failwith (what ^ ": the " ^ variant_name t.variant
                ^ " variant is not recoverable")

let crash t rng =
  require_recoverable t "System.crash";
  Nvm.Region.crash t.region rng

let crash_with t ~choose =
  require_recoverable t "System.crash_with";
  Nvm.Region.crash_with t.region ~choose

(* {1 Transactions}

   Multi-key atomic updates over the [Txn] protocol. The system is
   sequential, so the commit window (reserve .. apply) runs without an
   intervening epoch advance: [reserve] takes any needed checkpoint
   before the first PREPARE, and the writes are applied through the tree
   directly (no [after_op]) so the records and the applied writes always
   share one epoch. *)

let txn_active t = Option.is_some t.active_txn

let require_txn_capable t what =
  require_recoverable t what;
  if t.ctx = None then failwith (what ^ ": no logging context")

let txn_begin t =
  require_txn_capable t "System.txn_begin";
  if txn_active t then failwith "System.txn_begin: transaction already active";
  let id = t.next_txn_id in
  t.next_txn_id <- id + 1;
  t.active_txn <- Some { id; writes = [] }

let active_exn t what =
  match t.active_txn with
  | Some txn -> txn
  | None -> failwith (what ^ ": no active transaction")

let txn_put t ~key ~value =
  let txn = active_exn t "System.txn_put" in
  txn.writes <- (key, Some value) :: txn.writes

let txn_remove t ~key =
  let txn = active_exn t "System.txn_remove" in
  txn.writes <- (key, None) :: txn.writes

(* Read-your-writes: the buffer (newest first) shadows the tree. *)
let txn_get t ~key =
  let txn = active_exn t "System.txn_get" in
  match List.assoc_opt key txn.writes with
  | Some v -> v
  | None -> get t ~key

let txn_abort t =
  ignore (active_exn t "System.txn_abort" : txn_state);
  t.active_txn <- None

(* Last-write-wins flattening, preserving first-write order. *)
let flatten_writes writes =
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc (key, value) ->
      if Hashtbl.mem seen key then acc
      else begin
        Hashtbl.add seen key ();
        { Txn.key; value } :: acc
      end)
    [] writes

let txn_commit t =
  let txn = active_exn t "System.txn_commit" in
  let ctx = Option.get t.ctx in
  t.active_txn <- None;
  let writes = flatten_writes txn.writes in
  if writes <> [] then begin
    Nvm.Region.charge_op t.region;
    let coordinator = Txn.self_coordinator in
    Txn.reserve ctx ~bytes:(Txn.prepare_bytes ~coordinator ~writes);
    Txn.append_prepare ctx ~txn_id:txn.id ~coordinator ~writes;
    Txn.advance_watermark t.region ~txn_id:txn.id;
    Txn.apply_committed ctx t.tree ~txn_id:txn.id ~coordinator writes
  end;
  after_op t

let recover_region ?txn_probe ~variant ~config region =
  (match variant with
  | Logging | Incll -> ()
  | Mt | Mt_plus ->
      failwith "System.recover: transient variants are not recoverable");
  Nvm.Superblock.check region;
  let wall0 = Unix.gettimeofday () in
  let sim_now () = Nvm.Stats.sim_ns (Nvm.Region.stats region) in
  let sim0 = sim_now () in
  (* Per-phase profiling: each [phase] is a named span on the region's
     simulated clock. Phase durations are measured mark-to-mark (the time
     since the previous phase ended), so they telescope: their sum is
     exactly the whole recovery's simulated time, glue work included. *)
  let spans = Nvm.Region.spans region in
  Obs.Span.begin_ spans "recover";
  (* One Recovery-cause stall spanning every phase: the outermost-wins
     scope swallows the nested epoch-open fences, replay appends and the
     final checkpoint so post-crash downtime reads as a single entry. *)
  let stalls = Nvm.Region.stalls region in
  Obs.Stall.enter stalls Obs.Stall.Recovery;
  let phases = ref [] in
  let last_mark = ref sim0 in
  let phase name f =
    (* Fault-injection hook: every phase boundary is a chaos site, so a
       crash inside recovery (which must re-enter recovery cleanly) can
       be scheduled deterministically. *)
    (match Chaos.Site.of_phase name with
    | Some site -> Chaos.Plan.fire site
    | None -> ());
    Obs.Span.begin_ spans name;
    let r = f () in
    ignore (Obs.Span.end_ spans name : float);
    let now = sim_now () in
    phases := (name, now -. !last_mark) :: !phases;
    last_mark := now;
    r
  in
  (* Re-enter epoch machinery: load + extend the durable failed set and
     durably enter the recovery-marker epoch. *)
  let em =
    phase "recover.epoch_open" (fun () ->
        Epoch.Manager.open_after_crash ~epoch_len_ns:config.epoch_len_ns region)
  in
  let log = Extlog.Log.attach region in
  (* Replay the external log (order-independent entries, §4.3). *)
  let replayed =
    phase "recover.extlog_replay" (fun () ->
        Extlog.Log.replay log ~is_failed:(Epoch.Manager.is_failed em))
  in
  (* Recovery-time appends (txn redo below) must not overwrite the live
     prefix — a crash during recovery replays it again. *)
  Extlog.Log.seek_live_end log ~is_failed:(Epoch.Manager.is_failed em);
  (* Restore the allocator metadata lines (bump/free/limbo chains). *)
  let dalloc =
    phase "recover.alloc_chains" (fun () -> Alloc.Durable.open_after_crash em)
  in
  subscribe_log_truncation em log;
  subscribe_log_pressure em log;
  let ctx = Ctx.make em log in
  let hooks = hooks_for variant config ctx in
  (* Scan the persisted image for the tree root and reattach; leaves are
     repaired lazily from their InCLLs on first access afterwards. *)
  let tree =
    phase "recover.image_scan" (fun () ->
        Masstree.Tree.open_existing region
          (Alloc.Api.of_durable dalloc)
          hooks
          ~current_epoch:(fun () -> Epoch.Manager.current em))
  in
  (* Resolve in-doubt transactions: redo committed write sets from the
     surviving PREPARE records (the undo replay above erased their
     applied writes along with the rest of the crashed epoch), discard
     uncommitted ones. The probe answers "did this coordinator commit
     that txn?" — by default against this region's own watermark; a
     sharded store passes one that reads the coordinator shard. *)
  let probe =
    match txn_probe with
    | Some p -> p
    | None -> fun ~coordinator:_ ~txn_id -> txn_id <= Txn.watermark region
  in
  let txns_redone, txns_aborted, session_records =
    phase "recover.txn_resolve" (fun () -> Txn.resolve ctx tree ~probe)
  in
  (* Per-session newest record wins: the records arrive in log order, so
     a later record of the same session overwrites an earlier one. *)
  let recovered_sessions =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (sid, seq, status) ->
        match Hashtbl.find_opt tbl sid with
        | Some (s, _) when s > seq -> ()
        | _ -> Hashtbl.replace tbl sid (seq, status))
      session_records;
    Hashtbl.fold (fun sid (seq, status) acc -> (sid, seq, status) :: acc) tbl []
  in
  (* Compact the failed-epoch set before it can overflow: recover every
     node eagerly, persist that, then durably drop it. Pressure is slot
     occupancy, not epoch count — consecutive failed epochs share a
     range slot. The sweep floor lets later GC discard any ranges a
     crash resurrects after this point. *)
  if Epoch.Manager.failed_slots em >= Nvm.Layout.max_failed_epochs - 2
  then
    phase "recover.eager_sweep" (fun () ->
        Recovery.eager_sweep ctx tree dalloc;
        Nvm.Region.wbinvd region;
        Epoch.Manager.note_swept em
          ~floor:(Epoch.Manager.first_epoch_of_run em);
        Epoch.Manager.clear_failed em);
  (* Execution resumes in a fresh epoch; the checkpoint persists all
     recovery writes and truncates the log. *)
  phase "recover.checkpoint" (fun () -> Epoch.Manager.advance em);
  Obs.Stall.exit stalls;
  ignore (Obs.Span.end_ spans "recover" : float);
  let wall1 = Unix.gettimeofday () in
  let sim1 = sim_now () in
  Nvm.Region.trace_event region (Obs.Trace.Recover { replayed });
  {
    variant;
    config;
    region;
    em = Some em;
    ctx = Some ctx;
    dalloc = Some dalloc;
    tree;
    last_recover_stats =
      Some
        {
          replayed_entries = replayed;
          recovery_sim_ns = sim1 -. sim0;
          recovery_wall_ns = (wall1 -. wall0) *. 1e9;
          quarantined_chains = Alloc.Durable.quarantined dalloc;
          txns_redone;
          txns_aborted;
          sessions_recovered = List.length recovered_sessions;
          phases = List.rev !phases;
        };
    active_txn = None;
    (* Ids must stay above every committed id, or a reused id would make
       a later in-doubt probe report a stale commit. *)
    next_txn_id = Txn.watermark region + 1;
    recovered_sessions;
  }

let recover ?txn_probe old =
  recover_region ?txn_probe ~variant:old.variant ~config:old.config old.region

let attach ?txn_probe ?(config = default_config) variant region =
  recover_region ?txn_probe ~variant ~config region

let recovered_sessions t = t.recovered_sessions

(* {1 Session dedup records (exactly-once serving)} *)

let record_session t ~sid ~seq ~status op =
  match t.ctx with
  | None -> failwith "System.record_session: no logging context"
  | Some ctx -> Txn.append_session_retry ctx ~sid ~seq ~status op
