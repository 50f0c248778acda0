exception Failed_set_full

type t = {
  region : Nvm.Region.t;
  epoch_len_ns : float;
  (* Adaptive-scheduler knobs, copied from the region's [Nvm.Config]
     (DESIGN.md §15). [sweep_budget > 0] selects the incremental-sweep
     drain; 0 is the paper's stop-the-world wbinvd. *)
  sweep_budget : int;
  dirty_trigger : int;  (* advance early at this many dirty lines; 0 = off *)
  log_trigger_frac : float;  (* advance early at this extlog fill; 0. = off *)
  mutable log_pressure : unit -> float;  (* extlog fill fraction, 0..1 *)
  mutable sweeping : bool;  (* a boundary is recorded, quanta in flight *)
  mutable current : int;
  mutable first_epoch_of_run : int;
  mutable crashed_epoch : int option;
  mutable epoch_start_ns : float;
  mutable advances : int;
  failed : (int, unit) Hashtbl.t;
  mutable ranges : (int * int) list;  (* durable failed-set slots, in order *)
  mutable subscribers : (unit -> unit) list;  (* reversed *)
  h_epoch_len : Obs.Histogram.t;  (* completed epoch lengths, sim ns *)
  h_epoch_dirty : Obs.Histogram.t;  (* dirty lines flushed per checkpoint *)
  c_advances : int ref;  (* "epoch.advances" registry counter *)
  c_adv_timer : int ref;  (* boundaries started by the period timer *)
  c_adv_dirty : int ref;  (* boundaries started by dirty-line pressure *)
  c_adv_log : int ref;  (* boundaries started by extlog pressure *)
  s_dirty : Obs.Series.t;  (* dirty-line occupancy at each boundary *)
  s_pending : Obs.Series.t;  (* pending write-back depth at each boundary *)
}

let default_epoch_len_ns = 64.0e6 (* 64 ms, §4 *)

let region t = t.region
let current t = t.current
let first_epoch_of_run t = t.first_epoch_of_run
let crashed_epoch t = t.crashed_epoch
let is_failed t e = Hashtbl.mem t.failed e
let failed_count t = Hashtbl.length t.failed
let epoch_len_ns t = t.epoch_len_ns
let epochs_elapsed t = t.advances
let epoch_start_ns t = t.epoch_start_ns

let failed_list t =
  Hashtbl.fold (fun e () acc -> e :: acc) t.failed [] |> List.sort compare

let subscribe_post_advance t f = t.subscribers <- f :: t.subscribers

let run_subscribers t = List.iter (fun f -> f ()) (List.rev t.subscribers)

let write_durable_epoch t e =
  Nvm.Region.write_int t.region Nvm.Layout.off_durable_epoch e;
  Nvm.Region.clwb t.region Nvm.Layout.off_durable_epoch;
  Nvm.Region.sfence t.region

let read_durable_epoch region =
  Nvm.Region.read_int region Nvm.Layout.off_durable_epoch

(* Each durable slot packs a range of consecutive failed epochs as
   [lo * 2^16 + (hi - lo)]: repeated crash-during-recovery produces
   strictly consecutive failed epochs, so an arbitrarily long crash storm
   occupies a single slot (extended by an atomic one-word rewrite). *)
let span_capacity = 0xffff

let encode_range ~lo ~hi =
  if hi < lo || hi - lo > span_capacity then invalid_arg "encode_range";
  (lo lsl 16) lor (hi - lo)

let decode_range v =
  let lo = v lsr 16 in
  (lo, lo + (v land 0xffff))

let write_slot t i v =
  let slot = Nvm.Layout.failed_epoch_slot i in
  Nvm.Region.write_int t.region slot v;
  Nvm.Region.clwb t.region slot;
  Nvm.Region.sfence t.region

let write_count t n =
  Nvm.Region.write_int t.region Nvm.Layout.off_failed_count n;
  Nvm.Region.clwb t.region Nvm.Layout.off_failed_count;
  Nvm.Region.sfence t.region

let add_range_volatile t (lo, hi) =
  for e = lo to hi do
    Hashtbl.replace t.failed e ()
  done

let load_failed_set t =
  Hashtbl.reset t.failed;
  t.ranges <- [];
  let n = Nvm.Region.read_int t.region Nvm.Layout.off_failed_count in
  if n < 0 || n > Nvm.Layout.max_failed_epochs then
    failwith "Manager: corrupt failed-epoch count";
  for i = 0 to n - 1 do
    let r =
      decode_range (Nvm.Region.read_int t.region (Nvm.Layout.failed_epoch_slot i))
    in
    t.ranges <- t.ranges @ [ r ];
    add_range_volatile t r
  done

let failed_slots t = List.length t.ranges

let sweep_floor t = Nvm.Region.read_int t.region Nvm.Layout.off_sweep_floor

let note_swept t ~floor =
  Nvm.Region.write_int t.region Nvm.Layout.off_sweep_floor floor;
  Nvm.Region.clwb t.region Nvm.Layout.off_sweep_floor;
  Nvm.Region.sfence t.region

(* Drop ranges made dead by a completed eager sweep: every node was
   re-stamped at the sweep's recovery marker, so no InCLL low-epoch can
   alias an epoch below it and those ranges can never matter again. A
   crash mid-rewrite leaves the old count with a prefix of live ranges
   rewritten over their old positions — a superset of the live set, which
   is always safe (being failed is conservative). *)
let gc_failed t =
  let floor = sweep_floor t in
  let live = List.filter (fun (_, hi) -> hi >= floor) t.ranges in
  if List.length live < List.length t.ranges then begin
    List.iteri (fun i (lo, hi) -> write_slot t i (encode_range ~lo ~hi)) live;
    write_count t (List.length live);
    t.ranges <- live;
    Hashtbl.reset t.failed;
    List.iter (add_range_volatile t) live
  end

(* Durable append: persist the new entry strictly before the count that
   makes it visible, so a crash mid-append can only lose the append.
   Consecutive epochs (the crash-during-recovery storm) extend the last
   range in place instead of consuming a slot; when slots do run out,
   garbage-collect ranges below the sweep floor before giving up. *)
let append_failed t e =
  if Hashtbl.mem t.failed e then ()
  else begin
    let n = List.length t.ranges in
    let last = if n = 0 then None else Some (List.nth t.ranges (n - 1)) in
    match last with
    | Some (lo, hi) when e = hi + 1 && e - lo <= span_capacity ->
        (* One-word rewrite: store-atomic under PCSO, so the slot always
           decodes to either the old or the extended range. *)
        write_slot t (n - 1) (encode_range ~lo ~hi:e);
        t.ranges <-
          List.mapi (fun i r -> if i = n - 1 then (lo, e) else r) t.ranges;
        Hashtbl.replace t.failed e ()
    | _ ->
        let n =
          if n >= Nvm.Layout.max_failed_epochs then begin
            gc_failed t;
            List.length t.ranges
          end
          else n
        in
        if n >= Nvm.Layout.max_failed_epochs then raise Failed_set_full;
        write_slot t n (encode_range ~lo:e ~hi:e);
        write_count t (n + 1);
        t.ranges <- t.ranges @ [ (e, e) ];
        Hashtbl.replace t.failed e ()
  end

let clear_failed t =
  Nvm.Region.write_int t.region Nvm.Layout.off_failed_count 0;
  Nvm.Region.clwb t.region Nvm.Layout.off_failed_count;
  Nvm.Region.sfence t.region;
  Hashtbl.reset t.failed;
  t.ranges <- []

let observables region =
  let m = Nvm.Region.metrics region in
  ( Obs.Registry.histogram m "epoch.len_ns",
    Obs.Registry.histogram m "epoch.dirty_lines",
    Obs.Registry.counter m "epoch.advances",
    Obs.Registry.counter m "epoch.advance.timer",
    Obs.Registry.counter m "epoch.advance.pressure_dirty",
    Obs.Registry.counter m "epoch.advance.pressure_log",
    Nvm.Region.series region "epoch.dirty_lines",
    Nvm.Region.series region "epoch.pending_wb" )

let no_log_pressure () = 0.0

let scheduler_knobs region ~epoch_len_ns =
  let cfg = Nvm.Region.config region in
  let epoch_len_ns =
    match cfg.Nvm.Config.policy with
    | Nvm.Config.Rto -> epoch_len_ns /. Nvm.Config.rto_epoch_divisor
    | Nvm.Config.Throughput | Nvm.Config.Latency -> epoch_len_ns
  in
  ( epoch_len_ns,
    cfg.Nvm.Config.sweep_budget_lines,
    cfg.Nvm.Config.dirty_trigger_lines,
    cfg.Nvm.Config.log_trigger_frac )

let create ?(epoch_len_ns = default_epoch_len_ns) region =
  Nvm.Superblock.check region;
  let h_epoch_len, h_epoch_dirty, c_advances, c_adv_timer, c_adv_dirty,
      c_adv_log, s_dirty, s_pending =
    observables region
  in
  let epoch_len_ns, sweep_budget, dirty_trigger, log_trigger_frac =
    scheduler_knobs region ~epoch_len_ns
  in
  let t =
    {
      region;
      epoch_len_ns;
      sweep_budget;
      dirty_trigger;
      log_trigger_frac;
      log_pressure = no_log_pressure;
      sweeping = false;
      current = 2;
      first_epoch_of_run = 2;
      crashed_epoch = None;
      epoch_start_ns = Nvm.Stats.sim_ns (Nvm.Region.stats region);
      advances = 0;
      failed = Hashtbl.create 8;
      ranges = [];
      subscribers = [];
      h_epoch_len;
      h_epoch_dirty;
      c_advances;
      c_adv_timer;
      c_adv_dirty;
      c_adv_log;
      s_dirty;
      s_pending;
    }
  in
  write_durable_epoch t 2;
  Obs.Stall.set_epoch (Nvm.Region.stalls region) t.current;
  t.epoch_start_ns <- Nvm.Stats.sim_ns (Nvm.Region.stats region);
  t

let open_after_crash ?(epoch_len_ns = default_epoch_len_ns) region =
  Nvm.Superblock.check region;
  let crashed = read_durable_epoch region in
  if crashed < 2 then failwith "Manager: corrupt durable epoch index";
  let h_epoch_len, h_epoch_dirty, c_advances, c_adv_timer, c_adv_dirty,
      c_adv_log, s_dirty, s_pending =
    observables region
  in
  let epoch_len_ns, sweep_budget, dirty_trigger, log_trigger_frac =
    scheduler_knobs region ~epoch_len_ns
  in
  let t =
    {
      region;
      epoch_len_ns;
      sweep_budget;
      dirty_trigger;
      log_trigger_frac;
      log_pressure = no_log_pressure;
      sweeping = false;
      current = crashed + 1;  (* the recovery-marker epoch *)
      first_epoch_of_run = crashed + 1;
      crashed_epoch = Some crashed;
      epoch_start_ns = Nvm.Stats.sim_ns (Nvm.Region.stats region);
      advances = 0;
      failed = Hashtbl.create 8;
      ranges = [];
      subscribers = [];
      h_epoch_len;
      h_epoch_dirty;
      c_advances;
      c_adv_timer;
      c_adv_dirty;
      c_adv_log;
      s_dirty;
      s_pending;
    }
  in
  load_failed_set t;
  append_failed t crashed;
  (* Enter the recovery-marker epoch durably: if recovery itself crashes,
     the marker epoch is added to the failed set by the next run and the
     (idempotent) recovery simply repeats. *)
  write_durable_epoch t t.current;
  Obs.Stall.set_epoch (Nvm.Region.stalls region) t.current;
  t

(* Record the epoch boundary: fault hook, boundary observability, the
   open "checkpoint" span. Under the stop-the-world scheduler this is
   immediately followed by [finalize]; under the incremental sweep it
   starts the sweep window and quanta run between ops until the dirty
   set is drained. *)
let record_boundary t =
  (* Fault-injection hooks: [Epoch_advance] kills the checkpoint before
     anything was flushed; [Sweep_partial] (in [sweep_step]) kills it
     mid-sweep with part of the epoch persisted; [Post_checkpoint] (in
     [finalize]) kills it after the new durable epoch is fenced but
     before the subscribers (limbo merge, log truncation) have run in
     the new epoch. *)
  Chaos.Plan.fire Chaos.Site.Epoch_advance;
  let now = Nvm.Stats.sim_ns (Nvm.Region.stats t.region) in
  Obs.Histogram.record t.h_epoch_len (now -. t.epoch_start_ns);
  let dirty = Nvm.Region.dirty_line_count t.region in
  Obs.Histogram.record t.h_epoch_dirty (float_of_int dirty);
  (* The Figure-6-shaped boundary samples: occupancy just before the
     flush, one point per checkpoint. *)
  Obs.Series.sample t.s_dirty ~ts_ns:now ~value:(float_of_int dirty);
  Obs.Series.sample t.s_pending ~ts_ns:now
    ~value:(float_of_int (Nvm.Region.pending_wb_count t.region));
  incr t.c_advances;
  Nvm.Region.trace_event t.region
    (Obs.Trace.Epoch_advance { epoch = t.current + 1 });
  Obs.Span.begin_ (Nvm.Region.spans t.region) "checkpoint"

(* Complete the checkpoint whose boundary [record_boundary] recorded.

   Ordering invariant (the durability argument of §3/§4): the store to
   the durable epoch word is ISSUED only after every epoch-[e] line —
   including the failed-set slots and the sweep-floor word at
   [Layout.off_sweep_floor] — has been committed to the persisted image
   by the drain. That issue-after-drain ordering is what makes the word
   trustworthy: under PCSO a crash may persist the word's pending store
   even before its own clwb+sfence complete, so the fence after the word
   does NOT order it against the data flush — it only bounds when
   recovery observes [e+1] rather than [e] (both are complete
   checkpoints, hence both are legal recovery points). The asserts spell
   the invariant out for the incremental sweep, where the drain is
   spread over many quanta instead of one wbinvd. *)
let finalize t =
  let stalls = Nvm.Region.stalls t.region in
  (* The stop-the-world remainder: every in-flight op waits for the
     drain and the durable-epoch fence. The scope swallows the
     wbinvd/sweep/sfence leaf recordings; subscribers (limbo merge, log
     truncation) run in the new epoch and attribute their own stalls.
     Under the incremental sweep only the final drain remainder (usually
     zero lines) and the epoch-word fence land here — the bulk of the
     flush was already attributed to [clwb_sweep] quanta. *)
  Obs.Stall.enter stalls Obs.Stall.Epoch_advance;
  if t.sweep_budget > 0 then begin
    while Nvm.Region.dirty_line_count t.region > 0 do
      ignore (Nvm.Region.flush_some t.region ~budget_lines:t.sweep_budget : int)
    done;
    (* Mirror wbinvd's post-flush state: every line is committed, so the
       pending write-back set holds only stale (already-clean) entries. *)
    Nvm.Region.clear_pending_wb t.region;
    assert (Nvm.Region.dirty_line_count t.region = 0);
    assert (
      not
        (Nvm.Region.is_dirty_line t.region
           (Nvm.Region.line_of_addr Nvm.Layout.off_sweep_floor)))
  end
  else Nvm.Region.wbinvd t.region;
  write_durable_epoch t (t.current + 1);
  Obs.Stall.exit stalls;
  ignore (Obs.Span.end_ (Nvm.Region.spans t.region) "checkpoint" : float);
  t.sweeping <- false;
  t.current <- t.current + 1;
  t.advances <- t.advances + 1;
  Obs.Stall.set_epoch stalls t.current;
  t.epoch_start_ns <- Nvm.Stats.sim_ns (Nvm.Region.stats t.region);
  Chaos.Plan.fire Chaos.Site.Post_checkpoint;
  run_subscribers t

let advance t =
  (* Forced synchronous checkpoint (extlog wrap, recovery, explicit
     callers): if a sweep is mid-flight, drain and fence it now rather
     than starting a second boundary. *)
  if not t.sweeping then record_boundary t;
  finalize t

(* One interleaved sweep quantum; returns true iff this quantum drained
   the dirty set and fenced the boundary. *)
let sweep_step t =
  Chaos.Plan.fire Chaos.Site.Sweep_partial;
  let remaining = Nvm.Region.flush_some t.region ~budget_lines:t.sweep_budget in
  if remaining = 0 then begin
    finalize t;
    true
  end
  else false

let sweeping t = t.sweeping

let set_log_pressure t f = t.log_pressure <- f

let maybe_advance t =
  (* The clock field itself, not [Nvm.Stats.sim_ns]: a float returned
     from another module is boxed, and this runs after every op. *)
  let now = (Nvm.Region.stats t.region).Nvm.Stats.clock.Nvm.Stats.ns in
  if t.sweeping then
    (* Convergence guard: ops keep dirtying lines while the sweep runs;
       the budget normally outpaces them, but if a sweep somehow lingers
       a whole extra period past the boundary it is drained
       synchronously rather than left open forever. *)
    if now -. t.epoch_start_ns >= 2.0 *. t.epoch_len_ns then begin
      finalize t;
      true
    end
    else sweep_step t
  else begin
    let trigger =
      if now -. t.epoch_start_ns >= t.epoch_len_ns then Some t.c_adv_timer
      else if
        t.dirty_trigger > 0
        && Nvm.Region.dirty_line_count t.region >= t.dirty_trigger
      then Some t.c_adv_dirty
      else if t.log_trigger_frac > 0.0 && t.log_pressure () >= t.log_trigger_frac
      then Some t.c_adv_log
      else None
    in
    match trigger with
    | None -> false
    | Some cause ->
        incr cause;
        if t.sweep_budget > 0 then begin
          record_boundary t;
          t.sweeping <- true;
          sweep_step t
        end
        else begin
          advance t;
          true
        end
  end

let lower16 e = e land 0xffff
let higher e = e lsr 16
let combine ~higher ~lower16 = (higher lsl 16) lor (lower16 land 0xffff)
