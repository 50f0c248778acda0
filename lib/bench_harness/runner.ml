type spike = {
  sp_shard : int;
  sp_index : int;  (* position in the shard's encoded stream *)
  sp_tag : char;  (* '\000' put, '\001' get, '\002' scan *)
  sp_start_ns : float;  (* intended arrival (open loop) / dispatch *)
  sp_lat_ns : float;  (* simulated latency, CO-corrected in open loop *)
  sp_wall_ns : float;  (* wall service time (dispatch -> completion) *)
  sp_stalls : Obs.Stall.entry list;  (* ledger entries overlapping the op *)
}

type result = {
  ops : int;
  wall_s : float;
  sim_s : float;
  sim_total_s : float;
  mops_sim : float;
  mops_wall : float;
  alloc_bytes : float;
  nodes_logged : int;
  sfences : int;
  clwbs : int;
  wbinvds : int;
  wbinvd_lines : int;
  writes : int;
  reads : int;
  epochs : int;
  incll_first_touches : int;
  incll_val_uses : int;
  metrics : Obs.Registry.t;
  shard_metrics : Obs.Registry.t array;
  stalls : (string * Obs.Stall.t) list;
  spikes : spike list;
  open_loop : bool;
  arrival_rate : float option;
  latency_threshold_ns : float;
  traces : (string * Obs.Trace.t) list;
  series : (string * Obs.Series.t) list;
}

let config_for ?(sfence_extra_ns = 0.0) ?(epoch_len_ns = 64.0e6)
    ?(val_incll = true) ?(policy = Nvm.Config.Throughput) ~nkeys_per_shard () =
  (* ~150 bytes of steady-state NVM per key (value chunk + amortised node),
     plus slack for epoch churn and the log. *)
  let heap = (nkeys_per_shard * 320) + (24 * 1024 * 1024) in
  let size = (heap + 4095) / 4096 * 4096 in
  let nvm =
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = size;
      extlog_bytes = 8 * 1024 * 1024;
      crash_support = Nvm.Config.Counting;
      cost =
        { Nvm.Config.default_cost_model with Nvm.Config.sfence_extra_ns };
    }
  in
  let nvm = Nvm.Config.with_policy nvm policy in
  { Incll.System.nvm; epoch_len_ns; val_incll }

(* The op-stream generation and struct-of-arrays encoding live in
   Workload.Opstream so the network client (Bench_harness.Remote, the
   server tests' differential oracle) shares one seeded generator with
   this in-process runner. *)
module O = Workload.Opstream

let apply_op = O.apply

type encoded = O.encoded = {
  tags : Bytes.t;
  keys : string array;
  values : string array;
  scan_ns : int array;
  arrivals : float array;
}

(* Top-k slowest ops, kept per shard as a short descending list. *)
let spike_k = 16

let insert_spike buf s =
  let rec ins = function
    | [] -> [ s ]
    | x :: _ as l when s.sp_lat_ns > x.sp_lat_ns -> s :: l
    | x :: tl -> x :: ins tl
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: tl -> x :: take (k - 1) tl
  in
  buf := take spike_k (ins !buf)

(* Apply [enc] in chunks of [chunk] ops. The shard handle, arrays and the
   stats record are all hoisted out of the inner loop; between chunks the
   wall-clock throughput of the finished chunk is offered to the shard's
   ["bench.chunk_wall_mops"] series (timestamped on the simulated clock,
   like every other series).

   Every op's latency is recorded on both clocks into the shard registry
   (["op.latency_ns"] simulated, ["op.latency_wall_ns"] wall). In open
   loop the simulated latency is measured from the op's {e intended
   arrival}, not its dispatch — the coordinated-omission correction: an
   op delayed behind an epoch flush is charged the queueing it actually
   suffered, and the shard's clock idles forward to the arrival when it
   is early. Ops slower than [threshold] are correlated against the
   shard's stall ledger and counted under
   ["latency.attributed.<cause>"] (or [".none"]); the top-k slowest are
   returned as spikes with their overlapping stalls. *)
let run_encoded sys ~shard enc ~chunk ~threshold =
  let region = Incll.System.region sys in
  let series = Nvm.Region.series region "bench.chunk_wall_mops" in
  let stats = Nvm.Region.stats region in
  let stalls = Nvm.Region.stalls region in
  let m = Nvm.Region.metrics region in
  let h_lat = Obs.Registry.histogram m "op.latency_ns" in
  let h_wall = Obs.Registry.histogram m "op.latency_wall_ns" in
  let c_over = Obs.Registry.counter m "latency.over_threshold" in
  let c_none = Obs.Registry.counter m "latency.attributed.none" in
  let attr =
    List.map
      (fun c ->
        ( c,
          Obs.Registry.counter m
            ("latency.attributed." ^ Obs.Stall.cause_name c) ))
      Obs.Stall.all_causes
  in
  let n = Array.length enc.keys in
  let tags = enc.tags and keys = enc.keys in
  let values = enc.values and scan_ns = enc.scan_ns in
  let arrivals = enc.arrivals in
  let open_loop = Array.length arrivals > 0 in
  let base_ns = Nvm.Stats.sim_ns stats in
  (* The per-op timestamps read the clock field itself and the latency is
     recorded as elapsed time since [start]: floats passed across modules
     are boxed, and this loop should cost the store, not the harness. *)
  let clock = stats.Nvm.Stats.clock in
  let start = Obs.Clock.create () in
  let spikes = ref [] in
  (* Start of the shard's current busy period: the last instant it was
     caught up with the arrival schedule. An open-loop op that queues
     behind a backlog inherits delay from stalls anywhere in the busy
     period — a flush that ended before the op even arrived still caused
     its wait — so attribution searches from here, not from the op's own
     arrival. Closed loop has no queue; its window is the op itself. *)
  let busy_start = ref base_ns in
  let pos = ref 0 in
  while !pos < n do
    let stop = min n (!pos + chunk) in
    let t0 = Unix.gettimeofday () in
    for i = !pos to stop - 1 do
      let t_disp = clock.Nvm.Stats.ns in
      let t_start =
        if open_loop then begin
          let a = base_ns +. Array.unsafe_get arrivals i in
          (* Early: idle the simulated clock up to the arrival. Late: the
             difference is queueing delay and stays in the latency. *)
          if t_disp < a then begin
            Nvm.Region.advance_clock region (a -. t_disp);
            busy_start := a
          end;
          a
        end
        else t_disp
      in
      let w0 = Unix.gettimeofday () in
      (match Bytes.unsafe_get tags i with
      | '\000' ->
          Incll.System.put sys ~key:(Array.unsafe_get keys i)
            ~value:(Array.unsafe_get values i)
      | '\001' ->
          ignore
            (Incll.System.get sys ~key:(Array.unsafe_get keys i)
              : string option)
      | _ ->
          ignore
            (Incll.System.scan sys
               ~start:(Array.unsafe_get keys i)
               ~n:(Array.unsafe_get scan_ns i)
              : (string * string) list));
      let w1 = Unix.gettimeofday () in
      let t_end = clock.Nvm.Stats.ns in
      let lat = t_end -. t_start in
      start.Obs.Clock.ns <- t_start;
      Obs.Histogram.record_elapsed h_lat ~since:start clock;
      Obs.Histogram.record h_wall ((w1 -. w0) *. 1e9);
      if lat > threshold then begin
        incr c_over;
        let a0 = if open_loop then Float.min !busy_start t_start else t_start in
        let over = Obs.Stall.overlapping stalls ~t0:a0 ~t1:t_end in
        (match Obs.Stall.dominant_cause over ~t0:a0 ~t1:t_end with
        | Some c -> incr (List.assoc c attr)
        | None -> incr c_none);
        insert_spike spikes
          {
            sp_shard = shard;
            sp_index = i;
            sp_tag = Bytes.unsafe_get tags i;
            sp_start_ns = t_start;
            sp_lat_ns = lat;
            sp_wall_ns = (w1 -. w0) *. 1e9;
            sp_stalls = over;
          }
      end
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt > 0.0 then
      Obs.Series.sample series ~ts_ns:(Nvm.Stats.sim_ns stats)
        ~value:(float_of_int (stop - !pos) /. dt /. 1e6);
    pos := stop
  done;
  !spikes

let in_domains jobs =
  match jobs with
  | [| job |] -> [| job () |]
  | _ ->
      let handles = Array.map (fun job -> Domain.spawn job) jobs in
      Array.map Domain.join handles

let snapshot_shard store i =
  Nvm.Stats.snapshot (Nvm.Region.stats (Incll.System.region (Store.Sharded.shard store i)))

let epochs_of store i =
  match Incll.System.epoch_manager (Store.Sharded.shard store i) with
  | Some em -> Epoch.Manager.epochs_elapsed em
  | None -> 0

let counters_of store i =
  match Incll.System.ctx (Store.Sharded.shard store i) with
  | Some c ->
      ( c.Incll.Ctx.counters.Incll.Ctx.first_touches,
        c.Incll.Ctx.counters.Incll.Ctx.val_incll_uses )
  | None -> (0, 0)

type prepared = {
  store : Store.Sharded.t;
  threads : int;
  chunk : int;
  shard_ops : encoded array;
  shard_op_count : int;
  arrival_rate : float option;
  latency_threshold_ns : float;
}

let default_chunk = 4096
let default_latency_threshold_ns = 50_000.0

let prepare ?(seed = 1) ?(threads = 1) ?(ops_per_thread = 100_000)
    ?(chunk = default_chunk) ?config ?(trace = false) ?arrival_rate
    ?(latency_threshold_ns = default_latency_threshold_ns) ~variant ~mix
    ~dist ~nkeys () =
  if chunk <= 0 then invalid_arg "Runner.prepare: chunk must be positive";
  (match arrival_rate with
  | Some r when r <= 0.0 ->
      invalid_arg "Runner.prepare: arrival rate must be positive"
  | _ -> ());
  let config =
    match config with
    | Some c -> c
    | None -> config_for ~nkeys_per_shard:((nkeys / threads) + 1) ()
  in
  let store = Store.Sharded.create ~config variant ~shards:threads in
  if trace then
    for i = 0 to threads - 1 do
      Obs.Trace.set_enabled
        (Nvm.Region.trace (Incll.System.region (Store.Sharded.shard store i)))
        true
    done;
  (* Populate in parallel: logical keys are scrambled, so striping them by
     shard keeps per-shard insertion order random. *)
  let keys = Workload.Ycsb.load_keys ~nkeys in
  let by_shard = Array.make threads [] in
  Array.iter
    (fun k ->
      let s = Store.Sharded.shard_of_key store k in
      by_shard.(s) <- k :: by_shard.(s))
    keys;
  ignore
    (in_domains
       (Array.init threads (fun i ->
            let sys = Store.Sharded.shard store i in
            fun () ->
              List.iter
                (fun key ->
                  Incll.System.put sys ~key
                    ~value:(Workload.Ycsb.value_for key))
                by_shard.(i))));
  (* Pre-generate the global stream and route ops to their shards. Open
     loop: op [j] of the global stream is scheduled to arrive at
     [j * interval] on the simulated clock, fixing the offered rate
     regardless of how the keys route across shards. *)
  let spec = { Workload.Ycsb.mix; dist; nkeys } in
  let stream = O.generate spec ~seed ~n:(threads * ops_per_thread) in
  let shard_ops =
    O.route stream ~nshards:threads
      ~shard_of_key:(Store.Sharded.shard_of_key store)
      ?interval_ns:(Option.map (fun r -> 1e9 /. r) arrival_rate)
      ()
  in
  let shard_op_count =
    Array.fold_left (fun a e -> a + Array.length e.keys) 0 shard_ops
  in
  { store; threads; chunk; shard_ops; shard_op_count; arrival_rate;
    latency_threshold_ns }

let measure
    {
      store;
      threads;
      chunk;
      shard_ops;
      shard_op_count;
      arrival_rate;
      latency_threshold_ns;
    } =
  (* Clean start: checkpoint, then snapshot. *)
  Store.Sharded.advance_epochs store;
  let regions =
    Array.init threads (fun i ->
        Incll.System.region (Store.Sharded.shard store i))
  in
  (* Fresh stall ledgers for the measured window (populate-phase stalls
     must not attract attributions), filtered so per-op fences cannot
     wrap the interesting entries out of the ring. *)
  Array.iter
    (fun r ->
      let s = Nvm.Region.stalls r in
      Obs.Stall.clear s;
      Obs.Stall.set_min_dur_ns s (latency_threshold_ns /. 4.0))
    regions;
  let metrics_before = Obs.Registry.snapshot (Store.Sharded.metrics store) in
  let shard_before =
    Array.map (fun r -> Obs.Registry.snapshot (Nvm.Region.metrics r)) regions
  in
  let before = Array.init threads (snapshot_shard store) in
  let epochs_before = Array.init threads (epochs_of store) in
  let counters_before = Array.init threads (counters_of store) in
  let logged_before =
    Array.init threads (fun i ->
        Incll.System.nodes_logged (Store.Sharded.shard store i))
  in
  let wall0 = Unix.gettimeofday () in
  (* Minor-heap words, counted per domain, so each worker measures its
     own window. Not [Gc.allocated_bytes]: its promoted-word correction
     depends on when the domains' stop-the-world minor collections land,
     which made the figure vary from run to run. *)
  let shard_results =
    in_domains
      (Array.init threads (fun i ->
           let sys = Store.Sharded.shard store i in
           let enc = shard_ops.(i) in
           fun () ->
             let a0 = Gc.minor_words () in
             let spikes =
               run_encoded sys ~shard:i enc ~chunk
                 ~threshold:latency_threshold_ns
             in
             let words = Gc.minor_words () -. a0 in
             (spikes, words *. float_of_int (Sys.word_size / 8))))
  in
  let wall1 = Unix.gettimeofday () in
  let shard_spikes = Array.map fst shard_results in
  let after = Array.init threads (snapshot_shard store) in
  let diff =
    Array.init threads (fun i ->
        Nvm.Stats.diff ~after:after.(i) ~before:before.(i))
  in
  let sum f = Array.fold_left (fun a d -> a + f d) 0 diff in
  let sim_s =
    Array.fold_left (fun a d -> Float.max a (Nvm.Stats.sim_ns d)) 0.0 diff /. 1e9
  in
  let sim_total_s =
    Array.fold_left (fun a d -> a +. Nvm.Stats.sim_ns d) 0.0 diff /. 1e9
  in
  let ops = shard_op_count in
  let wall_s = wall1 -. wall0 in
  let epochs =
    Array.fold_left ( + ) 0 (Array.init threads (epochs_of store))
    - Array.fold_left ( + ) 0 epochs_before
  in
  let ft, vu =
    let now = Array.init threads (counters_of store) in
    let f = ref 0 and v = ref 0 in
    for i = 0 to threads - 1 do
      let f1, v1 = now.(i) and f0, v0 = counters_before.(i) in
      f := !f + f1 - f0;
      v := !v + v1 - v0
    done;
    (!f, !v)
  in
  let nodes_logged =
    Array.fold_left ( + ) 0
      (Array.init threads (fun i ->
           Incll.System.nodes_logged (Store.Sharded.shard store i)
           - logged_before.(i)))
  in
  {
    ops;
    wall_s;
    sim_s;
    sim_total_s;
    mops_sim = (if sim_s > 0.0 then float_of_int ops /. sim_s /. 1e6 else 0.0);
    mops_wall =
      (if wall_s > 0.0 then float_of_int ops /. wall_s /. 1e6 else 0.0);
    alloc_bytes = Array.fold_left (fun a (_, b) -> a +. b) 0.0 shard_results;
    nodes_logged;
    sfences = sum (fun d -> d.Nvm.Stats.sfence);
    clwbs = sum (fun d -> d.Nvm.Stats.clwb);
    wbinvds = sum (fun d -> d.Nvm.Stats.wbinvd);
    wbinvd_lines = sum (fun d -> d.Nvm.Stats.wbinvd_lines);
    writes = sum (fun d -> d.Nvm.Stats.writes);
    reads = sum (fun d -> d.Nvm.Stats.reads);
    epochs;
    incll_first_touches = ft;
    incll_val_uses = vu;
    metrics =
      Obs.Registry.diff
        ~after:(Store.Sharded.metrics store)
        ~before:metrics_before;
    shard_metrics =
      Array.mapi
        (fun i r ->
          Obs.Registry.diff ~after:(Nvm.Region.metrics r)
            ~before:shard_before.(i))
        regions;
    stalls =
      Array.to_list
        (Array.mapi
           (fun i r -> (Printf.sprintf "shard%d" i, Nvm.Region.stalls r))
           regions);
    spikes =
      (let all = Array.fold_left (fun a l -> a @ l) [] shard_spikes in
       let sorted =
         List.sort
           (fun a b ->
             match compare b.sp_lat_ns a.sp_lat_ns with
             | 0 -> compare (a.sp_shard, a.sp_index) (b.sp_shard, b.sp_index)
             | c -> c)
           all
       in
       List.filteri (fun i _ -> i < spike_k) sorted);
    open_loop = arrival_rate <> None;
    arrival_rate;
    latency_threshold_ns;
    traces =
      List.init threads (fun i ->
          ( Printf.sprintf "shard%d" i,
            Nvm.Region.trace (Incll.System.region (Store.Sharded.shard store i))
          ));
    series =
      List.concat
        (List.init threads (fun i ->
             let region =
               Incll.System.region (Store.Sharded.shard store i)
             in
             List.map
               (fun (name, s) -> (Printf.sprintf "shard%d/%s" i name, s))
               (Nvm.Region.all_series region)));
  }

let run ?seed ?threads ?ops_per_thread ?chunk ?config ?trace ?arrival_rate
    ?latency_threshold_ns ~variant ~mix ~dist ~nkeys () =
  measure
    (prepare ?seed ?threads ?ops_per_thread ?chunk ?config ?trace
       ?arrival_rate ?latency_threshold_ns ~variant ~mix ~dist ~nkeys ())

let run_latency_sweep ?seed ?threads ?ops_per_thread ?chunk ?config ?trace
    ~variant ~mix ~dist ~nkeys ~latencies () =
  let p =
    prepare ?seed ?threads ?ops_per_thread ?chunk ?config ?trace ~variant ~mix
      ~dist ~nkeys ()
  in
  List.map
    (fun lat ->
      for i = 0 to p.threads - 1 do
        Nvm.Region.set_sfence_extra_ns
          (Incll.System.region (Store.Sharded.shard p.store i))
          lat
      done;
      (lat, measure p))
    latencies
