(** Benchmark runner: build a store, populate it, drive a YCSB stream with
    one domain per shard, and report throughput in both clocks.

    Throughput is primarily reported against the {e simulated} clock
    (ops / max-over-shards simulated seconds): it is derived purely from
    counted memory-system events priced by [Nvm.Config.cost_model], which
    is the quantity the paper's latency figures sweep and is immune to the
    simulator's own host-CPU overhead. Wall-clock throughput is reported
    alongside for reference. *)

type spike = {
  sp_shard : int;
  sp_index : int;  (** Position in the shard's encoded stream. *)
  sp_tag : char;  (** ['\000'] put, ['\001'] get, ['\002'] scan. *)
  sp_start_ns : float;
      (** Simulated start of the op's latency window: its intended
          arrival in open loop, its dispatch in closed loop. *)
  sp_lat_ns : float;  (** Simulated latency (CO-corrected in open loop). *)
  sp_wall_ns : float;  (** Wall service time, dispatch to completion. *)
  sp_stalls : Obs.Stall.entry list;
      (** Ledger entries overlapping the op's latency window — the
          evidence for the attribution. *)
}
(** One of the top-k slowest ops of a run, with its overlapping stalls. *)

type result = {
  ops : int;
  wall_s : float;
  sim_s : float;  (** Max over shards (parallel view). *)
  sim_total_s : float;  (** Summed over shards. *)
  mops_sim : float;
  mops_wall : float;
  alloc_bytes : float;
      (** Bytes allocated on the OCaml minor heap during the measured
          phase, summed over the worker domains (each measures its own
          share). Deterministic for a seeded stream; blocks too large for
          the minor heap (over 256 words) are not counted. *)
  nodes_logged : int;  (** External-log appends during the measured phase. *)
  sfences : int;
  clwbs : int;
  wbinvds : int;
  wbinvd_lines : int;
  writes : int;
  reads : int;
  epochs : int;  (** Checkpoints taken during the measured phase. *)
  incll_first_touches : int;
  incll_val_uses : int;
  metrics : Obs.Registry.t;
      (** Merged-over-shards registry delta for the measured phase:
          sfence/wbinvd latency histograms, epoch length and dirty-line
          distributions, external-log counters, the
          [incll_hit]/[incll_fallback] split (Figure 7's quantity), the
          per-op [op.latency_ns] / [op.latency_wall_ns] histograms, the
          [stall.<cause>_ns] histograms and the
          [latency.attributed.<cause>] counters. *)
  shard_metrics : Obs.Registry.t array;
      (** The same window delta, per shard — so a latency regression can
          be localized to one shard before blaming the workload. *)
  stalls : (string * Obs.Stall.t) list;
      (** Each shard's stall ledger (cleared at the start of the
          measured phase), labelled ["shard<i>"]. Feed to
          {!Obs.Perfetto.export} as the [stalls] tracks. *)
  spikes : spike list;
      (** Top-k slowest ops across all shards, slowest first. *)
  open_loop : bool;
  arrival_rate : float option;
      (** Offered load in ops per {e simulated} second (open loop). *)
  latency_threshold_ns : float;
      (** Attribution threshold the run used (simulated ns). *)
  traces : (string * Obs.Trace.t) list;
      (** Each shard's live event ring, labelled ["shard<i>"]. Empty
          rings unless the run was prepared with [~trace:true]. Feed to
          {!Obs.Perfetto.export} as the [tracks]. *)
  series : (string * Obs.Series.t) list;
      (** Each shard's time-series samplers, labelled
          ["shard<i>/<name>"] (e.g. ["shard0/epoch.dirty_lines"]). *)
}

val config_for :
  ?sfence_extra_ns:float ->
  ?epoch_len_ns:float ->
  ?val_incll:bool ->
  ?policy:Nvm.Config.policy ->
  nkeys_per_shard:int ->
  unit ->
  Incll.System.config
(** Size the region (Counting mode — throughput runs never crash) to the
    working set, leaving head-room for the external log and churn.
    [policy] selects the checkpoint scheduler (default
    [Nvm.Config.Throughput], the paper's fixed-period wbinvd). *)

val default_chunk : int
(** Default measured-loop batch size (4096 ops). *)

val default_latency_threshold_ns : float
(** Attribution threshold when none is given (50 µs simulated — well
    above a normal op, well below an epoch flush). *)

val run :
  ?seed:int ->
  ?threads:int ->
  ?ops_per_thread:int ->
  ?chunk:int ->
  ?config:Incll.System.config ->
  ?trace:bool ->
  ?arrival_rate:float ->
  ?latency_threshold_ns:float ->
  variant:Incll.System.variant ->
  mix:Workload.Ycsb.mix ->
  dist:Workload.Ycsb.dist ->
  nkeys:int ->
  unit ->
  result
(** Populate [nkeys] entries, checkpoint, then apply
    [threads * ops_per_thread] pre-generated operations with one domain
    per shard (ops are routed to the shard that owns their key, like the
    paper's shared-tree threads each operating on the whole key space).
    Statistics cover only the measured phase.

    The op stream is decoded into flat tag/key/value arrays at prepare
    time and applied in batches of [chunk] ops (default 4096): the hot
    loop dispatches on a byte tag with the shard handle hoisted, and each
    finished chunk's wall-clock throughput is sampled into the shard's
    ["bench.chunk_wall_mops"] series.

    Every op's latency is recorded on both clocks (see {!result.metrics});
    ops slower than [latency_threshold_ns] are attributed against the
    stall ledger.

    [arrival_rate] switches the run from the default closed loop (next op
    dispatches the instant the previous completes) to an {e open loop}:
    op [j] of the global pre-generated stream is scheduled to arrive at
    [j / arrival_rate] seconds on the simulated clock, a shard idles its
    clock forward when it is ahead of schedule, and each op's simulated
    latency is measured from its {e intended arrival} — the
    coordinated-omission correction, so queueing behind an epoch flush is
    charged to every op it delays, not just the one that met the flush.
    Simulated throughput then reports the offered rate whenever the store
    keeps up. Wall latency stays dispatch-to-completion in both modes (a
    wall-clock schedule would race the simulated one). *)

val run_latency_sweep :
  ?seed:int ->
  ?threads:int ->
  ?ops_per_thread:int ->
  ?chunk:int ->
  ?config:Incll.System.config ->
  ?trace:bool ->
  variant:Incll.System.variant ->
  mix:Workload.Ycsb.mix ->
  dist:Workload.Ycsb.dist ->
  nkeys:int ->
  latencies:float list ->
  unit ->
  (float * result) list
(** Populate once, then re-run the same pre-generated stream under each
    emulated NVM latency (Figures 3 and 8). The tree state carries over
    between points — the stream is update/read-only against a fixed key
    population, so each window measures the same logical work. *)

val apply_op : Incll.System.t -> Workload.Ycsb.op -> unit
