(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6). Run `dune exec bench/main.exe -- --help`.

   Scale: the paper uses 20M-key trees and 1M ops/thread on a 28-core
   Xeon; the default here is 1/100 of that on the simulated memory system.
   Throughput is simulated-clock throughput (see Bench_harness.Runner);
   wall-clock is printed for reference. The epoch length defaults to a
   value that keeps operations-per-epoch near the paper's regime (§6
   discusses ~80K ops per epoch). *)

module R = Bench_harness.Runner
module Y = Workload.Ycsb
module Sys_ = Incll.System

type opts = {
  mutable only : string list;  (* empty = all *)
  mutable scale : float;
  mutable threads : int;
  mutable ops : int;  (* per thread *)
  mutable chunk : int;  (* batch size for the measured loop *)
  mutable epoch_ms : float;
  mutable seed : int;
  mutable repeats : int;
  mutable csv_dir : string option;
  mutable json_file : string option;
  mutable trace_file : string option;
  mutable date : string option;  (* stamped into --json meta *)
  mutable arrival_rate : float option;  (* open-loop offered ops/sim-s *)
  mutable latency_threshold_ns : float;  (* attribution threshold *)
  mutable policy : Nvm.Config.policy;  (* checkpoint scheduler under test *)
  mutable connect : string option;  (* remote bench target address *)
  mutable oracle : bool;  (* differential state check after remote *)
}

let opts =
  {
    only = [];
    scale = 0.01;
    threads = 8;
    ops = 50_000;
    chunk = Bench_harness.Runner.default_chunk;
    epoch_ms = 8.0;
    seed = 1;
    repeats = 1;
    csv_dir = None;
    json_file = None;
    trace_file = None;
    date = None;
    arrival_rate = None;
    latency_threshold_ns = Bench_harness.Runner.default_latency_threshold_ns;
    policy = Nvm.Config.Throughput;
    connect = None;
    oracle = false;
  }

let tracing () = opts.trace_file <> None

(* Accumulated across the whole invocation for --json: every emitted
   table, and the merged metric registry of every measured run (sfence /
   wbinvd latency histograms, epoch distributions, incll_hit vs
   incll_fallback, ...). *)
let json_tables : (string * Util.Table.t) list ref = ref []
let global_metrics = Obs.Registry.create ()

(* With --trace, every measured run rewrites the timeline file, so the
   file that remains describes the last run of the invocation (narrow the
   selection with --only to profile one run). *)
let maybe_write_trace (r : R.result) =
  match opts.trace_file with
  | None -> ()
  | Some path ->
      let json =
        Obs.Perfetto.export ~series:r.R.series ~stalls:r.R.stalls
          ~tracks:r.R.traces ()
      in
      let oc = open_out path in
      output_string oc (Obs.Json.to_string_pretty json);
      output_char oc '\n';
      close_out oc

let note_metrics (r : R.result) =
  Obs.Registry.merge_into ~into:global_metrics r.R.metrics;
  maybe_write_trace r;
  r

let paper_keys = 20_000_000
let nkeys () = max 2_000 (int_of_float (float_of_int paper_keys *. opts.scale))

(* Accept "figureN" as an alias for "figN" in --only. *)
let canonical_name n =
  let pre = "figure" in
  let lp = String.length pre in
  if String.length n > lp && String.sub n 0 lp = pre then
    "fig" ^ String.sub n lp (String.length n - lp)
  else n

let selected name =
  opts.only = [] || List.mem name (List.map canonical_name opts.only)

let line fmt = Printf.printf (fmt ^^ "\n%!")

let config ?(sfence_extra_ns = 0.0) ?(val_incll = true) ?policy ~keys
    ~threads () =
  let policy = Option.value policy ~default:opts.policy in
  let cfg =
    R.config_for ~sfence_extra_ns
      ~epoch_len_ns:(opts.epoch_ms *. 1e6)
      ~val_incll ~policy
      ~nkeys_per_shard:((keys / threads) + 1)
      ()
  in
  if tracing () then
    {
      cfg with
      Sys_.nvm = { cfg.Sys_.nvm with Nvm.Config.trace_capacity = 1 lsl 16 };
    }
  else cfg

let run ?threads ?keys ?sfence_extra_ns ?val_incll variant mix dist =
  let threads = Option.value ~default:opts.threads threads in
  let keys = Option.value ~default:(nkeys ()) keys in
  let cfg = config ?sfence_extra_ns ?val_incll ~keys ~threads () in
  note_metrics
    (R.run ~seed:opts.seed ~threads ~ops_per_thread:opts.ops ~chunk:opts.chunk ~config:cfg
       ~trace:(tracing ()) ~variant ~mix ~dist ~nkeys:keys ())

(* Repeated runs with distinct workload seeds; returns (mean Mops,
   relative stdev). The paper averages 10 runs and reports 0.03-0.08%
   standard deviation (§6). *)
let run_repeated ?threads ?keys variant mix dist =
  let samples =
    List.init (max 1 opts.repeats) (fun i ->
        let threads = Option.value ~default:opts.threads threads in
        let keys = Option.value ~default:(nkeys ()) keys in
        let cfg = config ~keys ~threads () in
        (note_metrics
           (R.run ~seed:(opts.seed + (1000 * i)) ~threads
              ~ops_per_thread:opts.ops ~chunk:opts.chunk ~config:cfg
              ~trace:(tracing ())
              ~variant ~mix ~dist ~nkeys:keys ()))
          .R.mops_sim)
  in
  let n = float_of_int (List.length samples) in
  let mean = List.fold_left ( +. ) 0.0 samples /. n in
  let var =
    List.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 samples /. n
  in
  (mean, sqrt var /. mean)

let overhead ~base ~sys = (base -. sys) /. base

(* Print a table; when --csv DIR is given also write DIR/<name>.csv, and
   when --json FILE is given remember it for the final report. *)
let emit name t =
  Util.Table.print t;
  if opts.json_file <> None then json_tables := (name, t) :: !json_tables;
  match opts.csv_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let oc = open_out (Filename.concat dir (name ^ ".csv")) in
      output_string oc (Util.Table.to_csv t);
      close_out oc;
      line "    [csv: %s]" (Filename.concat dir (name ^ ".csv"))

(* ---------------------------------------------------------------- fig2 *)

let mix_a = Y.A

let fig2 () =
  line "";
  line "=== Figure 2: throughput of MT, MT+ and INCLL (Mops/s, simulated) ===";
  line "    paper: MT+ 2.4-68.5%% over MT; INCLL 5.9-15.4%% below MT+";
  let t =
    Util.Table.create
      ~columns:
        [ "workload"; "dist"; "MT"; "MT+"; "INCLL"; "MT+ vs MT"; "INCLL vs MT+" ]
  in
  List.iter
    (fun mix ->
      List.iter
        (fun dist ->
          let cell (mean, rsd) =
            if opts.repeats > 1 then
              Printf.sprintf "%.2f±%.2f%%" mean (rsd *. 100.0)
            else Util.Table.cell_float mean
          in
          let mt = run_repeated Sys_.Mt mix dist in
          let mtp = run_repeated Sys_.Mt_plus mix dist in
          let inc = run_repeated Sys_.Incll mix dist in
          Util.Table.add_row t
            [
              Y.mix_name mix;
              Y.dist_name dist;
              cell mt;
              cell mtp;
              cell inc;
              Util.Table.cell_pct ((fst mtp -. fst mt) /. fst mt);
              Util.Table.cell_pct (-.overhead ~base:(fst mtp) ~sys:(fst inc));
            ])
        [ Y.Uniform; Y.Zipfian ])
    [ Y.A; Y.B; Y.C; Y.E ];
  (* The paper's 20M-key runs sit in the large-tree regime of Figure 6's
     parabola; add that regime explicitly for the write-heavy mix. *)
  let keys = nkeys () * 5 in
  List.iter
    (fun dist ->
      let m r = r.R.mops_sim in
      let mt = m (run ~keys Sys_.Mt mix_a dist) in
      let mtp = m (run ~keys Sys_.Mt_plus mix_a dist) in
      let inc = m (run ~keys Sys_.Incll mix_a dist) in
      Util.Table.add_row t
        [
          "YCSB_A (5x keys)";
          Y.dist_name dist;
          Util.Table.cell_float mt;
          Util.Table.cell_float mtp;
          Util.Table.cell_float inc;
          Util.Table.cell_pct ((mtp -. mt) /. mt);
          Util.Table.cell_pct (-.overhead ~base:mtp ~sys:inc);
        ])
    [ Y.Uniform; Y.Zipfian ];
  emit "fig2" t

(* ---------------------------------------------------------------- fig3 *)

let latencies = [ 0.0; 100.0; 250.0; 500.0; 1000.0 ]

let fig3 () =
  line "";
  line "=== Figure 3: INCLL under emulated NVM latency (YCSB_A) ===";
  line "    paper: -4.3%% (uniform) / -6.0%% (zipfian) at 1000 ns";
  let keys = nkeys () * 5 in
  line "    (run at %s keys - the large-tree regime of the paper's 20M)"
    (Util.Table.cell_int keys);
  let t =
    Util.Table.create
      ~columns:
        [ "latency ns"; "uniform Mops"; "uniform rel"; "zipfian Mops"; "zipfian rel" ]
  in
  let sweep dist =
    let pts =
      R.run_latency_sweep ~seed:opts.seed ~threads:opts.threads
        ~ops_per_thread:opts.ops ~chunk:opts.chunk
        ~config:(config ~keys ~threads:opts.threads ())
        ~trace:(tracing ()) ~variant:Sys_.Incll ~mix:Y.A ~dist ~nkeys:keys
        ~latencies ()
    in
    List.iter (fun (_, r) -> maybe_write_trace r) pts;
    pts
  in
  let u = sweep Y.Uniform and z = sweep Y.Zipfian in
  let base l = (snd (List.hd l)).R.mops_sim in
  let bu = base u and bz = base z in
  List.iter2
    (fun (lat, ru) (_, rz) ->
      Util.Table.add_row t
        [
          Util.Table.cell_float ~decimals:0 lat;
          Util.Table.cell_float ru.R.mops_sim;
          Util.Table.cell_pct ((ru.R.mops_sim -. bu) /. bu);
          Util.Table.cell_float rz.R.mops_sim;
          Util.Table.cell_pct ((rz.R.mops_sim -. bz) /. bz);
        ])
    u z;
  emit "fig3" t

(* ---------------------------------------------------------------- fig4 *)

let fig4 () =
  line "";
  line "=== Figure 4: MT+ vs INCLL over thread counts (YCSB_A) ===";
  line "    paper: overhead 14.6-21.3%% (uniform), 3.0-19.3%% (zipfian), all thread counts";
  let t =
    Util.Table.create ~columns:[ "threads"; "dist"; "MT+"; "INCLL"; "overhead" ]
  in
  List.iter
    (fun threads ->
      List.iter
        (fun dist ->
          let mtp = (run ~threads Sys_.Mt_plus Y.A dist).R.mops_sim in
          let inc = (run ~threads Sys_.Incll Y.A dist).R.mops_sim in
          Util.Table.add_row t
            [
              string_of_int threads;
              Y.dist_name dist;
              Util.Table.cell_float mtp;
              Util.Table.cell_float inc;
              Util.Table.cell_pct (overhead ~base:mtp ~sys:inc);
            ])
        [ Y.Uniform; Y.Zipfian ])
    [ 1; 2; 4; 6; 8 ];
  emit "fig4" t

(* ------------------------------------------------------------ fig5 / 6 *)

let size_grid () =
  (* The paper sweeps 10K..100M around a 20M working set; same ratio grid
     around ours. *)
  List.sort_uniq compare
    (List.map
       (fun r -> max 1_000 (int_of_float (float_of_int (nkeys ()) *. r)))
       [ 0.0005; 0.0015; 0.005; 0.015; 0.05; 0.15; 0.5; 1.5; 5.0 ])

let fig5_data = ref []

let fig5 () =
  line "";
  line "=== Figure 5: throughput vs tree size (YCSB_A) ===";
  line "    paper: both systems lose ~69%% (uniform) / ~50%% (zipfian) from 10K to 100M";
  let t =
    Util.Table.create ~columns:[ "keys"; "dist"; "MT+"; "INCLL"; "overhead" ]
  in
  fig5_data := [];
  List.iter
    (fun keys ->
      List.iter
        (fun dist ->
          let mtp = (run ~keys Sys_.Mt_plus Y.A dist).R.mops_sim in
          let inc = (run ~keys Sys_.Incll Y.A dist).R.mops_sim in
          let ov = overhead ~base:mtp ~sys:inc in
          fig5_data := (keys, dist, ov) :: !fig5_data;
          Util.Table.add_row t
            [
              Util.Table.cell_int keys;
              Y.dist_name dist;
              Util.Table.cell_float mtp;
              Util.Table.cell_float inc;
              Util.Table.cell_pct ov;
            ])
        [ Y.Uniform; Y.Zipfian ])
    (size_grid ());
  emit "fig5" t

let fig6 () =
  if !fig5_data = [] then fig5 ();
  line "";
  line "=== Figure 6: INCLL overhead vs tree size (derived from Figure 5) ===";
  line "    paper: a parabola for uniform — low overhead for small and large trees,";
  line "    peaking (<=27%%) in the middle of the size range";
  let t =
    Util.Table.create ~columns:[ "keys"; "uniform overhead"; "zipfian overhead" ]
  in
  List.iter
    (fun keys ->
      let find dist =
        List.find_opt (fun (k, d, _) -> k = keys && d = dist) !fig5_data
      in
      let cell dist =
        match find dist with
        | Some (_, _, ov) -> Util.Table.cell_pct ov
        | None -> "n/a"
      in
      Util.Table.add_row t
        [ Util.Table.cell_int keys; cell Y.Uniform; cell Y.Zipfian ])
    (size_grid ());
  emit "fig6" t

(* ---------------------------------------------------------------- fig7 *)

let fig7 () =
  line "";
  line "=== Figure 7: nodes logged, LOGGING vs INCLL, vs tree size (YCSB_A) ===";
  line "    paper: counts rise to a peak around mid-size trees; with InCLL the";
  line "    uniform curve then declines rapidly, without InCLL it levels off";
  let t =
    Util.Table.create
      ~columns:
        [ "keys"; "dist"; "LOGGING logged"; "INCLL logged"; "INCLL/LOGGING" ]
  in
  List.iter
    (fun keys ->
      List.iter
        (fun dist ->
          let lg = (run ~keys Sys_.Logging Y.A dist).R.nodes_logged in
          let inc = (run ~keys Sys_.Incll Y.A dist).R.nodes_logged in
          Util.Table.add_row t
            [
              Util.Table.cell_int keys;
              Y.dist_name dist;
              Util.Table.cell_int lg;
              Util.Table.cell_int inc;
              (if lg = 0 then "n/a"
               else Printf.sprintf "%.1f%%" (100.0 *. float_of_int inc /. float_of_int lg));
            ])
        [ Y.Uniform; Y.Zipfian ])
    (size_grid ());
  emit "fig7" t

(* ---------------------------------------------------------------- fig8 *)

let fig8 () =
  line "";
  line "=== Figure 8: emulated latency, LOGGING vs INCLL (YCSB_A) ===";
  line "    paper at 1000 ns: INCLL loses 4.1%%/5.7%%; LOGGING loses 42.5%%/28.5%%";
  let keys = nkeys () * 5 in
  line "    (run at %s keys - the large-tree regime of the paper's 20M)"
    (Util.Table.cell_int keys);
  let t =
    Util.Table.create
      ~columns:
        [ "latency ns"; "dist"; "LOGGING Mops"; "LOGGING rel"; "INCLL Mops"; "INCLL rel" ]
  in
  let sweep variant dist =
    let pts =
      R.run_latency_sweep ~seed:opts.seed ~threads:opts.threads
        ~ops_per_thread:opts.ops ~chunk:opts.chunk
        ~config:(config ~keys ~threads:opts.threads ())
        ~trace:(tracing ()) ~variant ~mix:Y.A ~dist ~nkeys:keys ~latencies ()
    in
    List.iter (fun (_, r) -> maybe_write_trace r) pts;
    pts
  in
  List.iter
    (fun dist ->
      let l = sweep Sys_.Logging dist and i = sweep Sys_.Incll dist in
      let bl = (snd (List.hd l)).R.mops_sim in
      let bi = (snd (List.hd i)).R.mops_sim in
      List.iter2
        (fun (lat, rl) (_, ri) ->
          Util.Table.add_row t
            [
              Util.Table.cell_float ~decimals:0 lat;
              Y.dist_name dist;
              Util.Table.cell_float rl.R.mops_sim;
              Util.Table.cell_pct ((rl.R.mops_sim -. bl) /. bl);
              Util.Table.cell_float ri.R.mops_sim;
              Util.Table.cell_pct ((ri.R.mops_sim -. bi) /. bi);
            ])
        l i)
    [ Y.Uniform; Y.Zipfian ];
  emit "fig8" t

(* ------------------------------------------------------------ flushcost *)

let flushcost () =
  line "";
  line "=== §6.2: cost of the per-epoch global cache flush ===";
  line "    paper: 1.38-1.39 ms per flush; 2.2%% of execution at 64 ms epochs";
  let t =
    Util.Table.create
      ~columns:[ "workload"; "flushes"; "mean ms/flush"; "% of sim time" ]
  in
  List.iter
    (fun mix ->
      let r = run Sys_.Incll mix Y.Uniform in
      let cm = Nvm.Config.default_cost_model in
      let flush_ns =
        (float_of_int r.R.wbinvds *. cm.Nvm.Config.wbinvd_base_ns)
        +. (float_of_int r.R.wbinvd_lines *. cm.Nvm.Config.wbinvd_per_line_ns)
      in
      let frac = flush_ns /. (r.R.sim_total_s *. 1e9) in
      Util.Table.add_row t
        [
          Y.mix_name mix;
          Util.Table.cell_int r.R.wbinvds;
          (if r.R.wbinvds = 0 then "n/a"
           else Util.Table.cell_float (flush_ns /. 1e6 /. float_of_int r.R.wbinvds));
          Util.Table.cell_pct frac;
        ])
    [ Y.A; Y.B; Y.C ];
  emit "flushcost" t

(* ------------------------------------------------------------- recovery *)

let recovery () =
  line "";
  line "=== §6.3: recovery time (worst case: crash at the end of an epoch) ===";
  line "    paper: 84K logged nodes in the epoch; ~15 ms to apply the log";
  let keys = max 10_000 (nkeys () / 2) in
  let cfg =
    {
      Sys_.nvm =
        {
          Nvm.Config.default with
          Nvm.Config.size_bytes = (keys * 400) + (48 * 1024 * 1024);
          extlog_bytes = 32 * 1024 * 1024;
          crash_support = Nvm.Config.Precise;
        };
      (* Manual epochs: crash lands just before the checkpoint. *)
      epoch_len_ns = 1.0e15;
      val_incll = true;
    }
  in
  let t =
    Util.Table.create
      ~columns:
        [
          "variant"; "keys"; "ops in epoch"; "nodes logged"; "entries replayed";
          "replay sim ms"; "replay wall ms";
        ]
  in
  List.iter
    (fun variant ->
      let s = Sys_.create ~config:cfg variant in
      let rng = Util.Rng.create ~seed:opts.seed in
      for i = 0 to keys - 1 do
        Sys_.put s ~key:(Y.key_of_rank i) ~value:"12345678"
      done;
      Sys_.advance_epoch s;
      let logged0 = Sys_.nodes_logged s in
      let epoch_ops = keys / 2 in
      for _ = 1 to epoch_ops do
        let k = Y.key_of_rank (Util.Rng.int rng keys) in
        if Util.Rng.bool rng then Sys_.put s ~key:k ~value:"abcdefgh"
        else ignore (Sys_.get s ~key:k)
      done;
      let logged = Sys_.nodes_logged s - logged0 in
      Sys_.crash s rng;
      let s = Sys_.recover s in
      match Sys_.last_recover_stats s with
      | Some st ->
          Util.Table.add_row t
            [
              Sys_.variant_name variant;
              Util.Table.cell_int keys;
              Util.Table.cell_int epoch_ops;
              Util.Table.cell_int logged;
              Util.Table.cell_int st.Sys_.replayed_entries;
              Util.Table.cell_float (st.Sys_.recovery_sim_ns /. 1e6);
              Util.Table.cell_float (st.Sys_.recovery_wall_ns /. 1e6);
            ]
      | None -> ())
    [ Sys_.Incll; Sys_.Logging ];
  emit "recovery" t

(* ------------------------------------------------------------- ablations *)

let ablation_epoch () =
  line "";
  line "=== Ablation: epoch length vs flush overhead and logging (INCLL, YCSB_A) ===";
  line "    §4: shorter epochs cost more flushing but shrink the loss window";
  let t =
    Util.Table.create
      ~columns:[ "epoch ms"; "Mops"; "checkpoints"; "nodes logged"; "wbinvds" ]
  in
  let saved = opts.epoch_ms in
  List.iter
    (fun ms ->
      opts.epoch_ms <- ms;
      let r = run Sys_.Incll Y.A Y.Uniform in
      Util.Table.add_row t
        [
          Util.Table.cell_float ms;
          Util.Table.cell_float r.R.mops_sim;
          Util.Table.cell_int r.R.epochs;
          Util.Table.cell_int r.R.nodes_logged;
          Util.Table.cell_int r.R.wbinvds;
        ])
    [ 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 ];
  opts.epoch_ms <- saved;
  emit "ablation_epoch" t

let ablation_valincll () =
  line "";
  line "=== Ablation: value InCLLs on/off (YCSB_A) ===";
  line "    §4.1.3: without InCLL1/2, every first value update must be logged";
  let t =
    Util.Table.create
      ~columns:[ "system"; "dist"; "Mops"; "nodes logged"; "sfences" ]
  in
  List.iter
    (fun dist ->
      List.iter
        (fun (name, variant, val_incll) ->
          let r = run ~val_incll variant Y.A dist in
          Util.Table.add_row t
            [
              name;
              Y.dist_name dist;
              Util.Table.cell_float r.R.mops_sim;
              Util.Table.cell_int r.R.nodes_logged;
              Util.Table.cell_int r.R.sfences;
            ])
        [
          ("INCLL", Sys_.Incll, true);
          ("INCLL (InCLLp only)", Sys_.Incll, false);
          ("LOGGING", Sys_.Logging, true);
        ])
    [ Y.Uniform; Y.Zipfian ];
  emit "ablation_valincll" t

let ablation_internal () =
  line "";
  line "=== §6.1: internal-node logging share (why InCLL stays on leaves) ===";
  let r = run Sys_.Incll Y.A Y.Uniform in
  line
    "keys=%s ops=%s: nodes logged=%s | leaf first-touches=%s | value-InCLL uses=%s"
    (Util.Table.cell_int (nkeys ()))
    (Util.Table.cell_int r.R.ops)
    (Util.Table.cell_int r.R.nodes_logged)
    (Util.Table.cell_int r.R.incll_first_touches)
    (Util.Table.cell_int r.R.incll_val_uses);
  line
    "Leaf first-touches dominate by orders of magnitude; widening internal nodes";
  line
    "with InCLL words would shrink fanout for no visible logging win (§6.1)."

(* --------------------------------------------------------------- micro *)

let micro () =
  line "";
  line "=== Microbenchmarks (bechamel, wall clock of substrate primitives) ===";
  let open Bechamel in
  let cfg =
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = 8 * 1024 * 1024;
      extlog_bytes = 1024 * 1024;
      crash_support = Nvm.Config.Counting;
    }
  in
  let region = Nvm.Region.create cfg in
  let counter = ref 4096 in
  let tests =
    [
      Test.make ~name:"region write_i64"
        (Staged.stage (fun () ->
             counter := if !counter > 7 * 1024 * 1024 then 4096 else !counter + 8;
             Nvm.Region.write_i64 region !counter 42L));
      Test.make ~name:"region read_i64"
        (Staged.stage (fun () ->
             counter := if !counter > 7 * 1024 * 1024 then 4096 else !counter + 8;
             ignore (Nvm.Region.read_i64 region !counter)));
      (let perm = ref Masstree.Permutation.empty in
       Test.make ~name:"permutation insert+remove"
         (Staged.stage (fun () ->
              let p = Masstree.Permutation.insert !perm ~rank:0 in
              let p = Masstree.Permutation.remove p ~rank:0 in
              perm := p)));
      (let sys =
         Sys_.create
           ~config:{ Sys_.nvm = cfg; epoch_len_ns = 1e15; val_incll = true }
           Sys_.Incll
       in
       for i = 0 to 9_999 do
         Sys_.put sys ~key:(Y.key_of_rank i) ~value:"12345678"
       done;
       let i = ref 0 in
       Test.make ~name:"INCLL put (update)"
         (Staged.stage (fun () ->
              i := (!i + 7) mod 10_000;
              Sys_.put sys ~key:(Y.key_of_rank !i) ~value:"abcdefgh")));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results =
        Benchmark.all
          (Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ())
          [ instance ] test
      in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.iter
        (fun name o ->
          match Analyze.OLS.estimates o with
          | Some [ est ] -> line "  %-32s %12.1f ns/op" name est
          | _ -> line "  %-32s (no estimate)" name)
        ols)
    tests

(* -------------------------------------------------------------- latency *)

(* Per-mode JSON for the report's top-level "latency" section (schema v3).
   bench_compare gates the simulated-clock percentiles of "merged" and the
   per-cause "stall_totals" — both deterministic given seed and config —
   and ignores the wall histograms, which are host noise. *)
let latency_json : (string * Obs.Json.t) list ref = ref []

let op_name = function '\000' -> "put" | '\001' -> "get" | _ -> "scan"

(* Cross-shard per-cause (count, total stalled ns) from the ledgers. *)
let stall_sums (r : R.result) =
  List.map
    (fun c ->
      let count =
        List.fold_left
          (fun a (_, l) -> a + List.assoc c (Obs.Stall.counts l))
          0 r.R.stalls
      and total =
        List.fold_left
          (fun a (_, l) -> a +. List.assoc c (Obs.Stall.totals_ns l))
          0.0 r.R.stalls
      in
      (c, count, total))
    Obs.Stall.all_causes

(* (over-threshold ops, attributed ops, per-cause attributed counts). *)
let attribution (r : R.result) =
  let over = Obs.Registry.counter_value r.R.metrics "latency.over_threshold" in
  let per_cause =
    List.map
      (fun c ->
        ( c,
          Obs.Registry.counter_value r.R.metrics
            ("latency.attributed." ^ Obs.Stall.cause_name c) ))
      Obs.Stall.all_causes
  in
  let attributed = List.fold_left (fun a (_, n) -> a + n) 0 per_cause in
  (over, attributed, per_cause)

let spike_json (s : R.spike) =
  Obs.Json.Obj
    [
      ("shard", Obs.Json.Int s.R.sp_shard);
      ("index", Obs.Json.Int s.R.sp_index);
      ("op", Obs.Json.String (op_name s.R.sp_tag));
      ("start_ns", Obs.Json.Float s.R.sp_start_ns);
      ("lat_ns", Obs.Json.Float s.R.sp_lat_ns);
      ("wall_ns", Obs.Json.Float s.R.sp_wall_ns);
      ( "stalls",
        Obs.Json.List
          (List.map
             (fun (e : Obs.Stall.entry) ->
               Obs.Json.Obj
                 [
                   ("cause", Obs.Json.String (Obs.Stall.cause_name e.Obs.Stall.cause));
                   ("start_ns", Obs.Json.Float e.Obs.Stall.start_ns);
                   ("dur_ns", Obs.Json.Float e.Obs.Stall.dur_ns);
                   ("epoch", Obs.Json.Int e.Obs.Stall.epoch);
                 ])
             s.R.sp_stalls) );
    ]

let latency_mode_json (r : R.result) =
  let hist name reg =
    match Obs.Registry.find_histogram reg name with
    | Some h -> Obs.Histogram.to_json h
    | None -> Obs.Json.Null
  in
  let over, _, per_cause = attribution r in
  Obs.Json.Obj
    [
      ("open_loop", Obs.Json.Bool r.R.open_loop);
      ( "arrival_rate",
        match r.R.arrival_rate with
        | Some x -> Obs.Json.Float x
        | None -> Obs.Json.Null );
      ("threshold_ns", Obs.Json.Float r.R.latency_threshold_ns);
      ("mops_sim", Obs.Json.Float r.R.mops_sim);
      ("merged", hist "op.latency_ns" r.R.metrics);
      ("wall", hist "op.latency_wall_ns" r.R.metrics);
      ( "shards",
        Obs.Json.List
          (Array.to_list
             (Array.map (hist "op.latency_ns") r.R.shard_metrics)) );
      ("over_threshold", Obs.Json.Int over);
      ( "attributed",
        Obs.Json.Obj
          (List.map
             (fun (c, n) -> (Obs.Stall.cause_name c, Obs.Json.Int n))
             per_cause
          @ [
              ( "none",
                Obs.Json.Int
                  (Obs.Registry.counter_value r.R.metrics
                     "latency.attributed.none") );
            ]) );
      ( "stall_totals",
        Obs.Json.Obj
          (List.map
             (fun (c, count, total) ->
               ( Obs.Stall.cause_name c,
                 Obs.Json.Obj
                   [
                     ("count", Obs.Json.Int count);
                     ("total_ns", Obs.Json.Float total);
                   ] ))
             (stall_sums r)) );
      ("spikes", Obs.Json.List (List.map spike_json r.R.spikes));
    ]

let print_spikes mode (r : R.result) =
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  List.iter
    (fun (s : R.spike) ->
      let ev =
        match s.R.sp_stalls with
        | [] -> "no overlapping stall"
        | l ->
            String.concat ", "
              (List.map
                 (fun (e : Obs.Stall.entry) ->
                   Printf.sprintf "%s %.0fus"
                     (Obs.Stall.cause_name e.Obs.Stall.cause)
                     (e.Obs.Stall.dur_ns /. 1e3))
                 (take 3 l))
      in
      line "    [%s] shard%d %s lat=%.0fus  <- %s" mode s.R.sp_shard
        (op_name s.R.sp_tag)
        (s.R.sp_lat_ns /. 1e3)
        ev)
    (take 5 r.R.spikes)

let latency () =
  line "";
  line "=== Tail latency: per-op latency with stall attribution (INCLL, YCSB_A zipfian) ===";
  line "    beyond the paper: closed loop, then open loop with";
  line "    coordinated-omission-corrected latency from intended arrivals";
  let keys = nkeys () in
  let threads = opts.threads in
  let run_mode ?arrival_rate () =
    note_metrics
      (R.run ~seed:opts.seed ~threads ~ops_per_thread:opts.ops
         ~chunk:opts.chunk
         ~config:(config ~keys ~threads ())
         ~trace:(tracing ()) ?arrival_rate
         ~latency_threshold_ns:opts.latency_threshold_ns ~variant:Sys_.Incll
         ~mix:Y.A ~dist:Y.Zipfian ~nkeys:keys ())
  in
  let closed = run_mode () in
  (* Offered open-loop rate: just under the closed-loop capacity, so the
     queue stays stable but every flush builds a backlog whose wait the
     CO correction charges to the delayed ops. Deterministic either way —
     closed-loop capacity is itself a pure function of seed and config. *)
  let rate =
    match opts.arrival_rate with
    | Some r -> r
    | None -> 0.9 *. closed.R.mops_sim *. 1e6
  in
  let open_ = run_mode ~arrival_rate:rate () in
  line "    open-loop offered rate: %.0f ops/s (sim); threshold %.0f us" rate
    (opts.latency_threshold_ns /. 1e3);
  let t =
    Util.Table.create
      ~columns:
        [
          "mode"; "p50 us"; "p99 us"; "p999 us"; "p9999 us"; "max us";
          "over thr"; "attributed";
        ]
  in
  let row mode (r : R.result) =
    let h = Obs.Registry.find_histogram r.R.metrics "op.latency_ns" in
    let p q = match h with
      | Some h -> Obs.Histogram.percentile h q /. 1e3
      | None -> 0.0
    in
    let over, attributed, _ = attribution r in
    Util.Table.add_row t
      [
        mode;
        Util.Table.cell_float (p 0.5);
        Util.Table.cell_float (p 0.99);
        Util.Table.cell_float (p 0.999);
        Util.Table.cell_float (p 0.9999);
        Util.Table.cell_float
          ((match h with Some h -> Obs.Histogram.max_value h | None -> 0.0)
          /. 1e3);
        Util.Table.cell_int over;
        (if over = 0 then "n/a"
         else
           Printf.sprintf "%.1f%%"
             (100.0 *. float_of_int attributed /. float_of_int over));
      ]
  in
  row "closed" closed;
  row "open" open_;
  emit "latency" t;
  let st =
    Util.Table.create
      ~columns:[ "mode"; "cause"; "stalls"; "total ms"; "attributed ops" ]
  in
  let stall_rows mode (r : R.result) =
    let _, _, per_cause = attribution r in
    List.iter
      (fun (c, count, total) ->
        if count > 0 then
          Util.Table.add_row st
            [
              mode;
              Obs.Stall.cause_name c;
              Util.Table.cell_int count;
              Util.Table.cell_float (total /. 1e6);
              Util.Table.cell_int (List.assoc c per_cause);
            ])
      (stall_sums r)
  in
  stall_rows "closed" closed;
  stall_rows "open" open_;
  emit "latency_stalls" st;
  line "    slowest ops and the stalls that overlapped them:";
  print_spikes "closed" closed;
  print_spikes "open" open_;
  latency_json :=
    [ ("open", latency_mode_json open_); ("closed", latency_mode_json closed) ]

(* The recovery-time / throughput / tail-latency tradeoff the adaptive
   scheduler exposes (DESIGN.md §15): one row per policy over the same
   workload. Closed-loop capacity and the open-loop tail come from the
   harness (Counting mode); the recovery window from a Precise-mode
   system crashed mid-epoch and recovered. Every cell is simulated-clock
   and bit-deterministic. *)
let policies () =
  line "";
  line
    "=== beyond the paper: checkpoint policy tradeoff (INCLL, YCSB_A \
     zipfian) ===";
  line "    throughput = fixed-period stop-the-world wbinvd (the paper)";
  line "    latency    = pressure-driven epochs + bounded incremental sweep";
  line "    rto        = short epochs + aggressive pressure triggers";
  let keys = nkeys () in
  let threads = opts.threads in
  let t =
    Util.Table.create
      ~columns:
        [
          "policy"; "Mops (sim)"; "open p999 us"; "epoch_advance ms";
          "clwb_sweep ms"; "epochs"; "replayed"; "recovery sim ms";
        ]
  in
  List.iter
    (fun policy ->
      let run_mode ?arrival_rate () =
        R.run ~seed:opts.seed ~threads ~ops_per_thread:opts.ops
          ~chunk:opts.chunk
          ~config:(config ~policy ~keys ~threads ())
          ?arrival_rate ~latency_threshold_ns:opts.latency_threshold_ns
          ~variant:Sys_.Incll ~mix:Y.A ~dist:Y.Zipfian ~nkeys:keys ()
      in
      let closed = run_mode () in
      let rate =
        match opts.arrival_rate with
        | Some r -> r
        | None -> 0.9 *. closed.R.mops_sim *. 1e6
      in
      let open_ = run_mode ~arrival_rate:rate () in
      let p999 =
        match Obs.Registry.find_histogram open_.R.metrics "op.latency_ns" with
        | Some h -> Obs.Histogram.percentile h 0.999 /. 1e3
        | None -> 0.0
      in
      let stall cause =
        List.fold_left
          (fun a (c, _, total) -> if c = cause then a +. total else a)
          0.0 (stall_sums open_)
        /. 1e6
      in
      (* Recovery window: load, run a mixed tail so the crash lands
         mid-epoch, crash, recover. RTO-style policies checkpoint more
         often, so less work sits in the failed epoch. *)
      let rkeys = max 2_000 (keys / 4) in
      let cfg =
        {
          Sys_.nvm =
            Nvm.Config.with_policy
              {
                Nvm.Config.default with
                Nvm.Config.size_bytes = (rkeys * 400) + (48 * 1024 * 1024);
                extlog_bytes = 8 * 1024 * 1024;
                crash_support = Nvm.Config.Precise;
              }
              policy;
          epoch_len_ns = opts.epoch_ms *. 1e6;
          val_incll = true;
        }
      in
      let s = Sys_.create ~config:cfg Sys_.Incll in
      let rng = Util.Rng.create ~seed:opts.seed in
      for i = 0 to rkeys - 1 do
        Sys_.put s ~key:(Y.key_of_rank i) ~value:"12345678"
      done;
      for _ = 1 to rkeys / 2 do
        let k = Y.key_of_rank (Util.Rng.int rng rkeys) in
        if Util.Rng.bool rng then Sys_.put s ~key:k ~value:"abcdefgh"
        else ignore (Sys_.get s ~key:k : string option)
      done;
      Sys_.crash s rng;
      let s = Sys_.recover s in
      let replayed, rec_ms =
        match Sys_.last_recover_stats s with
        | Some st ->
            (st.Sys_.replayed_entries, st.Sys_.recovery_sim_ns /. 1e6)
        | None -> (0, 0.0)
      in
      Util.Table.add_row t
        [
          Nvm.Config.policy_name policy;
          Util.Table.cell_float closed.R.mops_sim;
          Util.Table.cell_float p999;
          Util.Table.cell_float (stall Obs.Stall.Epoch_advance);
          Util.Table.cell_float (stall Obs.Stall.Clwb_sweep);
          Util.Table.cell_int open_.R.epochs;
          Util.Table.cell_int replayed;
          Util.Table.cell_float rec_ms;
        ])
    [ Nvm.Config.Throughput; Nvm.Config.Latency; Nvm.Config.Rto ];
  emit "policies" t

(* -------------------------------------------------------------- remote *)

(* The serving layer under the same seeded workload, over the wire: an
   open-loop pipelined client against a running bin/incll_server.exe
   (--connect), with wall-clock CO-corrected latency and per-op
   attribution from the evidence the replies carry (shard-queue wait +
   dominant persistence-stall cause). Unlike every other bench here the
   numbers are wall clock — the JSON is gated by diffing a report
   against itself (schema and attribution), not against a committed
   baseline. *)

module RM = Bench_harness.Remote

let remote_spike_json (s : RM.spike) =
  Obs.Json.Obj
    [
      ("index", Obs.Json.Int s.RM.rsp_index);
      ("op", Obs.Json.String (op_name s.RM.rsp_tag));
      ("start_ns", Obs.Json.Float s.RM.rsp_arrival_ns);
      ("lat_ns", Obs.Json.Float s.RM.rsp_lat_ns);
      ("queue_ns", Obs.Json.Float s.RM.rsp_queue_ns);
      ( "cause",
        match s.RM.rsp_cause with
        | Some c -> Obs.Json.String (Obs.Stall.cause_name c)
        | None -> Obs.Json.Null );
    ]

let remote_mode_json (r : RM.result) =
  Obs.Json.Obj
    [
      ("open_loop", Obs.Json.Bool true);
      ("arrival_rate", Obs.Json.Float r.RM.arrival_rate);
      ("threshold_ns", Obs.Json.Float r.RM.latency_threshold_ns);
      ("mops_wall", Obs.Json.Float r.RM.mops_wall);
      ("calibrated_mops", Obs.Json.Float r.RM.calibrated_mops);
      ("busy", Obs.Json.Int r.RM.busy);
      (* "merged" is what bench_compare's percentile gates read; for the
         remote mode it is the same wall-clock histogram as "wall". *)
      ("merged", Obs.Histogram.to_json r.RM.latency);
      ("wall", Obs.Histogram.to_json r.RM.latency);
      ("shards", Obs.Json.List []);
      ("over_threshold", Obs.Json.Int r.RM.over_threshold);
      ( "attributed",
        Obs.Json.Obj
          (List.map (fun (n, c) -> (n, Obs.Json.Int c)) r.RM.attributed) );
      ( "stall_totals",
        Obs.Json.Obj
          (List.map
             (fun (n, (count, total)) ->
               ( n,
                 Obs.Json.Obj
                   [
                     ("count", Obs.Json.Int count);
                     ("total_ns", Obs.Json.Float total);
                   ] ))
             r.RM.stall_totals) );
      ("spikes", Obs.Json.List (List.map remote_spike_json r.RM.spikes));
      ( "oracle",
        match r.RM.oracle_ok with
        | None -> Obs.Json.Null
        | Some b -> Obs.Json.Bool b );
      (* Fault-tolerance telemetry from the robustness probe; gated by
         bench_compare (retries/backoff/reconnects are higher-is-worse). *)
      ( "robust",
        Obs.Json.Obj
          [
            ("ops", Obs.Json.Int r.RM.robust.RM.rb_ops);
            ("retries", Obs.Json.Int r.RM.robust.RM.rb_retries);
            ("reconnects", Obs.Json.Int r.RM.robust.RM.rb_reconnects);
            ("backoff_ns", Obs.Json.Float r.RM.robust.RM.rb_backoff_ns);
            ("dedup_hits", Obs.Json.Int r.RM.robust.RM.rb_dedup_hits);
          ] );
    ]

let remote () =
  match opts.connect with
  | None ->
      if List.mem "remote" (List.map canonical_name opts.only) then begin
        prerr_endline "the remote bench requires --connect ADDR";
        exit 2
      end
      (* Part of an unfiltered run: nothing to connect to, skip silently. *)
  | Some addr_s ->
      let addr = Wire.Client.addr_of_string addr_s in
      let keys = nkeys () in
      let n = opts.threads * opts.ops in
      line "";
      line "=== beyond the paper: remote serving bench over %s ===" addr_s;
      line
        "    one pipelined connection, open loop at the offered rate, \
         wall-clock";
      line
        "    latency from intended arrivals (coordinated-omission \
         corrected)";
      let oracle =
        if opts.oracle then
          Some (config ~keys ~threads:opts.threads (), opts.threads)
        else None
      in
      let r =
        RM.run ~addr ~seed:opts.seed ~n ~mix:Y.A ~dist:Y.Zipfian ~nkeys:keys
          ?arrival_rate:opts.arrival_rate
          ~latency_threshold_ns:opts.latency_threshold_ns ?oracle ()
      in
      let attributed_n =
        List.fold_left
          (fun a (name, c) -> if name = "none" then a else a + c)
          0 r.RM.attributed
      in
      let t =
        Util.Table.create
          ~columns:
            [
              "offered Kops/s"; "achieved Kops/s"; "p50 us"; "p99 us";
              "p999 us"; "over thr"; "attributed"; "busy";
            ]
      in
      Util.Table.add_row t
        [
          Util.Table.cell_float (r.RM.arrival_rate /. 1e3);
          Util.Table.cell_float (r.RM.mops_wall *. 1e3);
          Util.Table.cell_float (Obs.Histogram.percentile r.RM.latency 0.5 /. 1e3);
          Util.Table.cell_float (Obs.Histogram.percentile r.RM.latency 0.99 /. 1e3);
          Util.Table.cell_float
            (Obs.Histogram.percentile r.RM.latency 0.999 /. 1e3);
          Util.Table.cell_int r.RM.over_threshold;
          (if r.RM.over_threshold = 0 then "n/a"
           else
             Printf.sprintf "%.1f%%"
               (100.0 *. float_of_int attributed_n
               /. float_of_int r.RM.over_threshold));
          Util.Table.cell_int r.RM.busy;
        ];
      emit "remote" t;
      let st =
        Util.Table.create
          ~columns:[ "cause"; "stalls"; "total ms"; "attributed ops" ]
      in
      List.iter
        (fun (name, (count, total)) ->
          if count > 0 then
            Util.Table.add_row st
              [
                name;
                Util.Table.cell_int count;
                Util.Table.cell_float (total /. 1e6);
                Util.Table.cell_int
                  (try List.assoc name r.RM.attributed with Not_found -> 0);
              ])
        r.RM.stall_totals;
      emit "remote_stalls" st;
      line "    slowest ops and the evidence their replies carried:";
      List.iteri
        (fun i (s : RM.spike) ->
          if i < 5 then
            line "    [remote] %s lat=%.0fus queue=%.0fus  <- %s"
              (op_name s.RM.rsp_tag)
              (s.RM.rsp_lat_ns /. 1e3)
              (s.RM.rsp_queue_ns /. 1e3)
              (match s.RM.rsp_cause with
              | Some c -> Obs.Stall.cause_name c
              | None -> "net_queue/none"))
        r.RM.spikes;
      if opts.oracle then
        line "    oracle: server state == in-process replay";
      latency_json := ("remote", remote_mode_json r) :: !latency_json;
      (* Gate mode (--oracle): the serving layer's whole observability
         claim is that tail excursions are attributable — enforce it,
         along with lossless admission, right here where the evidence
         is. *)
      if opts.oracle then begin
        if r.RM.busy > 0 then begin
          Printf.eprintf
            "remote gate: %d ops bounced BUSY (raise --queue-capacity on \
             the server)\n"
            r.RM.busy;
          exit 1
        end;
        if
          r.RM.over_threshold > 0
          && float_of_int attributed_n
             < 0.99 *. float_of_int r.RM.over_threshold
        then begin
          Printf.eprintf
            "remote gate: only %d/%d over-threshold ops attributed (< 99%%)\n"
            attributed_n r.RM.over_threshold;
          exit 1
        end
      end

(* ----------------------------------------------------------------- main *)

let all_benches =
  [
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("flushcost", flushcost);
    ("recovery", recovery);
    ("ablation_epoch", ablation_epoch);
    ("ablation_valincll", ablation_valincll);
    ("ablation_internal", ablation_internal);
    ("latency", latency);
    ("policies", policies);
    ("micro", micro);
    (* must run after [latency], which overwrites [latency_json];
       [remote] appends its mode to whatever is there *)
    ("remote", remote);
  ]

let usage () =
  print_endline
    "Usage: bench/main.exe [options]\n\
     \  --only NAMES   comma-separated subset (fig2..fig8, flushcost, recovery,\n\
     \                 ablation_epoch, ablation_valincll, ablation_internal,\n\
     \                 latency, policies, micro, remote)\n\
     \  --latency      shorthand for --only latency: closed- and open-loop\n\
     \                 per-op latency percentiles with stall attribution\n\
     \  --arrival-rate R  open-loop offered load for the latency bench, in ops\n\
     \                 per simulated second (default: 90% of the measured\n\
     \                 closed-loop throughput)\n\
     \  --latency-threshold-us F  attribution threshold: ops slower than this\n\
     \                 (simulated) are matched against the stall ledger\n\
     \                 (default 50)\n\
     \  --connect ADDR run the remote serving bench against a running\n\
     \                 bin/incll_server.exe at unix:/path or tcp:host:port;\n\
     \                 open-loop over the wire, wall-clock CO-corrected\n\
     \                 latency, per-op attribution incl. net_queue\n\
     \  --oracle       after the remote bench, replay the same seeded streams\n\
     \                 through an in-process store and require the server's\n\
     \                 complete key/value state to match; also enforces the\n\
     \                 serve-gate floors (no BUSY, >=99% attribution)\n\
     \  --policy P     checkpoint-scheduling policy: throughput (fixed-period\n\
     \                 stop-the-world wbinvd, the paper's scheduler; default),\n\
     \                 latency (pressure-driven epochs + bounded incremental\n\
     \                 clwb sweep) or rto (short epochs, aggressive pressure\n\
     \                 triggers; bounds the recovery window)\n\
     \  --scale F      fraction of the paper's 20M keys (default 0.01)\n\
     \  --threads N    worker domains / shards (default 8)\n\
     \  --ops N        operations per thread (default 50000)\n\
     \  --chunk N      ops per measured batch; each finished chunk samples the\n\
     \                 shard's bench.chunk_wall_mops series (default 4096)\n\
     \  --epoch-ms F   simulated epoch length (default 8.0; paper: 64)\n\
     \  --seed N       workload seed\n\
     \  --repeats N    Figure-2 runs per cell, reported as mean±stdev (default 1)\n\
     \  --csv DIR      also write each table as DIR/<name>.csv\n\
     \  --json FILE    write a machine-readable report: run metadata (schema,\n\
     \                 seed, scale, ...), every table, and the merged metric\n\
     \                 registry (throughput, sfence/wbinvd latency percentiles,\n\
     \                 incll_hit vs incll_fallback counters, ...). Compare two\n\
     \                 reports with bin/bench_compare.exe.\n\
     \  --trace FILE   write a Chrome trace_event timeline (open in Perfetto or\n\
     \                 chrome://tracing) of the last measured run: span slices,\n\
     \                 sfence/wbinvd durations, epoch intervals, counter tracks\n\
     \  --date STR     date string recorded in the --json metadata (defaults to\n\
     \                 today; pass explicitly for reproducible reports)";
  exit 0

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--only" :: v :: rest ->
        opts.only <- String.split_on_char ',' v;
        go rest
    | "--scale" :: v :: rest ->
        opts.scale <- float_of_string v;
        go rest
    | "--threads" :: v :: rest ->
        opts.threads <- int_of_string v;
        go rest
    | "--chunk" :: v :: rest ->
        opts.chunk <- int_of_string v;
        go rest
    | "--ops" :: v :: rest ->
        opts.ops <- int_of_string v;
        go rest
    | "--epoch-ms" :: v :: rest ->
        opts.epoch_ms <- float_of_string v;
        go rest
    | "--seed" :: v :: rest ->
        opts.seed <- int_of_string v;
        go rest
    | "--repeats" :: v :: rest ->
        opts.repeats <- int_of_string v;
        go rest
    | "--csv" :: v :: rest ->
        opts.csv_dir <- Some v;
        go rest
    | "--json" :: v :: rest ->
        opts.json_file <- Some v;
        go rest
    | "--trace" :: v :: rest ->
        opts.trace_file <- Some v;
        go rest
    | "--date" :: v :: rest ->
        opts.date <- Some v;
        go rest
    | "--latency" :: rest ->
        opts.only <- "latency" :: opts.only;
        go rest
    | "--arrival-rate" :: v :: rest ->
        let r = float_of_string v in
        if r <= 0.0 then begin
          prerr_endline "--arrival-rate must be positive";
          exit 2
        end;
        opts.arrival_rate <- Some r;
        go rest
    | "--latency-threshold-us" :: v :: rest ->
        opts.latency_threshold_ns <- float_of_string v *. 1e3;
        go rest
    | "--connect" :: v :: rest ->
        opts.connect <- Some v;
        go rest
    | "--oracle" :: rest ->
        opts.oracle <- true;
        go rest
    | "--policy" :: v :: rest ->
        (match Nvm.Config.policy_of_string v with
        | p -> opts.policy <- p
        | exception Invalid_argument _ ->
            prerr_endline "--policy must be throughput, latency or rto";
            exit 2);
        go rest
    | ("--help" | "-h") :: _ -> usage ()
    | x :: _ ->
        prerr_endline ("unknown argument: " ^ x);
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv))

let table_json t =
  Obs.Json.Obj
    [
      ("columns", Obs.Json.List (List.map (fun c -> Obs.Json.String c) (Util.Table.columns t)));
      ( "rows",
        Obs.Json.List
          (List.map
             (fun row -> Obs.Json.List (List.map (fun c -> Obs.Json.String c) row))
             (Util.Table.rows t)) );
    ]

(* Bumped whenever the report layout changes incompatibly;
   bench_compare refuses to diff reports with different versions.
   v3 added the top-level "latency" section and its meta fields. *)
let json_schema_version = 3

let date_string () =
  match opts.date with
  | Some d -> d
  | None ->
      let tm = Unix.localtime (Unix.time ()) in
      Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday

let write_json_report path =
  let meta_json =
    Obs.Json.Obj
      [
        ("schema_version", Obs.Json.Int json_schema_version);
        ("date", Obs.Json.String (date_string ()));
        ("scale", Obs.Json.Float opts.scale);
        ("keys", Obs.Json.Int (nkeys ()));
        ("threads", Obs.Json.Int opts.threads);
        ("ops_per_thread", Obs.Json.Int opts.ops);
        ("chunk", Obs.Json.Int opts.chunk);
        ("epoch_ms", Obs.Json.Float opts.epoch_ms);
        ("seed", Obs.Json.Int opts.seed);
        ("repeats", Obs.Json.Int opts.repeats);
        ( "arrival_rate",
          match opts.arrival_rate with
          | Some r -> Obs.Json.Float r
          | None -> Obs.Json.Null );
        ("latency_threshold_ns", Obs.Json.Float opts.latency_threshold_ns);
        ("policy", Obs.Json.String (Nvm.Config.policy_name opts.policy));
        ( "variants",
          Obs.Json.List
            (List.map
               (fun v -> Obs.Json.String (Sys_.variant_name v))
               [ Sys_.Mt; Sys_.Mt_plus; Sys_.Logging; Sys_.Incll ]) );
      ]
  in
  let report =
    Obs.Json.Obj
      ([
         ("meta", meta_json);
         ( "tables",
           Obs.Json.Obj
             (List.rev_map (fun (name, t) -> (name, table_json t)) !json_tables)
         );
         ("metrics", Obs.Registry.to_json global_metrics);
       ]
      @
      match !latency_json with
      | [] -> []
      | modes -> [ ("latency", Obs.Json.Obj (List.rev modes)) ])
  in
  match open_out path with
  | oc ->
      output_string oc (Obs.Json.to_string_pretty report);
      output_char oc '\n';
      close_out oc;
      line "    [json: %s]" path
  | exception Sys_error msg ->
      (* Don't lose the whole run to a bad path: the tables were already
         printed; report and fail the exit code only. *)
      Printf.eprintf "cannot write --json report: %s\n" msg;
      exit 1

let () =
  parse_args ();
  line "InCLL reproduction benchmarks";
  line "scale=%.4f (keys=%s) threads=%d ops/thread=%s epoch=%.1fms seed=%d"
    opts.scale
    (Util.Table.cell_int (nkeys ()))
    opts.threads
    (Util.Table.cell_int opts.ops)
    opts.epoch_ms opts.seed;
  List.iter (fun (name, f) -> if selected name then f ()) all_benches;
  match opts.json_file with None -> () | Some path -> write_json_report path
