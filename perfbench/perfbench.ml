(* The repo benchmark. One closed-loop client, one workload per run:

     perfbench --workload store_write|store_read|serve_session
               --seed N --seconds S --trace 0|1
               [--server _build/default/bin/incll_server.exe] [--out-dir .perfbench]

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer metrics of a traced run (see perfbench/README.md for what
   each one is and which end-to-end metric it should move). Human-
   readable lines come first; the last line of stdout is one JSON
   object {"correct", "attempted", "failed", "metrics"}. A fuller
   report (host fingerprint, sample counts, failure detail) and, when
   traced, the recorded spans go to --out-dir. *)

module St = Store.Sharded

type workload = {
  name : string;
  spec : Workload.Ycsb.spec;
  served : bool;
  serve_layers : bool;
      (** the traced run also measures the serving layers, through a
          traced serve_session run of half the length in a child *)
}

let workloads =
  let open Workload.Ycsb in
  [
    {
      name = "store_write";
      spec = { mix = A; dist = Uniform; nkeys = 200_000 };
      served = false;
      serve_layers = true;
    };
    {
      name = "store_read";
      spec = { mix = C; dist = Zipfian; nkeys = 200_000 };
      served = false;
      serve_layers = false;
    };
    {
      name = "serve_session";
      spec = { mix = A; dist = Zipfian; nkeys = 50_000 };
      served = true;
      serve_layers = false;
    };
  ]

let ring = 250_000  (* length of the generated op ring *)
let cycles = 5  (* crash -> recover cycles after the measured window *)
let batch = 10_000  (* stream ops run before each crash *)
let setups = 3
let shadow_ops = 150_000
let chunk_ops = 20_000  (* traced-run chunk in process; a tenth when served *)
let span_cap = 60_000

(* ---- report -------------------------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []

let metric name unit v =
  let v = if Float.is_finite v then v else 0.0 in
  metrics := (name, v, unit) :: !metrics

(* Host-speed scaling of the wall-clock end-to-end metrics (see
   perfbench/README.md). Each wall figure is scaled by the probe taken
   next to it to the figure of a host whose probe takes
   [probe_nominal_ns]: a time by nominal/probe, a rate by probe/nominal.
   Every probe is kept for the report. *)
let probe_nominal_ns = 15e6
let probes : int list ref = ref []

let probe () =
  let p = Host.probe () in
  probes := p :: !probes;
  p

let scale_time v probe_ns = v *. probe_nominal_ns /. float_of_int probe_ns
let scale_rate v probe_ns = v *. float_of_int probe_ns /. probe_nominal_ns

let notes : (string * Obs.Json.t) list ref = ref []
let note k v = notes := (k, v) :: !notes

(* ---- the end-to-end run -------------------------------------------------- *)

let subwindows = 30
let quiet_quantile = 0.34

type common = {
  n : int;
  window_s : float;
  lat : int array;
  windows : Clock.Ticker.window list;
  rss : float;
}

(* Throughput, latency percentiles and CPU per op are medians over the
   lowest-steal third of the sub-windows of the measured window (CPU
   steal at most their [quiet_quantile]), each scaled by its own probe;
   unscaled and whole-window figures go to the notes. A closed loop
   stalls for every slice of time the hypervisor takes the vCPU away, and
   steal on a shared host comes in bursts that would otherwise set the
   tail. *)
let report_common c =
  let steal_cut =
    let a = Array.of_list (List.map (fun (w : Clock.Ticker.window) -> w.steal) c.windows) in
    Array.sort Float.compare a;
    Clock.quantile_sorted a quiet_quantile
  in
  let quiet = List.filter (fun (w : Clock.Ticker.window) -> w.steal <= steal_cut) c.windows in
  let per_window f =
    Clock.median_f
      (List.map (fun (w : Clock.Ticker.window) -> f (Array.sub c.lat w.lo (w.hi - w.lo)) w) quiet)
  in
  let kops a (w : Clock.Ticker.window) = float_of_int (Array.length a) /. float_of_int w.dur_ns *. 1e6 in
  let p q a _ = Clock.quantile a q /. 1000.0 in
  let cpu a (w : Clock.Ticker.window) = w.cpu_s *. 1e6 /. float_of_int (max 1 (Array.length a)) in
  let scaled scale f a (w : Clock.Ticker.window) = scale (f a w) w.probe_ns in
  metric "throughput_kops" "kops" (per_window (scaled scale_rate kops));
  metric "latency_p50_us" "us" (per_window (scaled scale_time (p 0.5)));
  metric "latency_p99_us" "us" (per_window (scaled scale_time (p 0.99)));
  metric "cpu_us_per_op" "us" (per_window (scaled scale_time cpu));
  metric "peak_rss_mb" "MB" c.rss;
  note "unscaled"
    (Obs.Json.Obj
       [
         ("throughput_kops", Obs.Json.Float (per_window kops));
         ("latency_p50_us", Obs.Json.Float (per_window (p 0.5)));
         ("latency_p99_us", Obs.Json.Float (per_window (p 0.99)));
         ("cpu_us_per_op", Obs.Json.Float (per_window cpu));
       ]);
  note "window_kops" (Obs.Json.Float (float_of_int c.n /. c.window_s /. 1000.0));
  note "subwindows" (Obs.Json.Int (List.length c.windows));
  note "subwindow_kops_steal"
    (Obs.Json.List
       (List.map
          (fun (w : Clock.Ticker.window) ->
            Obs.Json.List
              [
                Obs.Json.Float (float_of_int (w.hi - w.lo) /. float_of_int w.dur_ns *. 1e6);
                Obs.Json.Float w.steal;
                Obs.Json.Int w.probe_ns;
              ])
          c.windows));
  note "quiet_subwindows" (Obs.Json.Int (List.length quiet));
  note "subwindow_steal_cut" (Obs.Json.Float steal_cut);
  note "latency_samples" (Obs.Json.Int (Array.length c.lat));
  let sorted = Clock.sorted_floats c.lat in
  note "latency_us"
    (Obs.Json.Obj
       (("mean", Obs.Json.Float (Clock.mean c.lat /. 1000.0))
       :: List.map
            (fun (k, q) -> (k, Obs.Json.Float (Clock.quantile_sorted sorted q /. 1000.0)))
            [ ("p10", 0.1); ("p90", 0.9); ("p95", 0.95); ("p999", 0.999); ("max", 1.0) ]));
  note "latency_p99_samples_beyond" (Obs.Json.Int (Array.length c.lat / 100))

(* Set-up seconds, unscaled: the end of the run scales them by the run's
   median probe. A probe right after a set-up reads a cache the set-up
   just thrashed, so bracketing each set-up with probes scales it by
   noise. *)
let report_setup setups =
  metric "setup_s" "s" (Clock.median_f setups);
  note "setup_s_unscaled" (Obs.Json.List (List.map (fun s -> Obs.Json.Float s) setups))

let report_recovery (cycles : Inproc.cycle list) =
  metric "recovery_ms" "ms"
    (Clock.median_f (List.map (fun c -> scale_time c.Inproc.wall_ms c.Inproc.probe_ns) cycles));
  note "recovery_ms_unscaled" (Obs.Json.List (List.map (fun c -> Obs.Json.Float c.Inproc.wall_ms) cycles));
  metric "recovery_sim_ms" "ms" (Clock.median_f (List.map (fun c -> c.Inproc.sim_ms) cycles));
  note "recovery_cycles" (Obs.Json.Int (List.length cycles))

let report_store ex ~n ~before ~after =
  let d = Inproc.diff after before in
  metric "sim_ns_per_op" "ns" (d.Inproc.sim_ns /. float_of_int n);
  let live = St.cardinal ex.Inproc.store * 16 in
  metric "nvm_bytes_per_user_byte" "B/B"
    (float_of_int (Inproc.heap_bytes ex.Inproc.store) /. float_of_int live)

(* ---- per-layer helpers --------------------------------------------------- *)

type alt = {
  mutable plain_ns : int;
  mutable plain_ops : int;
  mutable traced_ns : int;
  mutable traced_ops : int;
  mutable alloc_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

(* Alternate untraced and traced chunks of [chunk] ops until [deadline];
   GC counters are read around the untraced chunks only, in this (the
   op-driving) domain. *)
let alternate ~pos ~deadline ~chunk ~plain ~traced =
  let a =
    {
      plain_ns = 0;
      plain_ops = 0;
      traced_ns = 0;
      traced_ops = 0;
      alloc_words = 0.0;
      minor_gcs = 0;
      major_gcs = 0;
    }
  in
  let tracing = ref false in
  while Clock.now () < deadline do
    let p0 = pos () in
    if !tracing then begin
      let t0 = Clock.now () in
      let t1 = traced ~count:chunk ~deadline in
      a.traced_ns <- a.traced_ns + (t1 - t0);
      a.traced_ops <- a.traced_ops + (pos () - p0)
    end
    else begin
      let q0 = Gc.quick_stat () in
      let t0 = Clock.now () in
      let t1 = plain ~count:chunk ~deadline in
      let q1 = Gc.quick_stat () in
      a.plain_ns <- a.plain_ns + (t1 - t0);
      a.plain_ops <- a.plain_ops + (pos () - p0);
      a.alloc_words <-
        a.alloc_words
        +. (q1.Gc.minor_words -. q0.Gc.minor_words)
        +. (q1.major_words -. q0.major_words)
        -. (q1.promoted_words -. q0.promoted_words);
      a.minor_gcs <- a.minor_gcs + (q1.minor_collections - q0.minor_collections);
      a.major_gcs <- a.major_gcs + (q1.major_collections - q0.major_collections)
    end;
    tracing := not !tracing
  done;
  a

let report_alt a =
  let per_op ns ops = float_of_int ns /. float_of_int (max 1 ops) in
  metric "gc.alloc_bytes_per_op" "B/op" (a.alloc_words *. 8.0 /. float_of_int (max 1 a.plain_ops));
  metric "gc.minor_collections_per_kop" "1/kop"
    (float_of_int a.minor_gcs *. 1000.0 /. float_of_int (max 1 a.plain_ops));
  metric "gc.major_collections" "count" (float_of_int a.major_gcs);
  metric "trace.overhead_frac" "frac"
    ((per_op a.traced_ns a.traced_ops /. per_op a.plain_ns a.plain_ops) -. 1.0)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let med s = Clock.median (Clock.Samples.to_array s)

(* Store-layer metrics of a traced loop over [ex]'s store. *)
let report_layers ex (tr : Inproc.traced) (d : Inproc.counts) ~n ~(cycles : Inproc.cycle list) =
  let nf = float_of_int n in
  let per x = float_of_int x /. nf in
  (* per put, or the raw count when the window had no puts (store_read),
     so a stray append still shows *)
  let puts = max 1 (Stream.puts_upto ex.Inproc.stream n) in
  metric "nvm.reads_per_op" "1/op" (per d.Inproc.reads);
  metric "nvm.writes_per_op" "1/op" (per d.writes);
  metric "nvm.clwb_per_op" "1/op" (per d.clwb);
  metric "nvm.sfence_per_op" "1/op" (per d.sfence);
  metric "nvm.wbinvd_lines_per_op" "1/op" (per d.wbinvd_lines);
  metric "nvm.evictions_per_op" "1/op" (per d.evictions);
  metric "alloc.allocs_per_put" "1/op" (ratio d.allocs puts);
  metric "alloc.freelist_frac" "frac" (ratio d.freelist_allocs d.allocs);
  metric "alloc.heap_bytes_per_key" "B"
    (ratio (Inproc.heap_bytes ex.Inproc.store) (St.cardinal ex.Inproc.store));
  metric "epoch.advances" "count" (float_of_int d.advances);
  metric "epoch.lines_per_advance" "lines" (ratio d.wbinvd_lines d.advances);
  metric "epoch.advance_op_us" "us"
    (if Clock.Samples.length tr.advance = 0 then 0.0
     else (med tr.advance -. med tr.all) /. 1000.0);
  metric "extlog.appends_per_put" "1/op" (ratio d.logged puts);
  metric "extlog.logged_op_extra_ns" "ns"
    (if Clock.Samples.length tr.logged_put = 0 || Clock.Samples.length tr.clean_put = 0
     then 0.0
     else med tr.logged_put -. med tr.clean_put);
  metric "incll.hit_frac" "frac" (ratio d.incll_hit (d.incll_hit + d.incll_fallback));
  metric "incll.first_touch_per_put" "1/op" (ratio d.first_touch puts);
  let store = ex.Inproc.store and keys = ex.Inproc.stream.Stream.keys in
  let m = Array.length keys in
  metric "store.route_ns" "ns"
    (Clock.ns_per ~n:1_000_000 (fun i ->
         ignore (Sys.opaque_identity (St.shard_of_key store keys.(i mod m)))));
  let q s p = Clock.quantile (Clock.Samples.to_array s) p in
  metric "store.get_ns_p50" "ns" (q tr.get 0.5);
  metric "store.get_ns_p99" "ns" (q tr.get 0.99);
  metric "store.put_ns_p50" "ns" (q tr.put 0.5);
  metric "store.put_ns_p99" "ns" (q tr.put 0.99);
  let phase name =
    Clock.median_f
      (List.map
         (fun c -> Option.value (List.assoc_opt ("recover." ^ name) c.Inproc.phases) ~default:0.0)
         cycles)
  in
  List.iter
    (fun p -> metric ("recovery." ^ p ^ "_sim_us") "us" (phase p /. 1000.0))
    [ "epoch_open"; "extlog_replay"; "alloc_chains"; "image_scan"; "txn_resolve"; "eager_sweep"; "checkpoint" ];
  metric "recovery.replayed_entries" "count"
    (Clock.median_f (List.map (fun c -> float_of_int c.Inproc.replayed) cycles));
  let wall = Clock.median_f (List.map (fun c -> c.Inproc.wall_ms) cycles)
  and sim = Clock.median_f (List.map (fun c -> c.Inproc.sim_ms) cycles) in
  metric "recovery.wall_per_sim" "x" (if sim > 0.0 then wall /. sim else 0.0);
  metric "recovery.lazy_get_extra_ns" "ns"
    (Clock.median_f (List.map (fun c -> c.Inproc.lazy_get_ns) cycles) -. med tr.get);
  (* raw region loads over the populated heap of shard 0: the floor *)
  let region = Incll.System.region (St.shard store 0) in
  let base = Nvm.Layout.heap_off Inproc.config.Incll.System.nvm in
  let span = max 64 (Inproc.heap_bytes store / St.nshards store) in
  metric "nvm.raw_read_ns" "ns"
    (Clock.ns_per ~n:1_000_000 (fun i ->
         ignore
           (Sys.opaque_identity
              (Nvm.Region.read_i64 region (base + ((i * 4099 * 64) mod span))))))

(* The MT / MT+ / LOGGING / INCLL ladder, one forked child per variant so
   no rung's store shares a heap with another. *)
let report_ladder stream ~ops =
  let rungs =
    List.map
      (fun v -> Host.in_child (fun () -> Inproc.rung stream ~ops v))
      Incll.System.[ Mt; Mt_plus; Logging; Incll ]
  in
  let ns v = (List.find (fun r -> r.Inproc.variant = v) rungs).Inproc.ns_per_op in
  let mt = List.find (fun r -> r.Inproc.variant = Incll.System.Mt) rungs in
  metric "masstree.get_ns" "ns" mt.Inproc.get_ns;
  metric "masstree.put_ns" "ns" mt.Inproc.put_ns;
  metric "masstree.reads_per_get" "1/op" mt.Inproc.reads_per_get;
  let open Incll.System in
  metric "mtplus.self_ns_per_op" "ns" (ns Mt_plus -. ns Mt);
  metric "logging.self_ns_per_op" "ns" (ns Logging -. ns Mt_plus);
  metric "incll.self_ns_per_op" "ns" (ns Incll -. ns Logging);
  note "ladder_ns_per_op"
    (Obs.Json.Obj
       (List.map (fun r -> (variant_name r.Inproc.variant, Obs.Json.Float r.Inproc.ns_per_op)) rungs))

let report_codec stream =
  let c = Served.codec stream ~n:100_000 in
  metric "wire.encode_ns" "ns" c.Served.encode_ns;
  metric "wire.decode_ns" "ns" c.Served.decode_ns;
  metric "wire.bytes_per_op" "B/op" c.Served.bytes_per_op;
  c

(* The serving layers' per-layer metrics, with their units; they read 0
   in process. *)
let server_metrics =
  [
    ("session.retries", "count"); ("session.reconnects", "count"); ("session.backoff_ms", "ms");
    ("server.queue_wait_us", "us"); ("server.stall.epoch_advance_ms", "ms");
    ("server.stall.extlog_ms", "ms"); ("server.stall.alloc_slow_ms", "ms");
    ("server.dedup_hits", "count"); ("server.cpu_us_per_op", "us");
    ("server.ctx_switches_per_op", "1/op"); ("server.os_threads", "count");
    ("server.rss_mb", "MB"); ("serve.unattributed_us", "us");
  ]

let server_metric name v = metric name (List.assoc name server_metrics) v

(* ---- workloads ----------------------------------------------------------- *)

type outcome = { attempted : int; failed : int; failures : string list }

let in_process w ~seed ~seconds ~trace ~spans =
  let setup () =
    let t0 = Clock.now () in
    let stream = Stream.make ~spec:w.spec ~seed ~ring in
    let store = Inproc.create stream in
    (stream, store, float_of_int (Clock.now () - t0) /. 1e9)
  in
  (* the discarded set-ups run in children, so their memory stays out of
     this process's peak RSS *)
  let discarded =
    List.init
      (if trace then 0 else setups - 1)
      (fun _ -> Host.in_child (fun () -> let _, _, s = setup () in s))
  in
  let stream, store, s = setup () in
  let setup_s = s :: discarded in
  let ex = Inproc.exec store stream in
  let before = Inproc.counts store in
  let deadline = Clock.now () + int_of_float (seconds *. 1e9) in
  let tr = Inproc.traced () in
  if not trace then begin
    report_setup setup_s;
    let lat = Clock.Samples.create () in
    let t0 = Clock.now () in
    let ticker =
      Clock.Ticker.create ~probe ~cpu:Host.self_cpu_s ~jiffies:Host.cpu_jiffies ~start:t0
        ~period:((deadline - t0) / subwindows)
    in
    let t1 = Inproc.run_plain ~ticker ex ~lat ~count:max_int ~deadline in
    let n = ex.Inproc.g in
    report_common
      {
        n;
        window_s = float_of_int (t1 - t0) /. 1e9;
        lat = Clock.Samples.to_array lat;
        windows = Clock.Ticker.windows ticker;
        rss = Host.peak_rss_mb "self";
      };
    report_store ex ~n ~before ~after:(Inproc.counts store)
  end
  else begin
    let lat = Clock.Samples.create () in
    let a =
      alternate
        ~pos:(fun () -> ex.Inproc.g)
        ~deadline ~chunk:chunk_ops
        ~plain:(fun ~count ~deadline -> Inproc.run_plain ex ~lat ~count ~deadline)
        ~traced:(fun ~count ~deadline -> Inproc.run_traced ex tr spans ~count ~deadline)
    in
    report_alt a
  end;
  let n = ex.Inproc.g in
  let after = Inproc.counts store in
  let cycles =
    Inproc.crash_cycles ex ~probe ~spans ~state:(Stream.state_after stream n) ~cycles ~batch ~seed
  in
  if not trace then report_recovery cycles
  else begin
    report_layers ex tr (Inproc.diff after before) ~n ~cycles;
    ignore (report_codec stream);
    report_ladder stream ~ops:200_000
  end;
  {
    attempted = ex.Inproc.g;
    failed = ex.Inproc.failed;
    failures = (if ex.Inproc.first_failure = "" then [] else [ ex.Inproc.first_failure ]);
  }

let served w ~seed ~seconds ~trace ~spans ~exe ~dir =
  let nsetup = if trace then 1 else setups in
  let failures = ref [] and failed = ref 0 in
  let fail msg =
    incr failed;
    failures := msg :: !failures
  in
  let setup_s = ref [] and current = ref None in
  for k = 1 to nsetup do
    let t0 = Clock.now () in
    let stream = Stream.make ~spec:w.spec ~seed ~ring in
    let srv =
      Served.spawn ~exe ~sock:(Filename.concat dir (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) k))
    in
    let bad = Served.populate srv.Served.addr stream in
    if bad > 0 then fail (Printf.sprintf "%d populate puts not OK" bad);
    let sess = Wire.Session.connect srv.Served.addr in
    setup_s := (float_of_int (Clock.now () - t0) /. 1e9) :: !setup_s;
    if k < nsetup then begin
      Wire.Session.close sess;
      if not (Served.stop srv) then fail "server did not drain after a set-up"
    end
    else current := Some (stream, srv, sess)
  done;
  let stream, srv, sess = Option.get !current in
  let pid = string_of_int srv.Served.pid in
  let l = { Served.g = 0; failed = 0; first_failure = "" } in
  let stats0 = if trace then Some (Served.stats_json sess) else None in
  let scpu0 = Host.cpu_s pid in
  let ctx0 = Host.ctx_switches pid in
  let deadline = Clock.now () + int_of_float (seconds *. 1e9) in
  let lat = Clock.Samples.create () in
  let t0 = Clock.now () in
  let ticker =
    Clock.Ticker.create ~probe
      ~cpu:(fun () -> Host.self_cpu_s () +. Host.cpu_s pid)
      ~jiffies:Host.cpu_jiffies ~start:t0 ~period:((deadline - t0) / subwindows)
  in
  let alt =
    if not trace then begin
      ignore (Served.run ~ticker sess stream l ~lat ~count:max_int ~deadline);
      None
    end
    else
      Some
        (alternate
           ~pos:(fun () -> l.Served.g)
           ~deadline ~chunk:(chunk_ops / 10)
           ~plain:(fun ~count ~deadline -> Served.run sess stream l ~lat ~count ~deadline)
           ~traced:(fun ~count ~deadline -> Served.run ~spans sess stream l ~lat ~count ~deadline))
  in
  let t1 = Clock.now () in
  let scpu1 = Host.cpu_s pid and ctx1 = Host.ctx_switches pid in
  let n = l.Served.g in
  let lat = Clock.Samples.to_array lat in
  let server_rss = Host.rss_mb pid and threads = Host.threads pid in
  if not trace then begin
    report_setup !setup_s;
    report_common
      {
        n;
        window_s = float_of_int (t1 - t0) /. 1e9;
        lat;
        windows = Clock.Ticker.windows ticker;
        rss = Host.peak_rss_mb pid;
      }
  end;
  let stats1 = if trace then Some (Served.stats_json sess) else None in
  if l.Served.failed > 0 then begin
    failed := !failed + l.Served.failed;
    failures := l.Served.first_failure :: !failures
  end;
  let model = Stream.state_after stream n in
  let bad = Served.verify srv.Served.addr model in
  if bad > 0 then fail (Printf.sprintf "%d keys differ from the model after the run" bad);
  let retries = Wire.Session.retries sess and reconnects = Wire.Session.reconnects sess in
  let backoff_ns = Wire.Session.backoff_ns sess and sid = Wire.Session.session_id sess in
  Wire.Session.close sess;
  if not (Served.stop srv) then fail "server did not drain on SIGTERM";
  (* The shadow: the same populate and the first [shadow_ops] ops of the
     same stream, in process, with the session record the server appends
     for each stamped put. It gives the simulated-clock and durable-heap
     figures, and its crash -> recover cycles the recovery figures. A
     fixed op count keeps them independent of how fast the server ran. *)
  let shadow = Inproc.create stream in
  let ex = Inproc.exec ~session:sid shadow stream in
  let before = Inproc.counts shadow in
  let tr = Inproc.traced () in
  let slat = Clock.Samples.create () in
  if trace then ignore (Inproc.run_traced ex tr spans ~count:shadow_ops ~deadline:max_int)
  else ignore (Inproc.run_plain ex ~lat:slat ~count:shadow_ops ~deadline:max_int);
  let after = Inproc.counts shadow in
  if not trace then report_store ex ~n:shadow_ops ~before ~after;
  let cycles =
    Inproc.crash_cycles ex ~probe ~spans ~state:(Stream.state_after stream shadow_ops) ~cycles
      ~batch ~seed
  in
  if not trace then report_recovery cycles
  else begin
    let a = Option.get alt in
    report_alt a;
    report_layers ex tr (Inproc.diff after before) ~n:shadow_ops ~cycles;
    let codec = report_codec stream in
    let nf = float_of_int (max 1 n) in
    let s0 = Option.get stats0 and s1 = Option.get stats1 in
    let dh name = Served.hist_sum s1 name -. Served.hist_sum s0 name in
    let queue_us = dh "stall.net_queue_ns" /. nf /. 1000.0 in
    server_metric "session.retries" (float_of_int retries);
    server_metric "session.reconnects" (float_of_int reconnects);
    server_metric "session.backoff_ms" (backoff_ns /. 1e6);
    server_metric "server.queue_wait_us" queue_us;
    List.iter
      (fun c -> server_metric ("server.stall." ^ c ^ "_ms") (dh ("stall." ^ c ^ "_ns") /. 1e6))
      [ "epoch_advance"; "extlog"; "alloc_slow" ];
    server_metric "server.dedup_hits"
      (Served.counter s1 "server.dedup_hits" -. Served.counter s0 "server.dedup_hits");
    server_metric "server.cpu_us_per_op" ((scpu1 -. scpu0) *. 1e6 /. nf);
    server_metric "server.ctx_switches_per_op" (float_of_int (ctx1 - ctx0) /. nf);
    server_metric "server.os_threads" (float_of_int threads);
    server_metric "server.rss_mb" server_rss;
    let store_us =
      (Clock.mean (Clock.Samples.to_array tr.Inproc.all) +. Clock.mean (Clock.Samples.to_array tr.route))
      /. 1000.0
    in
    server_metric "serve.unattributed_us"
      ((Clock.mean lat /. 1000.0) -. queue_us
      -. ((codec.Served.encode_ns +. codec.Served.decode_ns) /. 1000.0)
      -. store_us);
    report_ladder stream ~ops:200_000
  end;
  if ex.Inproc.failed > 0 then begin
    failed := !failed + ex.Inproc.failed;
    failures := ("shadow: " ^ ex.Inproc.first_failure) :: !failures
  end;
  { attempted = n + ex.Inproc.g; failed = !failed; failures = List.rev !failures }

(* ---- main ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let exe = ref "_build/default/bin/incll_server.exe" and dir = ref ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME store_write | store_read | serve_session");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1 per-layer traced run");
      ("--server", Arg.Set_string exe, "PATH incll_server executable");
      ("--out-dir", Arg.Set_string dir, "DIR reports, traces and sockets");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if not (Sys.file_exists !dir) then Unix.mkdir !dir 0o755;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let spans = Spans.create (if !trace then span_cap else 1) in
  let steal0, total0 = Host.cpu_jiffies () in
  let t0 = Clock.now () in
  let o =
    if w.served then
      served w ~seed:!seed ~seconds:!seconds ~trace:!trace ~spans ~exe:!exe ~dir:!dir
    else in_process w ~seed:!seed ~seconds:!seconds ~trace:!trace ~spans
  in
  let o =
    if !trace && not w.served then begin
      let layers, served_o =
        if w.serve_layers then
          Host.in_child (fun () ->
              metrics := [];
              let sw = List.find (fun w -> w.served) workloads in
              let so =
                served sw ~seed:!seed ~seconds:(!seconds /. 2.0) ~trace:true ~spans:(Spans.create 1)
                  ~exe:!exe ~dir:!dir
              in
              (List.rev (List.filter (fun (k, _, _) -> List.mem_assoc k server_metrics) !metrics), so))
        else
          ( List.map (fun (name, unit) -> (name, 0.0, unit)) server_metrics,
            { attempted = 0; failed = 0; failures = [] } )
      in
      metrics := List.rev_append layers !metrics;
      {
        attempted = o.attempted + served_o.attempted;
        failed = o.failed + served_o.failed;
        failures = o.failures @ served_o.failures;
      }
    end
    else o
  in
  let steal1, total1 = Host.cpu_jiffies () in
  let steal = ratio (steal1 - steal0) (total1 - total0) in
  let base = Printf.sprintf "%s/%s-seed%d-trace%d" !dir w.name !seed (if !trace then 1 else 0) in
  if !trace then Spans.write spans (base ^ ".trace.json");
  let probe_ms = Clock.median (Array.of_list !probes) /. 1e6 in
  let metrics =
    List.rev_map
      (fun (k, v, u) -> if k = "setup_s" then (k, scale_time v (int_of_float (probe_ms *. 1e6)), u) else (k, v, u))
      !metrics
  in
  let failed_frac = ratio o.failed o.attempted in
  let fingerprint =
    [
      ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ("steal_frac", Obs.Json.Float steal);
      ("probe_ms", Obs.Json.Float probe_ms);
      ("run_s", Obs.Json.Float (float_of_int (Clock.now () - t0) /. 1e9));
    ]
  in
  let open Obs.Json in
  let metrics_json =
    Obj (List.map (fun (k, v, u) -> (k, Obj [ ("value", Float v); ("unit", String u) ])) metrics)
  in
  let full =
    Obj
      ([
         ("workload", String w.name);
         ("seed", Int !seed);
         ("seconds", Float !seconds);
         ("trace", Bool !trace);
         ("host", Obj fingerprint);
         ("attempted", Int o.attempted);
         ("failed", Int o.failed);
         ("failed_frac", Float failed_frac);
         ("failures", List (List.map (fun s -> String s) o.failures));
         ("metrics", metrics_json);
       ]
      @ List.rev !notes)
  in
  let oc = open_out (base ^ ".report.json") in
  output_string oc (to_string_pretty full);
  close_out oc;
  Printf.printf "%s seed=%d seconds=%g trace=%b\n" w.name !seed !seconds !trace;
  Printf.printf "host: nproc=%d ocaml=%s steal_frac=%.3f probe_ms=%.3f (nominal %.1f)\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version steal probe_ms (probe_nominal_ns /. 1e6);
  List.iter (fun (k, v, u) -> Printf.printf "  %-32s %14.4f %s\n" k v u) metrics;
  List.iter (fun (k, v) -> Printf.printf "  %-32s %s\n" k (to_string v)) (List.rev !notes);
  Printf.printf "  %-32s %14.6f frac (%d of %d ops)\n" "failed_frac" failed_frac o.failed o.attempted;
  List.iter (fun f -> Printf.printf "  FAILURE: %s\n" f) o.failures;
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (o.failed = 0));
            ("attempted", Int o.attempted);
            ("failed", Int o.failed);
            ("metrics", metrics_json);
          ]))
