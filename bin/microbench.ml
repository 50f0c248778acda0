(* Raw wall-clock microbenchmark of the NVM simulator's hot paths.

   Unlike bench/main.exe (which reports *simulated*-clock throughput),
   this tool measures how fast the simulator itself runs on the host:
   stores/s and loads/s against a raw region (Counting mode, plus one
   Precise-mode row that records every store for crash injection),
   put/get Mops through the full YCSB-A stack, and the allocation rate
   of each loop (via Gc.allocated_bytes). It exists so that wall-clock regressions of the
   simulator are visible next to the simulated-throughput gate of
   bin/bench_compare.

   Usage: microbench [options]
     --stores N    raw store/load iterations          (default 2_000_000)
     --spans N     16-byte unaligned span stores      (default 500_000)
     --keys N      YCSB-A key-space size              (default 20_000)
     --ops N       YCSB-A operations per thread       (default 20_000)
     --threads N   YCSB-A worker domains / shards     (default 2)
     --seed N      workload seed                      (default 1)
     --json FILE   write a machine-readable report
     --min-mops F  exit 1 if the YCSB-A wall-clock Mops falls below F
                   (0 = report only; used by the CI smoke gate)
     --max-alloc-bytes B
                   exit 1 if the YCSB-A row allocates more than B bytes per
                   op (0 = report only). Unlike wall time, allocation per
                   op is deterministic for a seeded stream, so this gate
                   can sit close to the achieved value (DESIGN.md §11).

   The simulated counters (writes/reads/clwb/sfence/sim_ns) of the
   YCSB-A section are included in the report: two builds that disagree
   there are not comparable (the memory-event stream itself changed). *)

module R = Bench_harness.Runner
module Y = Workload.Ycsb

type opts = {
  mutable stores : int;
  mutable spans : int;
  mutable keys : int;
  mutable ops : int;
  mutable threads : int;
  mutable seed : int;
  mutable json_file : string option;
  mutable min_mops : float;
  mutable max_alloc_bytes : float;
}

let opts =
  {
    stores = 2_000_000;
    spans = 500_000;
    keys = 20_000;
    ops = 20_000;
    threads = 2;
    seed = 1;
    json_file = None;
    min_mops = 0.0;
    max_alloc_bytes = 0.0;
  }

let usage () =
  print_endline
    "usage: microbench [--stores N] [--spans N] [--keys N] [--ops N]\n\
     \                  [--threads N] [--seed N] [--json FILE] [--min-mops F]\n\
     \                  [--max-alloc-bytes B]";
  exit 2

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--stores" :: v :: rest ->
        opts.stores <- int_of_string v;
        go rest
    | "--spans" :: v :: rest ->
        opts.spans <- int_of_string v;
        go rest
    | "--keys" :: v :: rest ->
        opts.keys <- int_of_string v;
        go rest
    | "--ops" :: v :: rest ->
        opts.ops <- int_of_string v;
        go rest
    | "--threads" :: v :: rest ->
        opts.threads <- int_of_string v;
        go rest
    | "--seed" :: v :: rest ->
        opts.seed <- int_of_string v;
        go rest
    | "--json" :: v :: rest ->
        opts.json_file <- Some v;
        go rest
    | "--min-mops" :: v :: rest ->
        opts.min_mops <- float_of_string v;
        go rest
    | "--max-alloc-bytes" :: v :: rest ->
        opts.max_alloc_bytes <- float_of_string v;
        go rest
    | ("--help" | "-h") :: _ -> usage ()
    | x :: _ ->
        prerr_endline ("microbench: unknown argument " ^ x);
        usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

(* ------------------------------------------------------------- harness *)

type sample = {
  bench : string;
  iters : int;
  wall_s : float;
  alloc_bytes : float;  (* minor+major words allocated, in bytes *)
  sim_ns : float;  (* simulated time charged by the loop *)
}

let results : sample list ref = ref []

let mops s = float_of_int s.iters /. s.wall_s /. 1e6

let report s =
  results := s :: !results;
  Printf.printf "  %-24s %9.2f ns/op  %7.2f Mops  %8.1f B/op alloc\n%!"
    s.bench
    (s.wall_s *. 1e9 /. float_of_int s.iters)
    (mops s)
    (s.alloc_bytes /. float_of_int s.iters)

(* Run [f iters] once to warm up (10% of the budget), then measured. *)
let time ~bench ~iters ~sim_of f =
  f (max 1 (iters / 10));
  let sim0 = sim_of () in
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  f iters;
  let t1 = Unix.gettimeofday () in
  let a1 = Gc.allocated_bytes () in
  report
    {
      bench;
      iters;
      wall_s = Float.max (t1 -. t0) 1e-9;
      alloc_bytes = a1 -. a0;
      sim_ns = sim_of () -. sim0;
    }

(* --------------------------------------------------------- raw region *)

let region_mb = 8

let fresh_region () =
  Nvm.Region.create
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = region_mb * 1024 * 1024;
      extlog_bytes = 1024 * 1024;
      crash_support = Nvm.Config.Counting;
    }

let raw_benches () =
  Printf.printf "raw region (Counting mode, %d MiB):\n" region_mb;
  let size = region_mb * 1024 * 1024 in
  let lo = 4096 in
  let hi = size - 4096 in
  (* Sequential sweep: a fresh line every 8 stores, so the LLC model is
     exercised; the hot variant re-stores a 64-line working set. *)
  let region = fresh_region () in
  let sim_of () = Nvm.Stats.sim_ns (Nvm.Region.stats region) in
  let addr = ref lo in
  time ~bench:"store_i64 seq" ~iters:opts.stores ~sim_of (fun n ->
      for _ = 1 to n do
        addr := (if !addr >= hi then lo else !addr + 8);
        Nvm.Region.write_i64 region !addr 0x5eed_f00d_dead_beefL
      done);
  time ~bench:"store_i64 hot64" ~iters:opts.stores ~sim_of (fun n ->
      for i = 1 to n do
        Nvm.Region.write_i64 region (lo + (i land 511) * 8)
          0x0123_4567_89ab_cdefL
      done);
  time ~bench:"load_i64 seq" ~iters:opts.stores ~sim_of (fun n ->
      let acc = ref 0L in
      for _ = 1 to n do
        addr := (if !addr >= hi then lo else !addr + 8);
        acc := Int64.add !acc (Nvm.Region.read_i64 region !addr)
      done;
      ignore (Sys.opaque_identity !acc));
  (* Unaligned 16-byte spans: the multi-line split path that value writes
     take (values are not 8-aligned in the tree heap). *)
  let payload = Bytes.make 16 'x' in
  time ~bench:"write_bytes 16B" ~iters:opts.spans ~sim_of (fun n ->
      for i = 1 to n do
        Nvm.Region.write_bytes region (lo + 3 + (i land 4095) * 24) payload
      done);
  time ~bench:"read_bytes 16B" ~iters:opts.spans ~sim_of (fun n ->
      for i = 1 to n do
        ignore
          (Sys.opaque_identity
             (Nvm.Region.read_bytes region
                (lo + 3 + (i land 4095) * 24)
                ~len:16))
      done)

(* Precise mode records every store for crash injection: random words
   over a region far larger than the simulated LLC, flushed by a wbinvd
   every [precise_flush_every] stores as an epoch checkpoint would. *)
let precise_mb = 64
let precise_flush_every = 16_384

let precise_bench () =
  Printf.printf "raw region (Precise mode, %d MiB, wbinvd every %d stores):\n"
    precise_mb precise_flush_every;
  let size = precise_mb * 1024 * 1024 in
  let region =
    Nvm.Region.create
      {
        Nvm.Config.default with
        Nvm.Config.size_bytes = size;
        extlog_bytes = 1024 * 1024;
        crash_support = Nvm.Config.Precise;
      }
  in
  let sim_of () = Nvm.Stats.sim_ns (Nvm.Region.stats region) in
  let words = size / 8 in
  let x = ref opts.seed in
  time ~bench:"store_i64 rand precise" ~iters:opts.stores ~sim_of (fun n ->
      for i = 1 to n do
        (* LCG mod 2^63; the high bits pick the word. *)
        x := (!x * 0x2545F4914F6CDD1D) + 1;
        Nvm.Region.write_i64 region (8 * ((!x lsr 20) mod words)) 0x5eedL;
        if i mod precise_flush_every = 0 then Nvm.Region.wbinvd region
      done)

(* -------------------------------------------------------------- ycsb-a *)

let ycsb_counters = ref []
let ycsb_alloc_per_op = ref 0.0

let ycsb_bench () =
  Printf.printf
    "YCSB-A through the full INCLL stack (%d keys, %d threads x %d ops):\n"
    opts.keys opts.threads opts.ops;
  let r =
    R.run ~seed:opts.seed ~threads:opts.threads ~ops_per_thread:opts.ops
      ~variant:Incll.System.Incll ~mix:Y.A ~dist:Y.Uniform ~nkeys:opts.keys ()
  in
  let s =
    {
      bench = "ycsb_a put/get";
      iters = r.R.ops;
      wall_s = Float.max r.R.wall_s 1e-9;
      (* The measured window only, summed over the worker domains. *)
      alloc_bytes = r.R.alloc_bytes;
      sim_ns = r.R.sim_total_s *. 1e9;
    }
  in
  report s;
  ycsb_alloc_per_op := s.alloc_bytes /. float_of_int s.iters;
  Printf.printf
    "  %-24s counters: writes=%d reads=%d clwb=%d sfence=%d sim_ns=%.0f\n%!"
    "" r.R.writes r.R.reads r.R.clwbs r.R.sfences (r.R.sim_total_s *. 1e9);
  ycsb_counters :=
    [
      ("writes", Obs.Json.Int r.R.writes);
      ("reads", Obs.Json.Int r.R.reads);
      ("clwb", Obs.Json.Int r.R.clwbs);
      ("sfence", Obs.Json.Int r.R.sfences);
      ("wbinvd", Obs.Json.Int r.R.wbinvds);
      ("sim_ns", Obs.Json.Float (r.R.sim_total_s *. 1e9));
      ("mops_sim", Obs.Json.Float r.R.mops_sim);
    ];
  mops s

(* ---------------------------------------------------------------- json *)

let write_json path ~ycsb_mops =
  let sample_json s =
    Obs.Json.Obj
      [
        ("iters", Obs.Json.Int s.iters);
        ("wall_s", Obs.Json.Float s.wall_s);
        ("mops_wall", Obs.Json.Float (mops s));
        ( "ns_per_op",
          Obs.Json.Float (s.wall_s *. 1e9 /. float_of_int s.iters) );
        ( "alloc_bytes_per_op",
          Obs.Json.Float (s.alloc_bytes /. float_of_int s.iters) );
        ("sim_ns", Obs.Json.Float s.sim_ns);
      ]
  in
  let j =
    Obs.Json.Obj
      [
        ( "meta",
          Obs.Json.Obj
            [
              ("schema_version", Obs.Json.Int 1);
              ("stores", Obs.Json.Int opts.stores);
              ("spans", Obs.Json.Int opts.spans);
              ("keys", Obs.Json.Int opts.keys);
              ("ops_per_thread", Obs.Json.Int opts.ops);
              ("threads", Obs.Json.Int opts.threads);
              ("seed", Obs.Json.Int opts.seed);
            ] );
        ( "benches",
          Obs.Json.Obj
            (List.rev_map (fun s -> (s.bench, sample_json s)) !results) );
        ("ycsb_counters", Obs.Json.Obj !ycsb_counters);
        ("ycsb_mops_wall", Obs.Json.Float ycsb_mops);
      ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string_pretty j);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  [json: %s]\n" path

let () =
  parse_args ();
  print_endline "NVM simulator wall-clock microbenchmark";
  raw_benches ();
  precise_bench ();
  let ycsb_mops = ycsb_bench () in
  (match opts.json_file with
  | Some path -> write_json path ~ycsb_mops
  | None -> ());
  if opts.min_mops > 0.0 && ycsb_mops < opts.min_mops then begin
    Printf.eprintf
      "microbench: YCSB-A wall-clock %.2f Mops below the --min-mops %.2f gate\n"
      ycsb_mops opts.min_mops;
    exit 1
  end;
  if opts.max_alloc_bytes > 0.0 && !ycsb_alloc_per_op > opts.max_alloc_bytes
  then begin
    Printf.eprintf
      "microbench: YCSB-A allocates %.1f B/op, above the --max-alloc-bytes \
       %.1f gate\n"
      !ycsb_alloc_per_op opts.max_alloc_bytes;
    exit 1
  end
