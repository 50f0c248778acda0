(* Driving a store in process: populate, the closed measured loop (plain
   and traced), crash -> recover cycles checked by the chaos oracle, and
   the MT / MT+ / LOGGING / INCLL replay ladder. *)

module St = Store.Sharded
module Sys_ = Incll.System
module Oracle = Chaos_runner.Oracle

let shards = 2

(* The configuration bin/incll_server.exe ships with: INCLL, 2 shards,
   64 MiB regions with Precise crash support, 4 MiB external log,
   throughput policy, 16 ms epochs. *)
let config =
  {
    Sys_.default_config with
    Sys_.nvm =
      Nvm.Config.with_policy
        {
          Nvm.Config.default with
          Nvm.Config.size_bytes = 64 * 1024 * 1024;
          extlog_bytes = 4096 * 1024;
        }
        Nvm.Config.Throughput;
    epoch_len_ns = 16e6;
  }

let populate store (stream : Stream.t) =
  Array.iter
    (fun k -> St.put store ~key:k ~value:(Workload.Ycsb.value_for k))
    stream.Stream.load;
  St.advance_epochs store

let create ?(variant = Sys_.Incll) stream =
  let store = St.create ~config variant ~shards in
  populate store stream;
  store

(* ---- window counters: sums over shards of public counters ---------- *)

type counts = {
  reads : int;
  writes : int;
  clwb : int;
  sfence : int;
  wbinvd_lines : int;
  evictions : int;
  sim_ns : float;
  logged : int;
  allocs : int;
  freelist_allocs : int;
  advances : int;
  incll_hit : int;
  incll_fallback : int;
  first_touch : int;
}

let counts store =
  let z =
    {
      reads = 0;
      writes = 0;
      clwb = 0;
      sfence = 0;
      wbinvd_lines = 0;
      evictions = 0;
      sim_ns = 0.0;
      logged = 0;
      allocs = 0;
      freelist_allocs = 0;
      advances = 0;
      incll_hit = 0;
      incll_fallback = 0;
      first_touch = 0;
    }
  in
  List.fold_left
    (fun c s ->
      let sys = St.shard store s in
      let st = Nvm.Region.stats (Sys_.region sys) in
      let reg = Sys_.metrics sys in
      let cv = Obs.Registry.counter_value reg in
      let da f = match Sys_.durable_alloc sys with Some d -> f d | None -> 0 in
      {
        reads = c.reads + st.Nvm.Stats.reads;
        writes = c.writes + st.writes;
        clwb = c.clwb + st.clwb;
        sfence = c.sfence + st.sfence;
        wbinvd_lines = c.wbinvd_lines + st.wbinvd_lines;
        evictions = c.evictions + st.evictions;
        sim_ns = c.sim_ns +. Nvm.Stats.sim_ns st;
        logged = c.logged + Sys_.nodes_logged sys;
        allocs = c.allocs + da Alloc.Durable.allocs;
        freelist_allocs = c.freelist_allocs + da Alloc.Durable.freelist_allocs;
        advances = c.advances + cv "epoch.advances";
        incll_hit = c.incll_hit + cv "incll_hit";
        incll_fallback = c.incll_fallback + cv "incll_fallback";
        first_touch = c.first_touch + cv "incll_first_touch";
      })
    z
    (List.init (St.nshards store) Fun.id)

let diff a b =
  {
    reads = a.reads - b.reads;
    writes = a.writes - b.writes;
    clwb = a.clwb - b.clwb;
    sfence = a.sfence - b.sfence;
    wbinvd_lines = a.wbinvd_lines - b.wbinvd_lines;
    evictions = a.evictions - b.evictions;
    sim_ns = a.sim_ns -. b.sim_ns;
    logged = a.logged - b.logged;
    allocs = a.allocs - b.allocs;
    freelist_allocs = a.freelist_allocs - b.freelist_allocs;
    advances = a.advances - b.advances;
    incll_hit = a.incll_hit - b.incll_hit;
    incll_fallback = a.incll_fallback - b.incll_fallback;
    first_touch = a.first_touch - b.first_touch;
  }

(* Durable-heap bytes handed out, over every shard. *)
let heap_bytes store =
  List.fold_left
    (fun acc s ->
      match Sys_.durable_alloc (St.shard store s) with
      | Some d -> acc + Alloc.Durable.bump_position d - Nvm.Layout.heap_off config.Sys_.nvm
      | None -> acc)
    0
    (List.init (St.nshards store) Fun.id)

(* ---- the closed loop --------------------------------------------------- *)

type exec = {
  store : St.t;
  stream : Stream.t;
  mutable ems : Epoch.Manager.t array;
  mutable g : int;  (** global stream position: ops completed *)
  mutable failed : int;
  mutable first_failure : string;
  session : int option;
      (** record a session dedup record after each put, as the server
          does for a stamped put (the served workload's shadow store) *)
  mutable seq : int;
}

let managers store =
  Array.init (St.nshards store) (fun s ->
      match Sys_.epoch_manager (St.shard store s) with
      | Some em -> em
      | None -> invalid_arg "Inproc: variant without epochs")

let exec ?session store stream =
  { store; stream; ems = managers store; g = 0; failed = 0; first_failure = ""; session; seq = 0 }

let fail ex msg =
  ex.failed <- ex.failed + 1;
  if ex.first_failure = "" then ex.first_failure <- msg

let check_get ex key got want =
  match got with
  | Some v when String.equal v want -> ()
  | Some v -> fail ex (Printf.sprintf "get %S returned %S, expected %S" key v want)
  | None -> fail ex (Printf.sprintf "get %S returned nothing, expected %S" key want)

let put ex key value =
  match ex.session with
  | None -> St.put ex.store ~key ~value
  | Some sid ->
      let sys = St.shard ex.store (St.shard_of_key ex.store key) in
      Sys_.put sys ~key ~value;
      ex.seq <- ex.seq + 1;
      Sys_.record_session sys ~sid ~seq:ex.seq
        ~status:(Wire.Proto.status_code Wire.Proto.Ok)
        (Incll.Session.Put { key; value })

(* Run until [count] more ops completed or the monotonic clock passes
   [deadline]; each op's call-to-return time goes to [lat]. Returns the
   time the last op returned. *)
let run_plain ?ticker ex ~lat ~count ~deadline =
  let s = ex.stream in
  let m = Stream.length s in
  let stop = if count > max_int - ex.g then max_int else ex.g + count in
  let last = ref (Clock.now ()) in
  while ex.g < stop && !last < deadline do
    let i = ex.g mod m in
    let key = Array.unsafe_get s.Stream.keys i in
    if Stream.is_put s i then begin
      let t0 = Clock.now () in
      put ex key (Array.unsafe_get s.vals i);
      let t1 = Clock.now () in
      Clock.Samples.add lat (t1 - t0);
      last := t1
    end
    else begin
      let t0 = Clock.now () in
      let got = St.get ex.store ~key in
      let t1 = Clock.now () in
      Clock.Samples.add lat (t1 - t0);
      last := t1;
      check_get ex key got (Stream.expected s ex.g)
    end;
    ex.g <- ex.g + 1;
    match ticker with Some tk -> Clock.Ticker.tick tk ~now:!last lat | None -> ()
  done;
  !last

(* Per-call samples of the traced loop, by the layer call they time. *)
type traced = {
  route : Clock.Samples.t;
  get : Clock.Samples.t;
  put : Clock.Samples.t;
  logged_put : Clock.Samples.t;  (** puts with >= 1 external-log append *)
  clean_put : Clock.Samples.t;  (** puts with none *)
  advance : Clock.Samples.t;  (** calls during which an epoch advanced *)
  all : Clock.Samples.t;  (** every system call *)
}

let traced () =
  let s () = Clock.Samples.create () in
  {
    route = s ();
    get = s ();
    put = s ();
    logged_put = s ();
    clean_put = s ();
    advance = s ();
    all = s ();
  }

(* The traced loop: spans around [store.route] and [system.<op>] on the
   routed shard, with the counter deltas of each system call. *)
let run_traced ex tr spans ~count ~deadline =
  let s = ex.stream in
  let m = Stream.length s in
  let stop = if count > max_int - ex.g then max_int else ex.g + count in
  let last = ref (Clock.now ()) in
  while ex.g < stop && !last < deadline do
    let i = ex.g mod m in
    let key = s.Stream.keys.(i) in
    let is_put = Stream.is_put s i in
    let t0 = Clock.now () in
    let sh = St.shard_of_key ex.store key in
    let t1 = Clock.now () in
    let sys = St.shard ex.store sh in
    let st = Nvm.Region.stats (Sys_.region sys) in
    let em = ex.ems.(sh) in
    let r0 = st.Nvm.Stats.reads and w0 = st.writes and c0 = st.clwb in
    let f0 = st.sfence and l0 = Sys_.nodes_logged sys in
    let e0 = Epoch.Manager.epochs_elapsed em in
    let got = ref None in
    let t2 = Clock.now () in
    (if is_put then begin
       let value = s.vals.(i) in
       Sys_.put sys ~key ~value;
       match ex.session with
       | None -> ()
       | Some sid ->
           ex.seq <- ex.seq + 1;
           Sys_.record_session sys ~sid ~seq:ex.seq
             ~status:(Wire.Proto.status_code Wire.Proto.Ok)
             (Incll.Session.Put { key; value })
     end
     else got := Sys_.get sys ~key);
    let t3 = Clock.now () in
    last := t3;
    let dr = st.reads - r0 and dl = Sys_.nodes_logged sys - l0 in
    let de = Epoch.Manager.epochs_elapsed em - e0 in
    let d = t3 - t2 in
    let op = Spans.add spans ~name:"op" ~start:t0 ~stop:t3 ~parent:(-1) ~op:ex.g in
    ignore (Spans.add spans ~name:"store.route" ~start:t0 ~stop:t1 ~parent:op ~op:ex.g);
    let sp =
      Spans.add spans
        ~name:(if is_put then "system.put" else "system.get")
        ~start:t2 ~stop:t3 ~parent:op ~op:ex.g
    in
    Spans.set_delta spans sp 0 dr;
    Spans.set_delta spans sp 1 (st.writes - w0);
    Spans.set_delta spans sp 2 (st.clwb - c0);
    Spans.set_delta spans sp 3 (st.sfence - f0);
    Spans.set_delta spans sp 4 dl;
    Spans.set_delta spans sp 5 de;
    Clock.Samples.add tr.route (t1 - t0);
    Clock.Samples.add tr.all d;
    if de <> 0 then Clock.Samples.add tr.advance d;
    if is_put then begin
      Clock.Samples.add tr.put d;
      Clock.Samples.add (if dl > 0 then tr.logged_put else tr.clean_put) d
    end
    else begin
      Clock.Samples.add tr.get d;
      check_get ex key !got (Stream.expected s ex.g)
    end;
    ex.g <- ex.g + 1
  done;
  !last

(* ---- oracle and crash -> recover cycles ------------------------------ *)

type cycle = {
  wall_ms : float;
  sim_ms : float;
  phases : (string * float) list;  (** simulated ns *)
  replayed : int;
  lazy_get_ns : float;  (** median of the first gets after recovery *)
  probe_ns : int;  (** mean of the host-speed probes around the recovery *)
}

let persisted_epoch store s =
  Int64.to_int
    (Nvm.Region.read_i64 (Sys_.region (St.shard store s)) Nvm.Layout.off_durable_epoch)

let lazy_gets = 256

(* [cycles] times: a checkpoint, [batch] more stream ops (untimed,
   recorded in the oracle first, gets checked against the live model), a
   crash, a timed recovery, [lazy_gets] timed gets, then the oracle check
   of the whole store. The checkpoint before each batch makes every crash
   invalidate a comparable epoch, so the recoveries do comparable work.
   [state] is the store's content when the cycles start (the oracle's
   base: a checkpoint precedes every crash).

   A put stamped with a session record is durable once its call returns:
   recovery redoes it from the record instead of rolling it back with its
   epoch. The oracle models that as a committed transactional write, so
   such puts are recorded under a transaction id (their stream position)
   that the post-crash [committed] predicate accepts. *)
let crash_cycles ex ~probe ~spans ~state ~cycles ~batch ~seed =
  let store = ex.store and s = ex.stream in
  let m = Stream.length s in
  let rng = Util.Rng.create ~seed:(seed lxor 0xc4a5) in
  let oracle = Oracle.create () in
  let record key value =
    let shard = St.shard_of_key store key and op = Oracle.Put { key; value } in
    match ex.session with
    | None -> Oracle.record oracle ~shard op
    | Some _ -> Oracle.record oracle ~txn:ex.g ~shard op
  in
  Hashtbl.iter
    (fun key value -> Oracle.record oracle ~shard:(St.shard_of_key store key) (Oracle.Put { key; value }))
    state;
  let model = Hashtbl.copy state in
  let sync () =
    Array.iteri
      (fun sh em -> Oracle.mark_epoch oracle ~shard:sh ~epoch:(Epoch.Manager.current em))
      ex.ems
  in
  List.init cycles (fun _ ->
      St.advance_epochs store;
      sync ();
      for _ = 1 to batch do
        let i = ex.g mod m in
        let key = s.Stream.keys.(i) in
        if Stream.is_put s i then begin
          let value = s.vals.(i) in
          record key value;
          put ex key value;
          Hashtbl.replace model key value
        end
        else check_get ex key (St.get store ~key) (Hashtbl.find model key);
        ex.g <- ex.g + 1;
        sync ()
      done;
      St.crash store rng;
      let boundary =
        Array.init (St.nshards store) (fun sh ->
            Oracle.boundary_at oracle ~shard:sh ~crashed_epoch:(persisted_epoch store sh))
      in
      let p0 = probe () in
      let t0 = Clock.now () in
      let phases = St.recover store in
      let t1 = Clock.now () in
      let probe_ns = (p0 + probe ()) / 2 in
      ignore (Spans.add spans ~name:"recover" ~start:t0 ~stop:t1 ~parent:(-1) ~op:ex.g);
      let replayed =
        List.fold_left
          (fun acc sh ->
            match Sys_.last_recover_stats (St.shard store sh) with
            | Some r -> acc + r.Sys_.replayed_entries
            | None -> acc)
          0
          (List.init (St.nshards store) Fun.id)
      in
      let lat =
        Array.init lazy_gets (fun j ->
            let key = s.keys.((ex.g + (j * 7919)) mod m) in
            let t0 = Clock.now () in
            ignore (St.get store ~key);
            Clock.now () - t0)
      in
      Oracle.compact oracle ~boundary:(fun sh -> boundary.(sh)) ~committed:(fun _ -> ex.session <> None);
      (match Oracle.check oracle ~get:(fun key -> St.get store ~key) ~cardinal:(St.cardinal store) with
      | Ok _ -> ()
      | Error msg -> fail ex ("oracle after recovery: " ^ msg));
      Hashtbl.reset model;
      Hashtbl.iter (Hashtbl.replace model) (Oracle.replay oracle);
      ex.ems <- managers store;
      {
        wall_ms = float_of_int (t1 - t0) /. 1e6;
        sim_ms = List.fold_left (fun a (_, ns) -> a +. ns) 0.0 phases /. 1e6;
        phases;
        replayed;
        lazy_get_ns = Clock.median lat;
        probe_ns;
      })

(* ---- MT / MT+ / LOGGING / INCLL ladder --------------------------------- *)

type rung = {
  variant : Sys_.variant;
  ns_per_op : float;
  get_ns : float;
  put_ns : float;
  reads_per_get : float;
}

(* Replay the first [ops] ops of the stream on a fresh store of
   [variant], timing every call. *)
let rung (stream : Stream.t) ~ops variant =
  let store = create ~variant stream in
  let m = Stream.length stream in
  let gets = Clock.Samples.create () and puts = Clock.Samples.create () in
  let reads = ref 0 and ngets = ref 0 and total = ref 0 in
  for g = 0 to ops - 1 do
    let i = g mod m in
    let key = stream.keys.(i) in
    if Stream.is_put stream i then begin
      let t0 = Clock.now () in
      St.put store ~key ~value:stream.vals.(i);
      let d = Clock.now () - t0 in
      total := !total + d;
      Clock.Samples.add puts d
    end
    else begin
      let st = Nvm.Region.stats (Sys_.region (St.shard store (St.shard_of_key store key))) in
      let r0 = st.Nvm.Stats.reads in
      let t0 = Clock.now () in
      ignore (St.get store ~key);
      let d = Clock.now () - t0 in
      total := !total + d;
      reads := !reads + st.reads - r0;
      incr ngets;
      Clock.Samples.add gets d
    end
  done;
  {
    variant;
    ns_per_op = float_of_int !total /. float_of_int ops;
    get_ns = Clock.median (Clock.Samples.to_array gets);
    put_ns = Clock.median (Clock.Samples.to_array puts);
    reads_per_get = float_of_int !reads /. float_of_int (max 1 !ngets);
  }
