type addr = int

type t = {
  cfg : Config.t;
  nlines : int;
  (* Hot-path copies of configuration the fast paths read on every store
     and load. All immutable after [create]: chasing [cfg.cost.field]
     through two records per memory access was measurable (see
     bin/microbench.ml), so the fields are hoisted once here. *)
  size_bytes : int;
  is_precise : bool;
  max_dirty : int;  (* [max_dirty_lines], with [None] as [max_int] *)
  max_line_log_bytes : int;
  op_base_ns : float;
  write_ns : float;
  read_ns : float;
  mem_miss_ns : float;
  clwb_ns : float;
  volatile : Bytes.t;
  persisted : Bytes.t;  (* unused (length 0) in Counting mode *)
  (* Per-line bookkeeping, two ints per line so one host cache line holds
     all of it: [lines.(2l)] is line [l]'s index in [dirty_list], -1 when
     clean; [lines.(2l+1)] is its packed store-log word (Precise mode, 0
     when it has no pending store; see "store log" below). *)
  lines : int array;
  dirty_list : Util.Ivec.t;  (* line ids, unordered *)
  (* Precise mode: the region-wide store log and the compaction target,
     both arrays of [chunk_bytes] chunks (allocated on first use). *)
  mutable log : Bytes.t array;
  mutable spare : Bytes.t array;
  mutable log_pos : int;  (* bytes of log in use, garbage included *)
  mutable log_live : int;
      (* header + unpadded payload bytes on dirty chains: padding counts as
         garbage *)
  mutable walk : int array;  (* scratch: one chain's entry positions *)
  pending_wb : Util.Ivec.t;  (* lines clwb'd since the last sfence *)
  wb_pending : Bytes.t;  (* one byte per line: 1 iff in pending_wb *)
  evict_rng : Util.Rng.t;
  stats : Stats.t;
  metrics : Obs.Registry.t;
  trace : Obs.Trace.t;
  spans : Obs.Span.t;
  series_tbl : (string, Obs.Series.t) Hashtbl.t;
  stalls : Obs.Stall.t;  (* attributed stall intervals, simulated clock *)
  h_sfence : Obs.Histogram.t;  (* per-sfence latency, ns *)
  h_wbinvd : Obs.Histogram.t;  (* per-wbinvd latency, ns *)
  h_sweep : Obs.Histogram.t;  (* per-sweep-quantum latency, ns *)
  mutable sfence_extra_ns : float;  (* runtime-adjustable emulated latency *)
  mutable sfence_cost : float;
      (* [sfence_ns + sfence_extra_ns], kept boxed so an sfence passes it
         on without allocating *)
  mutable split_top : int;  (* top 16 bits of the last [read_split] word *)
  (* Direct-mapped LLC tag array: models capacity misses so locality has a
     price. Tag slots hold line ids (+1; 0 = empty). *)
  llc_tags : int array;
  llc_mask : int;
  (* Optional file-backed shadow of the persisted image (a shared mmap).
     Because the mapping is MAP_SHARED, bytes written here live in the
     kernel page cache and survive the process being SIGKILLed — the
     cross-process analogue of NVM outliving a power failure. Only the
     persisted image is mirrored, and only at the instants it changes, so
     the file always holds exactly what a crash would leave behind. *)
  mutable mirror :
    (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
    option;
}

let line_of_addr addr = addr lsr Config.line_shift
let same_line a b = line_of_addr a = line_of_addr b

let precise t = t.is_precise

(* --- store log (Precise mode) -------------------------------------------

   PCSO (§2.1) lets a crash persist any program-order prefix of each dirty
   line's stores since its last write-back. Every Precise-mode store is
   appended to one region-wide log, written in [chunk_bytes] chunks. An
   entry is an 8-byte header (the word position of the same line's previous
   entry, the line offset, the length) followed by the payload padded to 8
   bytes; no entry straddles a chunk. A line's log word packs its newest
   entry's word position, its entry count and its payload bytes, so its
   stores form a chain that the crash path walks back and applies
   oldest-first.

   Committing a line only zeroes its word, which turns its entries into
   garbage. The log position returns to 0 whenever no line is dirty (after
   a wbinvd, a drained sweep, a crash); when garbage outgrows the live
   entries the dirty lines' chains are copied into [spare], which then
   becomes the log. Both chunk arrays are kept, so a region in steady state
   allocates nothing. *)

let chunk_shift = 20
let chunk_bytes = 1 lsl chunk_shift
let chunk_mask = chunk_bytes - 1

(* Word positions take the log word's top 30 bits: an 8 GiB log. *)
let max_chunks = 1 lsl (30 + 3 - chunk_shift)

(* The payload-byte and count fields are 16 bits. A line is evicted once
   its payload exceeds [max_line_log_bytes], so the field must hold that
   bound plus one more store of up to a line. *)
let max_line_log_bytes_limit = 0xffff - Config.line_size

let word_count w = (w lsr 16) land 0xffff
let word_bytes w = w land 0xffff
let word_newest w = (w lsr 32) lsl 3
let entry_bytes len = 8 + ((len + 7) land lnot 7)

(* Header: previous entry's word position, then 6 bits of offset and 7 of
   length (1..64). *)
let make_header ~prev_word ~off ~len = (prev_word lsl 13) lor (off lsl 7) lor len
let header_prev h = (h lsr 13) lsl 3
let header_off h = (h lsr 7) land 0x3f
let header_len h = h land 0x7f
let header chunk o = Int64.to_int (Bytes.get_int64_le chunk o)
let set_header chunk o h = Bytes.set_int64_le chunk o (Int64.of_int h)

(* First position at or after [pos] where [e] bytes fit in one chunk. *)
let place pos e =
  if (pos land chunk_mask) + e <= chunk_bytes then pos
  else (pos lor chunk_mask) + 1

(* [chunks] with chunk [i] allocated, grown if needed. *)
let with_chunk chunks i =
  let chunks =
    if i < Array.length chunks then chunks
    else begin
      if i >= max_chunks then failwith "Region: store log exceeds 8 GiB";
      let a = Array.make (max (i + 1) (2 * Array.length chunks)) Bytes.empty in
      Array.blit chunks 0 a 0 (Array.length chunks);
      a
    end
  in
  if Bytes.length chunks.(i) = 0 then chunks.(i) <- Bytes.create chunk_bytes;
  chunks

(* Fill [t.walk.(0 .. n-1)] with the positions of the [n] entries on the
   chain of log word [w], newest first; returns [n]. *)
let walk_chain t w =
  let n = word_count w in
  if Array.length t.walk < n then
    t.walk <- Array.make (max n (2 * Array.length t.walk)) 0;
  let pos = ref (word_newest w) in
  for i = 0 to n - 1 do
    t.walk.(i) <- !pos;
    let h = header t.log.(!pos lsr chunk_shift) (!pos land chunk_mask) in
    pos := header_prev h
  done;
  n

(* Copy every dirty line's chain, oldest entry first, into [spare] and
   make it the log: afterwards only padding is garbage. *)
let compact t =
  let dst = ref 0 in
  Util.Ivec.iter
    (fun line ->
      let wi = (2 * line) + 1 in
      let w = t.lines.(wi) in
      let prev = ref 0 in
      for i = walk_chain t w - 1 downto 0 do
        let sp = t.walk.(i) in
        let src = t.log.(sp lsr chunk_shift) and so = sp land chunk_mask in
        let h = header src so in
        let e = entry_bytes (header_len h) in
        let pos = place !dst e in
        t.spare <- with_chunk t.spare (pos lsr chunk_shift);
        let d = t.spare.(pos lsr chunk_shift) and o = pos land chunk_mask in
        set_header d o
          (make_header ~prev_word:!prev ~off:(header_off h) ~len:(header_len h));
        Bytes.blit src (so + 8) d (o + 8) (e - 8);
        prev := pos lsr 3;
        dst := pos + e
      done;
      t.lines.(wi) <- (!prev lsl 32) lor (w land 0xffff_ffff))
    t.dirty_list;
  let log = t.log in
  t.log <- t.spare;
  t.spare <- log;
  t.log_pos <- !dst

let log_append t line ~off ~src ~src_pos ~len =
  if t.log_pos > chunk_bytes && t.log_pos - t.log_live > t.log_live then
    compact t;
  let e = entry_bytes len in
  let pos = place t.log_pos e in
  let ci = pos lsr chunk_shift in
  if ci >= Array.length t.log || Bytes.length (Array.unsafe_get t.log ci) = 0
  then t.log <- with_chunk t.log ci;
  let chunk = Array.unsafe_get t.log ci and o = pos land chunk_mask in
  let wi = (2 * line) + 1 in
  let w = Array.unsafe_get t.lines wi in
  set_header chunk o (make_header ~prev_word:(w lsr 32) ~off ~len);
  Bytes.blit src src_pos chunk (o + 8) len;
  (* Count and byte fields cannot carry: [create] bounds the byte count. *)
  Array.unsafe_set t.lines wi
    (((pos lsr 3) lsl 32) lor ((w + 0x10000 + len) land 0xffff_ffff));
  t.log_pos <- pos + e;
  t.log_live <- t.log_live + 8 + len

(* Apply the oldest [k] entries of log word [w] to the persisted line at
   byte [dst]. *)
let apply_prefix t w ~k ~dst =
  let n = walk_chain t w in
  for i = n - 1 downto n - k do
    let pos = t.walk.(i) in
    let chunk = t.log.(pos lsr chunk_shift) and o = pos land chunk_mask in
    let h = header chunk o in
    Bytes.blit chunk (o + 8) t.persisted (dst + header_off h) (header_len h)
  done

let create (cfg : Config.t) =
  if cfg.size_bytes <= 0 || cfg.size_bytes land (Config.line_size - 1) <> 0
  then invalid_arg "Region.create: size must be a positive multiple of 64";
  if cfg.max_line_log_bytes > max_line_log_bytes_limit then
    invalid_arg
      (Printf.sprintf
         "Region.create: max_line_log_bytes %d exceeds %d, the largest the \
          packed per-line byte count can hold"
         cfg.max_line_log_bytes max_line_log_bytes_limit);
  let nlines = cfg.size_bytes / Config.line_size in
  let metrics = Obs.Registry.create () in
  let stats = Stats.create () in
  let trace = Obs.Trace.create ~capacity:cfg.trace_capacity () in
  let spans =
    Obs.Span.create ~registry:metrics ~trace
      ~wall_clock:(fun () -> Unix.gettimeofday () *. 1e9)
      ~clock:(fun () -> Stats.sim_ns stats)
      ()
  in
  {
    cfg;
    nlines;
    size_bytes = cfg.size_bytes;
    is_precise = cfg.crash_support = Config.Precise;
    max_dirty = Option.value cfg.max_dirty_lines ~default:max_int;
    max_line_log_bytes = cfg.max_line_log_bytes;
    op_base_ns = cfg.cost.Config.op_base_ns;
    write_ns = cfg.cost.Config.write_ns;
    read_ns = cfg.cost.Config.read_ns;
    mem_miss_ns = cfg.cost.Config.mem_miss_ns;
    clwb_ns = cfg.cost.Config.clwb_ns;
    volatile = Bytes.make cfg.size_bytes '\000';
    persisted =
      (match cfg.crash_support with
      | Config.Precise -> Bytes.make cfg.size_bytes '\000'
      | Config.Counting -> Bytes.create 0);
    lines = Array.init (2 * nlines) (fun i -> if i land 1 = 0 then -1 else 0);
    dirty_list = Util.Ivec.create ~capacity:1024 ();
    log = [||];
    spare = [||];
    log_pos = 0;
    log_live = 0;
    walk = Array.make 64 0;
    pending_wb = Util.Ivec.create ~capacity:64 ();
    wb_pending = Bytes.make nlines '\000';
    evict_rng = Util.Rng.create ~seed:0x5eed_ca5e;
    stats;
    metrics;
    trace;
    spans;
    series_tbl = Hashtbl.create 8;
    stalls = Obs.Stall.create ~registry:metrics ~clock:stats.Stats.clock ();
    h_sfence = Obs.Registry.histogram metrics "nvm.sfence_ns";
    h_wbinvd = Obs.Registry.histogram metrics "nvm.wbinvd_ns";
    h_sweep = Obs.Registry.histogram metrics "nvm.sweep_ns";
    sfence_extra_ns = cfg.cost.Config.sfence_extra_ns;
    sfence_cost = cfg.cost.Config.sfence_ns +. cfg.cost.Config.sfence_extra_ns;
    split_top = 0;
    (* 2^18 slots x 64 B = a 16 MiB simulated LLC. *)
    llc_tags = Array.make 262144 0;
    llc_mask = 262143;
    mirror = None;
  }

(* --- persisted-image mirror ------------------------------------------- *)

let mirror_line t line =
  match t.mirror with
  | None -> ()
  | Some m ->
      let pos = line * Config.line_size in
      for i = 0 to Config.line_size - 1 do
        Bigarray.Array1.unsafe_set m (pos + i)
          (Bytes.unsafe_get t.persisted (pos + i))
      done

let mirror_all t =
  match t.mirror with
  | None -> ()
  | Some m ->
      for i = 0 to Bytes.length t.persisted - 1 do
        Bigarray.Array1.unsafe_set m i (Bytes.unsafe_get t.persisted i)
      done

let config t = t.cfg
let stats t = t.stats
let metrics t = t.metrics
let stalls t = t.stalls
let trace t = t.trace
let spans t = t.spans

let tracing t = Obs.Trace.enabled t.trace

let trace_event t payload =
  Obs.Trace.record t.trace ~ts_ns:(Stats.sim_ns t.stats) payload

let series t name =
  match Hashtbl.find_opt t.series_tbl name with
  | Some s -> s
  | None ->
      let s = Obs.Series.create ~name () in
      Hashtbl.add t.series_tbl name s;
      s

let all_series t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.series_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
let size t = t.cfg.Config.size_bytes
let dirty_line_count t = Util.Ivec.length t.dirty_list
let is_dirty_line t line = t.lines.(2 * line) >= 0
let store_log_bytes t = t.log_pos

(* --- dirty tracking ------------------------------------------------- *)

(* Drop [line] (at [dirty_list] index [idx]) from the dirty set. The log
   is empty once no line is dirty, so its position restarts at 0. *)
let remove_dirty t line idx =
  let moved = Util.Ivec.swap_remove t.dirty_list idx in
  if moved >= 0 then t.lines.(2 * moved) <- idx;
  t.lines.(2 * line) <- -1;
  if Util.Ivec.length t.dirty_list = 0 then begin
    t.log_pos <- 0;
    t.log_live <- 0
  end

let commit_line t line =
  let idx = t.lines.(2 * line) in
  if idx >= 0 then begin
    if precise t then begin
      let pos = line * Config.line_size in
      Bytes.blit t.volatile pos t.persisted pos Config.line_size;
      mirror_line t line;
      let w = t.lines.((2 * line) + 1) in
      t.log_live <- t.log_live - (8 * word_count w) - word_bytes w;
      t.lines.((2 * line) + 1) <- 0
    end;
    remove_dirty t line idx;
    t.stats.Stats.lines_committed <- t.stats.Stats.lines_committed + 1
  end

let evict_some t =
  (* [commit_line] removes exactly one dirty line per call, so the count
     can be threaded through the loop instead of re-read from the vector
     each iteration (the RNG consumes the same bound sequence either
     way). *)
  let n = dirty_line_count t in
  if n > 0 then begin
    let batch = min t.cfg.Config.evict_batch n in
    let remaining = ref n in
    for _ = 1 to batch do
      let victim =
        Util.Ivec.get t.dirty_list (Util.Rng.int t.evict_rng !remaining)
      in
      commit_line t victim;
      decr remaining;
      t.stats.Stats.evictions <- t.stats.Stats.evictions + 1
    done
  end

let mark_dirty t line =
  if Array.unsafe_get t.lines (2 * line) < 0 then begin
    Array.unsafe_set t.lines (2 * line) (Util.Ivec.length t.dirty_list);
    Util.Ivec.push t.dirty_list line;
    if Util.Ivec.length t.dirty_list > t.max_dirty then evict_some t
  end

(* Record one intra-line store in Precise mode, evicting the line first if
   its pending stores outgrew the configured bound (a legal cache
   behaviour that keeps each chain short). *)
let record_store t line ~off ~src ~src_pos ~len =
  if word_bytes (Array.unsafe_get t.lines ((2 * line) + 1)) > t.max_line_log_bytes
  then begin
    commit_line t line;
    t.stats.Stats.evictions <- t.stats.Stats.evictions + 1
  end;
  log_append t line ~off ~src ~src_pos ~len

let check_range t addr len =
  if addr < 0 || len < 0 || addr + len > t.size_bytes then
    invalid_arg
      (Printf.sprintf "Region: address range [%d, %d) out of bounds" addr
         (addr + len))

let touch_llc t line =
  let slot = line land t.llc_mask in
  let tag = line + 1 in
  if Array.unsafe_get t.llc_tags slot <> tag then begin
    Array.unsafe_set t.llc_tags slot tag;
    let st = t.stats in
    st.Stats.clock.Stats.ns <- st.Stats.clock.Stats.ns +. t.mem_miss_ns
  end

(* Accounting for a store whose [len] bytes are already in the volatile
   image at [addr] (and stay within one line): LLC probe, Precise-mode
   logging, dirty tracking, and the stats/clock charges — in the same
   order as the historical blit-from-scratch path, so the charged
   [sim_ns] is bit-identical. Logging reads the store's bytes back out of
   the volatile image itself, which lets every caller skip the scratch
   staging buffer (fast paths write their payload directly). *)
let store_committed t addr len =
  let line = addr lsr Config.line_shift in
  touch_llc t line;
  if t.is_precise then
    record_store t line
      ~off:(addr land (Config.line_size - 1))
      ~src:t.volatile ~src_pos:addr ~len;
  mark_dirty t line;
  let st = t.stats in
  st.Stats.writes <- st.Stats.writes + 1;
  st.Stats.bytes_written <- st.Stats.bytes_written + len;
  st.Stats.clock.Stats.ns <- st.Stats.clock.Stats.ns +. t.write_ns

(* --- loads and stores ------------------------------------------------ *)

(* Fused read accounting: counter bump, clock charge and LLC probe of the
   line containing [addr], with no intermediate calls. *)
let charge_read t addr =
  let st = t.stats in
  st.Stats.reads <- st.Stats.reads + 1;
  st.Stats.clock.Stats.ns <- st.Stats.clock.Stats.ns +. t.read_ns;
  touch_llc t (addr lsr Config.line_shift)

(* Read side of a multi-byte access: one read + LLC probe per touched
   line (mirrors how the store side splits spans per line). *)
let charge_read_span t addr len =
  if len > 0 then begin
    let st = t.stats in
    let last = (addr + len - 1) lsr Config.line_shift in
    for line = addr lsr Config.line_shift to last do
      st.Stats.reads <- st.Stats.reads + 1;
      st.Stats.clock.Stats.ns <- st.Stats.clock.Stats.ns +. t.read_ns;
      touch_llc t line
    done
  end

let read_i64 t addr =
  if addr < 0 || addr > t.size_bytes - 8 then check_range t addr 8;
  charge_read t addr;
  Bytes.get_int64_le t.volatile addr

(* Unsigned comparison of the stored word at [addr] against the probe
   whose 32-bit unsigned halves are [hi] and [lo]. Charges exactly like
   {!read_i64} (one read, one LLC probe); works entirely in tagged ints,
   so index-structure searches can compare keys without boxing an Int64
   per probe. *)
let compare_u64 t addr ~hi ~lo =
  if addr < 0 || addr > t.size_bytes - 8 then check_range t addr 8;
  charge_read t addr;
  let w = Bytes.get_int64_le t.volatile addr in
  let whi = Int64.to_int (Int64.shift_right_logical w 32) in
  if whi <> hi then (if whi < hi then -1 else 1)
  else begin
    let wlo = Int64.to_int w land 0xffff_ffff in
    if wlo = lo then 0 else if wlo < lo then -1 else 1
  end

let write_i64 t addr v =
  (* Single fused bounds+alignment test on the hot path; the cold branch
     re-derives which precondition failed for the historical message. *)
  if addr land 7 <> 0 || addr < 0 || addr > t.size_bytes - 8 then begin
    check_range t addr 8;
    invalid_arg "Region.write_i64: unaligned"
  end;
  Bytes.set_int64_le t.volatile addr v;
  store_committed t addr 8

(* Tagged-int and split-word accessors: same bytes, same charges as
   {!read_i64} / {!write_i64}, but the [Int64] they load or store never
   leaves the function, so the compiler keeps it unboxed. [read_int]
   truncates bit 63 exactly as [Int64.to_int] does. *)
let read_int t addr =
  if addr < 0 || addr > t.size_bytes - 8 then check_range t addr 8;
  charge_read t addr;
  Int64.to_int (Bytes.get_int64_le t.volatile addr)

(* Split words: the whole 64-bit word as two tagged ints, its top 16 bits
   and its low 48. *)
let low48 = 0xffff_ffff_ffff

let read_split t addr =
  if addr < 0 || addr > t.size_bytes - 8 then check_range t addr 8;
  charge_read t addr;
  let w = Bytes.get_int64_le t.volatile addr in
  t.split_top <- Int64.to_int (Int64.shift_right_logical w 48);
  Int64.to_int w land low48

let split_top t = t.split_top

let load_words t addr buf ~pos ~words =
  check_range t addr (8 * words);
  for k = 0 to words - 1 do
    charge_read t (addr + (8 * k))
  done;
  Bytes.blit t.volatile addr buf pos (8 * words)

let write_split t addr ~top ~low =
  if addr land 7 <> 0 || addr < 0 || addr > t.size_bytes - 8 then begin
    check_range t addr 8;
    invalid_arg "Region.write_split: unaligned"
  end;
  Bytes.set_int64_le t.volatile addr
    (Int64.logor
       (Int64.shift_left (Int64.of_int (top land 0xffff)) 48)
       (Int64.of_int (low land low48)));
  store_committed t addr 8

let write_int t addr v =
  if addr land 7 <> 0 || addr < 0 || addr > t.size_bytes - 8 then begin
    check_range t addr 8;
    invalid_arg "Region.write_int: unaligned"
  end;
  Bytes.set_int64_le t.volatile addr (Int64.of_int v);
  store_committed t addr 8

let read_u8 t addr =
  if addr < 0 || addr >= t.size_bytes then check_range t addr 1;
  charge_read t addr;
  Char.code (Bytes.unsafe_get t.volatile addr)

let write_u8 t addr v =
  if addr < 0 || addr >= t.size_bytes then check_range t addr 1;
  Bytes.unsafe_set t.volatile addr (Char.unsafe_chr (v land 0xff));
  store_committed t addr 1

(* Split a multi-line store into per-line stores, in address order: blit
   each line chunk into the volatile image, then account for it. The
   loops are specialised per payload kind (bytes / string / the volatile
   image itself) so none of them allocates. *)
let rec write_span t addr src src_pos len =
  if len > 0 then begin
    let line_end = (addr lor (Config.line_size - 1)) + 1 in
    let chunk = min len (line_end - addr) in
    Bytes.blit src src_pos t.volatile addr chunk;
    store_committed t addr chunk;
    write_span t (addr + chunk) src (src_pos + chunk) (len - chunk)
  end

let write_bytes t addr b =
  let len = Bytes.length b in
  check_range t addr len;
  write_span t addr b 0 len

let rec string_span t addr s pos len =
  if len > 0 then begin
    let line_end = (addr lor (Config.line_size - 1)) + 1 in
    let chunk = min len (line_end - addr) in
    Bytes.blit_string s pos t.volatile addr chunk;
    store_committed t addr chunk;
    string_span t (addr + chunk) s (pos + chunk) (len - chunk)
  end

let write_string t addr s =
  let len = String.length s in
  check_range t addr len;
  string_span t addr s 0 len

let read_bytes t addr ~len =
  check_range t addr len;
  charge_read_span t addr len;
  Bytes.sub t.volatile addr len

let read_string t addr ~len =
  check_range t addr len;
  charge_read_span t addr len;
  Bytes.sub_string t.volatile addr len

let blit_to_buf t addr buf ~pos ~len =
  check_range t addr len;
  charge_read_span t addr len;
  Bytes.blit t.volatile addr buf pos len

(* Disjoint ranges: copy straight out of the volatile image, no
   temporary ([Bytes.blit] within one buffer is fine when the chunks
   cannot alias). *)
let rec blit_disjoint t dst src len =
  if len > 0 then begin
    let line_end = (dst lor (Config.line_size - 1)) + 1 in
    let chunk = min len (line_end - dst) in
    Bytes.blit t.volatile src t.volatile dst chunk;
    store_committed t dst chunk;
    blit_disjoint t (dst + chunk) (src + chunk) (len - chunk)
  end

let blit_within t ~src ~dst ~len =
  check_range t src len;
  check_range t dst len;
  charge_read_span t src len;
  if src + len <= dst || dst + len <= src then blit_disjoint t dst src len
  else begin
    (* Overlapping: the destination stores must see the pre-copy source
       bytes, so stage them once. *)
    let tmp = Bytes.sub t.volatile src len in
    write_span t dst tmp 0 len
  end

(* --- persistence instructions ---------------------------------------- *)

let pending_wb_count t = Util.Ivec.length t.pending_wb

(* Forget the pending write-back set without committing anything (the
   lines were either just committed or just lost to a crash/flush). *)
let clear_pending_wb t =
  for i = 0 to Util.Ivec.length t.pending_wb - 1 do
    Bytes.unsafe_set t.wb_pending (Util.Ivec.get t.pending_wb i) '\000'
  done;
  Util.Ivec.clear t.pending_wb

let clwb t addr =
  check_range t addr 1;
  let line = line_of_addr addr in
  (* Re-flushing an already-pending line is a no-op at the next fence;
     pushing it again would grow the vector and re-commit redundantly. *)
  if Bytes.unsafe_get t.wb_pending line = '\000' then begin
    Bytes.unsafe_set t.wb_pending line '\001';
    Util.Ivec.push t.pending_wb line
  end;
  t.stats.Stats.clwb <- t.stats.Stats.clwb + 1;
  Stats.add_ns t.stats t.clwb_ns;
  if tracing t then trace_event t (Obs.Trace.Clwb { line })

let sfence t =
  (* Fault-injection hook: an armed chaos plan can kill the process at
     the moment the drain would start, i.e. with every clwb issued but
     nothing yet guaranteed persistent. *)
  Chaos.Plan.fire Chaos.Site.Sfence;
  let drained = Util.Ivec.length t.pending_wb in
  for i = 0 to drained - 1 do
    commit_line t (Util.Ivec.get t.pending_wb i)
  done;
  clear_pending_wb t;
  t.stats.Stats.sfence <- t.stats.Stats.sfence + 1;
  let cost = t.sfence_cost in
  Stats.add_ns t.stats cost;
  Obs.Histogram.record t.h_sfence cost;
  (* A free-standing fence is a clwb-sweep stall; inside a coarser scope
     (epoch flush, extlog seal, txn fence) the scope owns this time. *)
  Obs.Stall.leaf t.stalls Obs.Stall.Clwb_sweep ~dur_ns:cost;
  if tracing t then trace_event t (Obs.Trace.Sfence { drained; dur_ns = cost })

let release_fence t =
  (* Same-line ordering is already program order in this simulator; the
     release fence exists so call sites mirror the paper's Listing 3. *)
  t.stats.Stats.release_fence <- t.stats.Stats.release_fence + 1

let wbinvd t =
  let ndirty = dirty_line_count t in
  (* commit_line swap-removes from the list; drain from the back. *)
  while dirty_line_count t > 0 do
    let line = Util.Ivec.get t.dirty_list (dirty_line_count t - 1) in
    commit_line t line
  done;
  clear_pending_wb t;
  (* Real wbinvd also invalidates, but the post-flush refill of a 19 MB
     L3 over a 64 ms epoch costs the paper's machine ~1%; at this
     simulator's compressed epoch scale the same modelling would charge
     10-20%, so the invalidation side effect is deliberately not
     modelled (see DESIGN.md "scaling trilemma"). *)
  t.stats.Stats.wbinvd <- t.stats.Stats.wbinvd + 1;
  t.stats.Stats.wbinvd_lines <- t.stats.Stats.wbinvd_lines + ndirty;
  let c = t.cfg.Config.cost in
  let cost =
    c.Config.wbinvd_base_ns
    +. (float_of_int ndirty *. c.Config.wbinvd_per_line_ns)
  in
  Stats.add_ns t.stats cost;
  Obs.Histogram.record t.h_wbinvd cost;
  Obs.Stall.leaf t.stalls Obs.Stall.Epoch_advance ~dur_ns:cost;
  if tracing t then
    trace_event t (Obs.Trace.Wbinvd { lines = ndirty; dur_ns = cost })

(* One bounded quantum of the incremental epoch flush (DESIGN.md §15):
   commit up to [budget_lines] dirty lines via clwb and drain them with
   one fence, instead of the stop-the-world [wbinvd]. Draining from the
   back of [dirty_list] costs O(budget) regardless of how many lines are
   dirty. Committing an epoch-[e] line before the epoch boundary is
   always legal — capacity evictions already do exactly that, and
   recovery rolls the whole failed epoch back regardless of how much of
   it persisted. A committed line may still sit in the pending-wb set
   from an earlier clwb; the later fence re-commits it as a no-op
   ([commit_line] checks the dirty byte), so no separate bookkeeping is
   needed. Returns the number of dirty lines remaining. *)
let flush_some t ~budget_lines =
  if budget_lines <= 0 then invalid_arg "Region.flush_some: budget_lines";
  let n = min budget_lines (dirty_line_count t) in
  if n = 0 then 0
  else begin
    for _ = 1 to n do
      let line = Util.Ivec.get t.dirty_list (dirty_line_count t - 1) in
      commit_line t line
    done;
    t.stats.Stats.clwb <- t.stats.Stats.clwb + n;
    t.stats.Stats.sfence <- t.stats.Stats.sfence + 1;
    t.stats.Stats.sweep_quanta <- t.stats.Stats.sweep_quanta + 1;
    t.stats.Stats.sweep_lines <- t.stats.Stats.sweep_lines + n;
    let c = t.cfg.Config.cost in
    let cost =
      (float_of_int n *. t.clwb_ns) +. c.Config.sfence_ns +. t.sfence_extra_ns
    in
    Stats.add_ns t.stats cost;
    Obs.Histogram.record t.h_sweep cost;
    (* The quantum is the clwb-sweep stall the cause enum reserved; when a
       forced synchronous advance drains inside the Epoch_advance scope,
       the leaf is suppressed and the scope owns the time. *)
    Obs.Stall.leaf t.stalls Obs.Stall.Clwb_sweep ~dur_ns:cost;
    if tracing t then trace_event t (Obs.Trace.Sweep { lines = n; dur_ns = cost });
    dirty_line_count t
  end

let charge_op t =
  let st = t.stats in
  st.Stats.clock.Stats.ns <- st.Stats.clock.Stats.ns +. t.op_base_ns

let set_sfence_extra_ns t ns =
  t.sfence_extra_ns <- ns;
  t.sfence_cost <- t.cfg.Config.cost.Config.sfence_ns +. ns

let advance_clock t ns = Stats.add_ns t.stats ns

(* --- crash injection -------------------------------------------------- *)

let crash_with t ~choose =
  if not (precise t) then
    failwith "Region.crash: region was created in Counting mode";
  while dirty_line_count t > 0 do
    let idx = dirty_line_count t - 1 in
    let line = Util.Ivec.get t.dirty_list idx in
    let w = t.lines.((2 * line) + 1) in
    let n = word_count w in
    let k = choose ~line ~nwrites:n in
    if k < 0 || k > n then invalid_arg "Region.crash_with: bad prefix";
    apply_prefix t w ~k ~dst:(line * Config.line_size);
    t.lines.((2 * line) + 1) <- 0;
    (* Remove from the dirty set without committing volatile content. *)
    remove_dirty t line idx
  done;
  clear_pending_wb t;
  (* Power is gone: the LLC is cold. Without this, post-crash recovery
     reads of pre-crash-hot lines were never charged [mem_miss_ns]. *)
  Array.fill t.llc_tags 0 (Array.length t.llc_tags) 0;
  mirror_all t;
  Bytes.blit t.persisted 0 t.volatile 0 (Bytes.length t.persisted);
  t.stats.Stats.crashes <- t.stats.Stats.crashes + 1;
  if tracing t then trace_event t Obs.Trace.Crash

let crash t rng =
  crash_with t ~choose:(fun ~line:_ ~nwrites -> Util.Rng.int rng (nwrites + 1))

let crash_persist_none t = crash_with t ~choose:(fun ~line:_ ~nwrites:_ -> 0)
let crash_persist_all t = crash_with t ~choose:(fun ~line:_ ~nwrites -> nwrites)

(* Install a reboot image: both views equal [image], cache empty. Used by
   Image.load; not part of the simulated instruction set. *)
let install_image t image =
  if not (precise t) then failwith "Region.install_image: Counting mode";
  let n = Bytes.length image in
  if n > Bytes.length t.volatile then invalid_arg "Region.install_image";
  Bytes.blit image 0 t.volatile 0 n;
  Bytes.blit image 0 t.persisted 0 n;
  mirror_all t;
  Array.fill t.llc_tags 0 (Array.length t.llc_tags) 0

let pending_writes t =
  if not (precise t) then failwith "Region.pending_writes: Counting mode";
  let acc = ref [] in
  Util.Ivec.iter
    (fun line ->
      acc := (line, word_count t.lines.((2 * line) + 1)) :: !acc)
    t.dirty_list;
  List.sort compare !acc

let read_persisted_i64 t addr =
  if not (precise t) then
    failwith "Region.read_persisted_i64: Counting mode";
  Bytes.get_int64_le t.persisted addr

(* --- cross-process mirror attach/load --------------------------------- *)

let map_mirror_fd fd size =
  Unix.map_file fd Bigarray.char Bigarray.c_layout true [| size |]
  |> Bigarray.array1_of_genarray

let attach_mirror t ~path =
  if not (precise t) then failwith "Region.attach_mirror: Counting mode";
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let m =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.ftruncate fd t.size_bytes;
        map_mirror_fd fd t.size_bytes)
  in
  t.mirror <- Some m;
  mirror_all t

let load_mirror (cfg : Config.t) ~path =
  if (not (Sys.file_exists path)) || (Unix.stat path).Unix.st_size <> cfg.size_bytes
  then None
  else begin
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
    let m =
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> map_mirror_fd fd cfg.size_bytes)
    in
    let t = create cfg in
    let img = Bytes.create cfg.size_bytes in
    for i = 0 to cfg.size_bytes - 1 do
      Bytes.unsafe_set img i (Bigarray.Array1.unsafe_get m i)
    done;
    install_image t img;
    t.mirror <- Some m;
    Some t
  end
