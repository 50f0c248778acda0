(* The simulated clock lives in its own single-field all-float record
   ({!Obs.Clock.t}): OCaml stores float fields of mixed records boxed, so
   a [mutable sim_ns : float] directly in [t] would allocate a fresh box
   on every clock charge — several times per simulated store/load. The
   nested all-float record is flat and is updated in place, making
   [add_ns] allocation-free on the hot paths; the region's stall ledger
   reads the same record. *)
type clock = Obs.Clock.t = { mutable ns : float }

type t = {
  mutable writes : int;
  mutable reads : int;
  mutable bytes_written : int;
  mutable clwb : int;
  mutable sfence : int;
  mutable release_fence : int;
  mutable wbinvd : int;
  mutable wbinvd_lines : int;
  mutable lines_committed : int;
  mutable sweep_quanta : int;
  mutable sweep_lines : int;
  mutable evictions : int;
  mutable crashes : int;
  clock : clock;
}

let create () =
  {
    writes = 0;
    reads = 0;
    bytes_written = 0;
    clwb = 0;
    sfence = 0;
    release_fence = 0;
    wbinvd = 0;
    wbinvd_lines = 0;
    lines_committed = 0;
    sweep_quanta = 0;
    sweep_lines = 0;
    evictions = 0;
    crashes = 0;
    clock = { ns = 0.0 };
  }

let reset t =
  t.writes <- 0;
  t.reads <- 0;
  t.bytes_written <- 0;
  t.clwb <- 0;
  t.sfence <- 0;
  t.release_fence <- 0;
  t.wbinvd <- 0;
  t.wbinvd_lines <- 0;
  t.lines_committed <- 0;
  t.sweep_quanta <- 0;
  t.sweep_lines <- 0;
  t.evictions <- 0;
  t.crashes <- 0;
  t.clock.ns <- 0.0

let sim_ns t = t.clock.ns
let add_ns t ns = t.clock.ns <- t.clock.ns +. ns

let snapshot t =
  {
    writes = t.writes;
    reads = t.reads;
    bytes_written = t.bytes_written;
    clwb = t.clwb;
    sfence = t.sfence;
    release_fence = t.release_fence;
    wbinvd = t.wbinvd;
    wbinvd_lines = t.wbinvd_lines;
    lines_committed = t.lines_committed;
    sweep_quanta = t.sweep_quanta;
    sweep_lines = t.sweep_lines;
    evictions = t.evictions;
    crashes = t.crashes;
    clock = { ns = t.clock.ns };
  }

let diff ~after ~before =
  {
    writes = after.writes - before.writes;
    reads = after.reads - before.reads;
    bytes_written = after.bytes_written - before.bytes_written;
    clwb = after.clwb - before.clwb;
    sfence = after.sfence - before.sfence;
    release_fence = after.release_fence - before.release_fence;
    wbinvd = after.wbinvd - before.wbinvd;
    wbinvd_lines = after.wbinvd_lines - before.wbinvd_lines;
    lines_committed = after.lines_committed - before.lines_committed;
    sweep_quanta = after.sweep_quanta - before.sweep_quanta;
    sweep_lines = after.sweep_lines - before.sweep_lines;
    evictions = after.evictions - before.evictions;
    crashes = after.crashes - before.crashes;
    clock = { ns = after.clock.ns -. before.clock.ns };
  }

(* Every counter field as a labelled list: the single source for [pp] and
   [to_json], so adding a field to the record and here keeps every output
   in sync (a test checks the arity). *)
let int_fields t =
  [
    ("writes", t.writes);
    ("reads", t.reads);
    ("bytes", t.bytes_written);
    ("clwb", t.clwb);
    ("sfence", t.sfence);
    ("release", t.release_fence);
    ("wbinvd", t.wbinvd);
    ("wbinvd_lines", t.wbinvd_lines);
    ("committed", t.lines_committed);
    ("sweep_quanta", t.sweep_quanta);
    ("sweep_lines", t.sweep_lines);
    ("evictions", t.evictions);
    ("crashes", t.crashes);
  ]

let pp ppf t =
  List.iter (fun (k, v) -> Format.fprintf ppf "%s=%d " k v) (int_fields t);
  Format.fprintf ppf "sim_ms=%.3f" (t.clock.ns /. 1e6)

let to_json t =
  Obs.Json.Obj
    (List.map (fun (k, v) -> (k, Obs.Json.Int v)) (int_fields t)
    @ [ ("sim_ns", Obs.Json.Float t.clock.ns) ])
