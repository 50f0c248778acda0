type counters = {
  mutable first_touches : int;
  mutable val_incll_uses : int;
  mutable val_incll_hits : int;
  mutable ext_fallback_mixed : int;
  mutable ext_fallback_update : int;
  mutable ext_fallback_epoch : int;
  mutable ext_structural : int;
  mutable lazy_recoveries : int;
}

type t = {
  region : Nvm.Region.t;
  em : Epoch.Manager.t;
  log : Extlog.Log.t;
  counters : counters;
  (* Registry mirrors of the Figure-7 split: every modification the InCLL
     machinery absorbs bumps [m_incll_hit]; every one that falls back on
     the external log bumps [m_incll_fallback]. *)
  m_incll_hit : int ref;
  m_incll_fallback : int ref;
  m_first_touch : int ref;
}

let fresh_counters () =
  {
    first_touches = 0;
    val_incll_uses = 0;
    val_incll_hits = 0;
    ext_fallback_mixed = 0;
    ext_fallback_update = 0;
    ext_fallback_epoch = 0;
    ext_structural = 0;
    lazy_recoveries = 0;
  }

let make em log =
  let region = Epoch.Manager.region em in
  let m = Nvm.Region.metrics region in
  {
    region;
    em;
    log;
    counters = fresh_counters ();
    m_incll_hit = Obs.Registry.counter m "incll_hit";
    m_incll_fallback = Obs.Registry.counter m "incll_fallback";
    m_first_touch = Obs.Registry.counter m "incll_first_touch";
  }

let note_incll_hit t = incr t.m_incll_hit

let note_first_touch t ~leaf =
  incr t.m_incll_hit;
  incr t.m_first_touch;
  if Nvm.Region.tracing t.region then
    Nvm.Region.trace_event t.region (Obs.Trace.Incll_first_touch { leaf })

let note_fallback t ~leaf =
  incr t.m_incll_fallback;
  if Nvm.Region.tracing t.region then
    Nvm.Region.trace_event t.region (Obs.Trace.Incll_fallback { leaf })

let current t = Epoch.Manager.current t.em
let lower16 = Epoch.Manager.lower16
let higher = Epoch.Manager.higher

let rec log_node t ~addr ~size =
  try Extlog.Log.append t.log ~epoch:(current t) ~addr ~size
  with Extlog.Log.Log_full ->
    (* A checkpoint truncates the log; the entry then lands in the new
       epoch, which is also the epoch the pending modification will run
       in (no mutation has happened yet when a pre-hook logs). *)
    Epoch.Manager.advance t.em;
    log_node t ~addr ~size
