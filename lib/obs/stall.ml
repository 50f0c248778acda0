type cause =
  | Epoch_advance
  | Clwb_sweep
  | Extlog
  | Limbo_merge
  | Alloc_slow
  | Txn_fence
  | Recovery
  | Net_queue

let all_causes =
  [
    Epoch_advance;
    Clwb_sweep;
    Extlog;
    Limbo_merge;
    Alloc_slow;
    Txn_fence;
    Recovery;
    Net_queue;
  ]

let ncauses = List.length all_causes

let cause_index = function
  | Epoch_advance -> 0
  | Clwb_sweep -> 1
  | Extlog -> 2
  | Limbo_merge -> 3
  | Alloc_slow -> 4
  | Txn_fence -> 5
  | Recovery -> 6
  | Net_queue -> 7

let cause_name = function
  | Epoch_advance -> "epoch_advance"
  | Clwb_sweep -> "clwb_sweep"
  | Extlog -> "extlog"
  | Limbo_merge -> "limbo_merge"
  | Alloc_slow -> "alloc_slow"
  | Txn_fence -> "txn_fence"
  | Recovery -> "recovery"
  | Net_queue -> "net_queue"

let cause_of_index i = List.nth_opt all_causes i

type entry = { cause : cause; start_ns : float; dur_ns : float; epoch : int }

(* Attribute a [t0, t1) window to the cause with the largest total overlap
   among [entries]; [None] when nothing overlaps. Shared by the bench
   runner's slow-op attribution and the server's per-request stall
   reporting. *)
let dominant_cause entries ~t0 ~t1 =
  let sums = Array.make ncauses 0.0 in
  List.iter
    (fun e ->
      let o = Float.min t1 (e.start_ns +. e.dur_ns) -. Float.max t0 e.start_ns in
      if o > 0.0 then
        let i = cause_index e.cause in
        sums.(i) <- sums.(i) +. o)
    entries;
  List.fold_left
    (fun best c ->
      let v = sums.(cause_index c) in
      if v <= 0.0 then best
      else
        match best with
        | Some (_, b) when b >= v -> best
        | _ -> Some (c, v))
    None all_causes
  |> Option.map fst

(* The ring is kept as parallel arrays — cause indices, flat float
   starts and durations, epochs — so admitting an entry allocates nothing;
   {!entries} builds the records on demand. *)
type t = {
  causes : int array;
  starts : float array;
  durs : float array;
  epochs : int array;
  mutable len : int;
  mutable next : int;  (* ring write cursor *)
  mutable admitted : int;
  mutable min_dur_ns : float;
  mutable epoch : int;
  (* Outermost-wins scope state. *)
  mutable scope_depth : int;
  mutable scope_cause : cause;
  scope_start : Clock.t;  (* flat, so stamping it never boxes *)
  clock : Clock.t;  (* stamps scopes and leaves *)
  hist : Histogram.t array;  (* per-cause durations, ncauses entries *)
  counts : int array;
  totals : float array;
}

let create ?(capacity = 1024) ?registry ?(clock = Clock.create ()) () =
  let capacity = max 1 capacity in
  let hist =
    match registry with
    | Some r ->
        Array.of_list
          (List.map
             (fun c -> Registry.histogram r ("stall." ^ cause_name c ^ "_ns"))
             all_causes)
    | None -> Array.init ncauses (fun _ -> Histogram.create ())
  in
  {
    causes = Array.make capacity 0;
    starts = Array.make capacity 0.0;
    durs = Array.make capacity 0.0;
    epochs = Array.make capacity 0;
    len = 0;
    next = 0;
    admitted = 0;
    min_dur_ns = 0.0;
    epoch = 0;
    scope_depth = 0;
    scope_cause = Epoch_advance;
    scope_start = Clock.create ();
    clock;
    hist;
    counts = Array.make ncauses 0;
    totals = Array.make ncauses 0.0;
  }

let set_epoch t e = t.epoch <- e
let set_min_dur_ns t ns = t.min_dur_ns <- ns

(* Count, total and (past the admission filter) ring one stall of cause
   index [i]; the caller has fed the histogram. Inlined, so its float
   arguments are never boxed. *)
let[@inline] admit t i start dur =
  t.counts.(i) <- t.counts.(i) + 1;
  t.totals.(i) <- t.totals.(i) +. dur;
  if dur >= t.min_dur_ns then begin
    let k = t.next in
    t.causes.(k) <- i;
    t.starts.(k) <- start;
    t.durs.(k) <- dur;
    t.epochs.(k) <- t.epoch;
    t.next <- (k + 1) mod Array.length t.causes;
    if t.len < Array.length t.causes then t.len <- t.len + 1;
    t.admitted <- t.admitted + 1
  end

let record t cause ~start_ns ~dur_ns =
  let i = cause_index cause in
  Histogram.record t.hist.(i) dur_ns;
  admit t i start_ns dur_ns

(* Scopes read the clock themselves: a [~now:float] argument would box a
   timestamp at every call site, and these run on every extlog append and
   every slow allocation. *)
let enter t cause =
  if t.scope_depth = 0 then begin
    t.scope_cause <- cause;
    t.scope_start.Clock.ns <- t.clock.Clock.ns
  end;
  t.scope_depth <- t.scope_depth + 1

let exit t =
  if t.scope_depth > 0 then begin
    t.scope_depth <- t.scope_depth - 1;
    if t.scope_depth = 0 then begin
      let i = cause_index t.scope_cause in
      Histogram.record_elapsed t.hist.(i) ~since:t.scope_start t.clock;
      let start = t.scope_start.Clock.ns in
      let dur = t.clock.Clock.ns -. start in
      (* Not [Float.max]: a call into Stdlib would box both floats. *)
      admit t i start (if dur < 0.0 then 0.0 else dur)
    end
  end

let in_scope t = t.scope_depth > 0

let leaf t cause ~dur_ns =
  if t.scope_depth = 0 then begin
    let i = cause_index cause in
    Histogram.record t.hist.(i) dur_ns;
    admit t i (t.clock.Clock.ns -. dur_ns) dur_ns
  end

let length t = t.len
let capacity t = Array.length t.causes
let admitted t = t.admitted

let cause_of = Array.of_list all_causes

(* The ring entries whose interval meets [t0, t1), oldest first. Records
   are built for those only, and the test is inline rather than a
   closure over two floats: the server asks on every request. *)
let overlapping t ~t0 ~t1 =
  let cap = Array.length t.causes in
  let first = t.next - t.len + cap in
  let acc = ref [] in
  for j = t.len - 1 downto 0 do
    let k = (first + j) mod cap in
    let start = t.starts.(k) in
    if start < t1 && start +. t.durs.(k) > t0 then
      acc :=
        {
          cause = cause_of.(t.causes.(k));
          start_ns = t.starts.(k);
          dur_ns = t.durs.(k);
          epoch = t.epochs.(k);
        }
        :: !acc
  done;
  !acc

let entries t = overlapping t ~t0:neg_infinity ~t1:infinity

let counts t = List.map (fun c -> (c, t.counts.(cause_index c))) all_causes

let totals_ns t =
  List.map (fun c -> (c, t.totals.(cause_index c))) all_causes

let clear t =
  t.len <- 0;
  t.next <- 0;
  t.admitted <- 0;
  t.scope_depth <- 0;
  Array.fill t.counts 0 ncauses 0;
  Array.fill t.totals 0 ncauses 0.0

let to_json t =
  let cause_obj =
    List.map
      (fun c ->
        let i = cause_index c in
        ( cause_name c,
          Json.Obj
            [
              ("count", Json.Int t.counts.(i));
              ("total_ns", Json.Float t.totals.(i));
            ] ))
      all_causes
  in
  let entry_json e =
    Json.Obj
      [
        ("cause", Json.String (cause_name e.cause));
        ("start_ns", Json.Float e.start_ns);
        ("dur_ns", Json.Float e.dur_ns);
        ("epoch", Json.Int e.epoch);
      ]
  in
  Json.Obj
    [
      ("causes", Json.Obj cause_obj);
      ("entries", Json.List (List.map entry_json (entries t)));
    ]
