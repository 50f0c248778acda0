(* Monotonic nanosecond timing and the order statistics the report uses.

   Every interval the benchmark measures is two reads of CLOCK_MONOTONIC
   (the bechamel stub: no allocation, no epoch-magnitude rounding). *)

let now () = Int64.to_int (Monotonic_clock.now ())
let now_ns = now

(* Growable int sample buffer. It grows by whole chunks, so an op that
   fills a chunk never pays for copying the samples already taken. *)
module Samples = struct
  let chunk = 1 lsl 20

  type t = {
    mutable full : int array list;
    mutable cur : int array;
    mutable pos : int;
    mutable count : int;
  }

  let create () = { full = []; cur = Array.make chunk 0; pos = 0; count = 0 }

  let add t x =
    if t.pos = chunk then begin
      t.full <- t.cur :: t.full;
      t.cur <- Array.make chunk 0;
      t.pos <- 0
    end;
    Array.unsafe_set t.cur t.pos x;
    t.pos <- t.pos + 1;
    t.count <- t.count + 1

  let length t = t.count

  let to_array t =
    Array.concat (List.rev (Array.sub t.cur 0 t.pos :: t.full))
end

(* Sub-windows of a measured window. At each boundary the ticker closes
   the current sub-window (its samples, duration and CPU time), runs the
   host-speed probe, and opens the next one after the probe, so probe
   time is in no sub-window. *)
module Ticker = struct
  type window = {
    lo : int;  (** first sample *)
    hi : int;  (** one past the last sample *)
    dur_ns : int;
    cpu_s : float;  (** CPU of the processes under test *)
    probe_ns : int;  (** the probe run right after this sub-window *)
    steal : float;  (** the host's CPU steal share during the sub-window *)
  }

  type t = {
    period : int;
    probe : unit -> int;
    cpu : unit -> float;
    jiffies : unit -> int * int;  (** (steal, total) *)
    mutable lo : int;
    mutable jiffies_start : int * int;
    mutable start : int;
    mutable cpu_start : float;
    mutable next : int;
    mutable closed : window list;
  }

  let create ~probe ~cpu ~jiffies ~start ~period =
    {
      period;
      probe;
      cpu;
      jiffies;
      lo = 0;
      jiffies_start = jiffies ();
      start;
      cpu_start = cpu ();
      next = start + period;
      closed = [];
    }

  let tick t ~now (lat : Samples.t) =
    if now >= t.next then begin
      let c = t.cpu () and s1, j1 = t.jiffies () in
      let probe_ns = t.probe () in
      let hi = lat.Samples.count and s0, j0 = t.jiffies_start in
      let steal = if j1 > j0 then float_of_int (s1 - s0) /. float_of_int (j1 - j0) else 0.0 in
      t.closed <-
        { lo = t.lo; hi; dur_ns = now - t.start; cpu_s = c -. t.cpu_start; probe_ns; steal }
        :: t.closed;
      t.lo <- hi;
      t.cpu_start <- t.cpu ();
      t.jiffies_start <- t.jiffies ();
      t.start <- now_ns ();
      t.next <- t.start + t.period
    end

  (* Complete sub-windows, oldest first. *)
  let windows t = List.rev t.closed
end

(* Quantile with linear interpolation between closest ranks (the
   "inclusive" definition). [q] in [0, 1]; 0.0 for no samples. *)
let quantile_sorted (a : float array) q =
  let n = Array.length a in
  if n = 0 then 0.0
  else if n = 1 then a.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let sorted_floats (a : int array) =
  let f = Array.map float_of_int a in
  Array.sort Float.compare f;
  f

let quantile a q = quantile_sorted (sorted_floats a) q
let median a = quantile a 0.5

let median_f (l : float list) =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  quantile_sorted a 0.5

let mean a =
  if Array.length a = 0 then 0.0
  else float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)

(* Per-op cost of an action repeated [n] times, in ns. *)
let ns_per ~n f =
  let t0 = now () in
  for i = 0 to n - 1 do
    f i
  done;
  float_of_int (now () - t0) /. float_of_int n
