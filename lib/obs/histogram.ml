(* 8 geometric sub-buckets per power of two, octaves 0..63: bucket 0 holds
   [0,1), bucket 1+8*o+s holds [2^o*(1+s/8), 2^o*(1+(s+1)/8)). *)

let subs = 8
let octaves = 64
let nbuckets = 1 + (octaves * subs)

(* The running sum and extremes live in their own all-float record, which
   OCaml stores flat: as mutable fields of [t] every update would box a
   fresh float. *)
type floats = { mutable sum : float; mutable min_v : float; mutable max_v : float }

type t = { buckets : int array; mutable count : int; f : floats }

let create () =
  {
    buckets = Array.make nbuckets 0;
    count = 0;
    f = { sum = 0.0; min_v = infinity; max_v = neg_infinity };
  }

(* For v >= 1 the IEEE exponent is the octave and the top three mantissa
   bits are the sub-bucket, read straight from the bit pattern: the same
   bucket as [Float.frexp], without its tuple. *)
let[@inline] index_of v =
  if v < 1.0 then 0
  else begin
    let bits = Int64.bits_of_float v in
    let octave =
      min (octaves - 1)
        (Int64.to_int (Int64.shift_right_logical bits 52) - 1023)
    in
    let sub = Int64.to_int (Int64.shift_right_logical bits 49) land 7 in
    1 + (octave * subs) + sub
  end

(* Inclusive-lower bounds of bucket [i] (see the table at the top). *)
let bucket_lo i =
  if i = 0 then 0.0
  else begin
    let octave = (i - 1) / subs and sub = (i - 1) mod subs in
    let base = Float.ldexp 1.0 octave in
    base +. (float_of_int sub *. (base /. float_of_int subs))
  end

let bucket_hi i =
  if i = 0 then 1.0
  else begin
    let octave = (i - 1) / subs and sub = (i - 1) mod subs in
    let base = Float.ldexp 1.0 octave in
    base +. (float_of_int (sub + 1) *. (base /. float_of_int subs))
  end

(* Inlined, with [index_of], into the entry points below, so a computed
   [v] is never boxed. *)
let[@inline] add t v =
  let v = if v < 0.0 then 0.0 else v in
  let i = index_of v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.count <- t.count + 1;
  let f = t.f in
  f.sum <- f.sum +. v;
  if v < f.min_v then f.min_v <- v;
  if v > f.max_v then f.max_v <- v

let record t v = add t v
let record_int t n = add t (float_of_int n)
let record_elapsed t ~since clock = add t (clock.Clock.ns -. since.Clock.ns)

let count t = t.count
let sum t = t.f.sum

let min_value t =
  if t.count <= 0 || t.f.min_v = infinity then 0.0 else t.f.min_v

let max_value t =
  if t.count <= 0 || t.f.max_v = neg_infinity then 0.0 else t.f.max_v

let mean t = if t.count <= 0 then 0.0 else t.f.sum /. float_of_int t.count

let percentile t q =
  if t.count <= 0 || t.f.min_v = infinity then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.count))) in
    (* Walk to the bucket holding [rank], then interpolate by rank within
       it. The midpoint answer over-reports extreme ranks (p999/p9999):
       in a wide log-scale bucket the max-rank percentile sits wherever
       the last samples landed, and assuming the middle of the bucket can
       be off by half a bucket width (~6%) in the direction that always
       inflates the tail. Linear-by-rank within the final occupied bucket
       is exact when samples are uniform there and clamped to the observed
       extremes either way. *)
    let i = ref 0 and seen = ref 0 in
    while !seen + t.buckets.(!i) < rank && !i < nbuckets - 1 do
      seen := !seen + t.buckets.(!i);
      incr i
    done;
    let n = t.buckets.(!i) in
    let lo = bucket_lo !i and hi = bucket_hi !i in
    let frac =
      if n <= 0 then 1.0 else float_of_int (rank - !seen) /. float_of_int n
    in
    Float.min t.f.max_v (Float.max t.f.min_v (lo +. ((hi -. lo) *. frac)))
  end

let merge_into ~into src =
  Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) src.buckets;
  into.count <- into.count + src.count;
  into.f.sum <- into.f.sum +. src.f.sum;
  if src.f.min_v < into.f.min_v then into.f.min_v <- src.f.min_v;
  if src.f.max_v > into.f.max_v then into.f.max_v <- src.f.max_v

let copy t =
  {
    buckets = Array.copy t.buckets;
    count = t.count;
    f = { sum = t.f.sum; min_v = t.f.min_v; max_v = t.f.max_v };
  }

let diff ~after ~before =
  let d = copy after in
  Array.iteri (fun i n -> d.buckets.(i) <- d.buckets.(i) - n) before.buckets;
  d.count <- after.count - before.count;
  d.f.sum <- after.f.sum -. before.f.sum;
  (* [after]'s running min/max span its whole lifetime; the window's
     extremes must come from the window's own occupied buckets. Bucket
     bounds are the tightest available estimate (exact values are not
     retained per bucket). *)
  d.f.min_v <- infinity;
  d.f.max_v <- neg_infinity;
  Array.iteri
    (fun i n ->
      if n > 0 then begin
        if d.f.min_v = infinity then d.f.min_v <- bucket_lo i;
        d.f.max_v <- bucket_hi i
      end)
    d.buckets;
  d

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("sum", Json.Float t.f.sum);
      ("mean", Json.Float (mean t));
      ("min", Json.Float (min_value t));
      ("max", Json.Float (max_value t));
      ("p50", Json.Float (percentile t 0.50));
      ("p90", Json.Float (percentile t 0.90));
      ("p99", Json.Float (percentile t 0.99));
      ("p999", Json.Float (percentile t 0.999));
      ("p9999", Json.Float (percentile t 0.9999));
    ]
