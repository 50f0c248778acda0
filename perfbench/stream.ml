(* The seeded inputs of one run: the populate order and a ring of YCSB
   ops, with the value every get must return.

   Keys and op kinds come from the repo's canonical generator
   ([Workload.Opstream.generate]). Put values are replaced by values
   unique to (seed, op index), so a get that returns a stale value, and
   a recovery that rolls back to the wrong epoch, both show as
   mismatches. The measured loop runs the ring round and round; a get on
   the first lap expects the value of the last put before it (or the
   populate value), a get on any later lap the state the previous lap
   left. *)

type t = {
  load : string array;  (** populate keys, in a seed-shuffled order *)
  keys : string array;
  puts : Bytes.t;  (** ['\001'] put, ['\000'] get *)
  vals : string array;  (** put value; [""] for gets *)
  expect_first : string array;  (** expected get result, first lap *)
  expect_later : string array;  (** expected get result, later laps *)
}

let length t = Array.length t.keys
let is_put t i = Bytes.unsafe_get t.puts i = '\001'

let value_of ~seed i =
  Masstree.Key.of_int64
    (Util.Scramble.fmix64 (Int64.add (Int64.mul (Int64.of_int seed) 0x1_0000_0000L) (Int64.of_int i)))

let make ~spec ~seed ~ring =
  let load = Workload.Ycsb.load_keys ~nkeys:spec.Workload.Ycsb.nkeys in
  Util.Rng.shuffle (Util.Rng.create ~seed:(seed lxor 0x10ad)) load;
  let ops = Workload.Opstream.generate spec ~seed ~n:ring in
  let keys = Array.map Workload.Opstream.key_of ops in
  let puts = Bytes.make ring '\000' in
  let vals =
    Array.mapi
      (fun i op ->
        match op with
        | Workload.Ycsb.Put _ ->
            Bytes.set puts i '\001';
            value_of ~seed i
        | Workload.Ycsb.Get _ -> ""
        | Workload.Ycsb.Scan _ -> invalid_arg "Stream.make: scans")
      ops
  in
  let state = Hashtbl.create (2 * Array.length load) in
  Array.iter (fun k -> Hashtbl.replace state k (Workload.Ycsb.value_for k)) load;
  let lap () =
    Array.mapi
      (fun i k ->
        if Bytes.get puts i = '\001' then begin
          Hashtbl.replace state k vals.(i);
          ""
        end
        else Hashtbl.find state k)
      keys
  in
  let expect_first = lap () in
  let expect_later = lap () in
  { load; keys; puts; vals; expect_first; expect_later }

(* The value a get at global position [k] must return. *)
let expected t k =
  let m = length t in
  if k < m then Array.unsafe_get t.expect_first k
  else Array.unsafe_get t.expect_later (k mod m)

(* The whole keyspace after [n] ops of the stream. *)
let state_after t n =
  let state = Hashtbl.create (2 * Array.length t.load) in
  Array.iter (fun k -> Hashtbl.replace state k (Workload.Ycsb.value_for k)) t.load;
  let m = length t in
  let apply upto =
    for i = 0 to upto - 1 do
      if is_put t i then Hashtbl.replace state t.keys.(i) t.vals.(i)
    done
  in
  (* every full lap leaves the state one lap leaves *)
  if n >= m then apply m;
  apply (if n >= m then n mod m else n);
  state

(* Puts among global positions [0, n). *)
let puts_upto t n =
  let m = length t in
  let c = ref 0 in
  for i = 0 to m - 1 do
    if is_put t i then incr c
  done;
  let lap = !c and c = ref 0 in
  for i = 0 to (n mod m) - 1 do
    if is_put t i then incr c
  done;
  (n / m * lap) + !c
