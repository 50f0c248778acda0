(* Spans recorded around the benchmark's calls into each layer: name,
   start, end, parent span, op id and the public-counter deltas the call
   caused. Kept in preallocated arrays (the first [cap] spans of a run)
   and written out as a Chrome/Perfetto trace when the run ends. *)

let counters = [| "reads"; "writes"; "clwb"; "sfence"; "nodes_logged"; "epochs" |]
let ncounters = Array.length counters

type t = {
  cap : int;
  name : string array;
  start : int array;
  stop : int array;
  parent : int array;
  op : int array;
  deltas : int array;  (** [ncounters] per span *)
  mutable n : int;
  mutable dropped : int;
}

let create cap =
  {
    cap;
    name = Array.make cap "";
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    op = Array.make cap 0;
    deltas = Array.make (cap * ncounters) 0;
    n = 0;
    dropped = 0;
  }

(* Returns the span's id, or -1 once the buffer is full. *)
let add t ~name ~start ~stop ~parent ~op =
  if t.n = t.cap then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.n in
    t.name.(i) <- name;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.parent.(i) <- parent;
    t.op.(i) <- op;
    t.n <- i + 1;
    i
  end

let set_delta t id c v = if id >= 0 then t.deltas.((id * ncounters) + c) <- v

let write t path =
  let oc = open_out path in
  let base = if t.n > 0 then t.start.(0) else 0 in
  let us x = float_of_int (x - base) /. 1000.0 in
  output_string oc "{\"traceEvents\":[\n";
  for i = 0 to t.n - 1 do
    let args =
      Array.to_list
        (Array.mapi
           (fun c name -> Printf.sprintf ",\"%s\":%d" name t.deltas.((i * ncounters) + c))
           counters)
      |> String.concat ""
    in
    Printf.fprintf oc
      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d%s}}\n"
      (if i = 0 then "" else ",")
      t.name.(i) (us t.start.(i))
      (float_of_int (t.stop.(i) - t.start.(i)) /. 1000.0)
      i t.parent.(i) t.op.(i) args
  done;
  Printf.fprintf oc "],\"dropped_spans\":%d}\n" t.dropped;
  close_out oc
