(* The served workload's process plumbing: spawn bin/incll_server.exe on
   a private unix socket, populate it over one pipelined connection,
   drive it one request at a time through [Wire.Session], read its
   resources from /proc, and stop it with a bounded SIGTERM drain. *)

module C = Wire.Client
module P = Wire.Proto

type server = { pid : int; out : Unix.file_descr; addr : C.addr; sock : string }

let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

(* Start the server with the shipped defaults (INCLL, 2 shards,
   throughput policy, 16 ms epochs) and block until its banner says it
   listens. *)
let spawn ~exe ~sock =
  if Sys.file_exists sock then Sys.remove sock;
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "--listen"; "unix:" ^ sock; "--shards"; string_of_int Inproc.shards |]
      null wr Unix.stderr
  in
  Unix.close wr;
  Unix.close null;
  let srv = { pid; out = rd; addr = C.Unix_sock sock; sock } in
  let buf = Buffer.create 128 and b = Bytes.create 1 in
  let rec banner () =
    match restart (fun () -> Unix.select [ rd ] [] [] 60.0) with
    | [], _, _ -> failwith "server printed no banner within 60 s"
    | _ -> (
        match restart (fun () -> Unix.read rd b 0 1) with
        | 0 -> failwith "server exited before listening"
        | _ when Bytes.get b 0 = '\n' -> ()
        | _ ->
            Buffer.add_bytes buf b;
            banner ())
  in
  banner ();
  srv

(* SIGTERM, then wait up to [grace] seconds for a clean exit. A server
   that does not drain in time is killed and reported as failed. *)
let stop ?(grace = 15.0) srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Clock.now () + int_of_float (grace *. 1e9) in
  let rec wait () =
    match restart (fun () -> Unix.waitpid [ Unix.WNOHANG ] srv.pid) with
    | 0, _ when Clock.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill srv.pid Sys.sigkill;
        ignore (restart (fun () -> Unix.waitpid [] srv.pid));
        false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let drained = wait () in
  Unix.close srv.out;
  if Sys.file_exists srv.sock then Sys.remove srv.sock;
  drained

let pipeline_depth = 128

(* Pipelined puts of every populate key; returns the replies that were
   not OK. *)
let populate addr (stream : Stream.t) =
  let c = C.connect addr in
  let bad = ref 0 in
  let recv_one () = if (C.recv c).P.status <> P.Ok then incr bad in
  Array.iter
    (fun k ->
      if C.pending c >= pipeline_depth then recv_one ();
      ignore (C.send c (P.Put (k, Workload.Ycsb.value_for k))))
    stream.Stream.load;
  while C.pending c > 0 do
    recv_one ()
  done;
  C.close c;
  !bad

(* Read every key back over one pipelined connection and count the keys
   whose value differs from [model]. *)
let verify addr model =
  let c = C.connect addr in
  let pending = Hashtbl.create pipeline_depth in
  let bad = ref 0 in
  let recv_one () =
    let r = C.recv c in
    let key = Hashtbl.find pending r.P.id in
    Hashtbl.remove pending r.P.id;
    match (r.P.status, r.P.payload) with
    | P.Ok, P.Value v when Some v = Hashtbl.find_opt model key -> ()
    | _ -> incr bad
  in
  Hashtbl.iter
    (fun key _ ->
      if C.pending c >= pipeline_depth then recv_one ();
      Hashtbl.replace pending (C.send c (P.Get key)) key)
    model;
  while C.pending c > 0 do
    recv_one ()
  done;
  C.close c;
  !bad

(* ---- STATS snapshots ---------------------------------------------------- *)

let stats_json sess = Obs.Json.of_string (Wire.Session.stats sess P.Stats_json)

let counter j name =
  match Obs.Json.find_path j [ "counters"; name ] with
  | Some (Obs.Json.Int n) -> float_of_int n
  | Some v -> Option.value (Obs.Json.to_float_opt v) ~default:0.0
  | None -> 0.0

let hist_sum j name =
  match Obs.Json.find_path j [ "histograms"; name; "sum" ] with
  | Some v -> Option.value (Obs.Json.to_float_opt v) ~default:0.0
  | None -> 0.0

(* ---- the closed loop over a session -------------------------------- *)

type loop = {
  mutable g : int;
  mutable failed : int;
  mutable first_failure : string;
}

let fail l msg =
  l.failed <- l.failed + 1;
  if l.first_failure = "" then l.first_failure <- msg

(* One request at a time until [count] more ops completed or the
   monotonic clock passes [deadline];
   each call's wall time goes to [lat] and, when [spans] is given, to a
   [session.<op>] span. Returns the time the last call returned. *)
let run ?ticker ?spans sess (s : Stream.t) l ~lat ~count ~deadline =
  let m = Stream.length s in
  let last = ref (Clock.now ()) in
  let stop = if count > max_int - l.g then max_int else l.g + count in
  while l.g < stop && !last < deadline && l.failed < 1000 do
    let i = l.g mod m in
    let key = s.Stream.keys.(i) in
    let is_put = Stream.is_put s i in
    let t0 = Clock.now () in
    (try
       if is_put then Wire.Session.put sess key s.vals.(i)
       else begin
         let want = Stream.expected s l.g in
         match Wire.Session.get sess key with
         | Some v when String.equal v want -> ()
         | got ->
             fail l
               (Printf.sprintf "get %S returned %s, expected %S" key
                  (match got with Some v -> Printf.sprintf "%S" v | None -> "nothing")
                  want)
       end
     with e -> fail l ("session call raised " ^ Printexc.to_string e));
    let t1 = Clock.now () in
    Clock.Samples.add lat (t1 - t0);
    (match spans with
    | Some sp ->
        ignore
          (Spans.add sp
             ~name:(if is_put then "session.put" else "session.get")
             ~start:t0 ~stop:t1 ~parent:(-1) ~op:l.g)
    | None -> ());
    last := t1;
    l.g <- l.g + 1;
    match ticker with Some tk -> Clock.Ticker.tick tk ~now:t1 lat | None -> ()
  done;
  !last

(* ---- codec cost on the workload's own frames ------------------------- *)

type codec = { encode_ns : float; decode_ns : float; bytes_per_op : float }

(* Encode and decode the request and reply frames of the first [n] ops
   (puts stamped, as a session stamps them). Times are per op, request
   plus reply. *)
let codec (s : Stream.t) ~n =
  let m = Stream.length s in
  let req i =
    let j = i mod m in
    if Stream.is_put s j then
      { P.id = i; op = P.Put (s.keys.(j), s.vals.(j)); sess = Some (1, i) }
    else { P.id = i; op = P.Get s.keys.(j); sess = None }
  in
  let rep i =
    let j = i mod m in
    {
      P.id = i;
      status = P.Ok;
      queue_ns = 1000.0;
      cause = P.no_cause;
      payload = (if Stream.is_put s j then P.Unit else P.Value s.expect_first.(j));
    }
  in
  let reqs = Array.init n req and reps = Array.init n rep in
  let rq = Array.make n "" and rp = Array.make n "" in
  let encode_ns =
    Clock.ns_per ~n (fun i ->
        rq.(i) <- P.frame_of_request reqs.(i);
        rp.(i) <- P.frame_of_reply reps.(i))
  in
  let body f = String.sub f 4 (String.length f - 4) in
  let rqb = Array.map body rq and rpb = Array.map body rp in
  let decode_ns =
    Clock.ns_per ~n (fun i ->
        ignore (P.request_of_payload rqb.(i));
        ignore (P.reply_of_payload rpb.(i)))
  in
  let bytes = Array.fold_left (fun a f -> a + String.length f) 0 rq in
  let bytes = Array.fold_left (fun a f -> a + String.length f) bytes rp in
  { encode_ns; decode_ns; bytes_per_op = float_of_int bytes /. float_of_int n }
