module P = Wire.Proto
module Sock = Wire.Sock

type conn = {
  fd : Unix.file_descr;
  replies : string Bqueue.t;  (* encoded reply frames *)
  (* Requests handed to shard domains, plus one held by the reader until
     it stops reading; whoever drops it to zero closes [replies]. *)
  outstanding : int Atomic.t;
  mutable txn : P.txn_write list option;  (* newest first; reader-only *)
}

type barrier = {
  mutable remaining : int;
  bmu : Mutex.t;
  bcv : Condition.t;
  brun : unit -> unit;  (* run exclusively by the last shard to arrive *)
  mutable bdone : bool;
}

type job = Op of conn * float * P.request  (* enqueue wall ns *) | Barrier of barrier

(* Per-session dedup state (DESIGN.md Â§17): the highest seqno this shard
   has applied for the session and the status it was answered with. The
   stamp is a per-shard logical clock driving LRU expiry. *)
type sess_entry = {
  mutable last_seq : int;
  mutable last_status : int;  (* wire status code *)
  mutable stamp : int;
}

(* Bounded retention: sessions idle long enough to be evicted have no
   in-flight op left to deduplicate (the session layer is one-op-at-a-
   time), so expiry only forfeits dedup for clients gone for ages. *)
let sess_cap = 1024

type t = {
  store : Store.Sharded.t;
  queues : job Bqueue.t array;
  ledgers : Obs.Stall.t array;  (* server-owned net_queue ledgers, wall ns *)
  (* Session dedup tables, one per shard, owned by the shard domain
     (key-deterministic routing sends a retry to the same shard; commit
     dedup runs inside the cross-shard barrier, which is exclusive). *)
  sessions : (int, sess_entry) Hashtbl.t array;
  sess_clocks : int ref array;
  c_dedup : int ref array;  (* per-shard "server.dedup_hits" counters *)
  sid_counter : int Atomic.t;  (* next fresh session id *)
  listen_fd : Unix.file_descr;
  bound : Sock.addr;
  stop_flag : bool Atomic.t;
  barrier_mu : Mutex.t;  (* serialises multi-queue barrier enqueues *)
  conns_mu : Mutex.t;
  conns_idle : Condition.t;  (* signalled when [live_conns] hits 0 *)
  mutable live_conns : int;  (* connections whose threads still run *)
  mutable shard_domains : unit Domain.t list;
  mutable accept_domain : unit Domain.t option;
  batch : int;
  on_dequeue : (shard:int -> unit) option;
  t0 : float;  (* server start, Unix seconds *)
  mutable stopped : bool;
}

let wall_ns t = (Unix.gettimeofday () -. t.t0) *. 1e9

(* ------------------------------------------------------------- replies *)

let encode_reply r =
  try P.frame_of_reply r
  with P.Malformed m ->
    (* An oversized result (e.g. a huge SCAN) must not kill the shard
       domain; degrade to an error the client can act on. *)
    P.frame_of_reply
      { r with P.status = P.Bad_request; payload = P.Text m }

let push_reply conn r = ignore (Bqueue.push_unbounded conn.replies (encode_reply r))

(* Drop one count of [conn.outstanding]; the last one closes the reply
   queue, so the writer flushes what is queued and exits. *)
let release conn =
  if Atomic.fetch_and_add conn.outstanding (-1) = 1 then
    Bqueue.close conn.replies

let simple conn id status =
  push_reply conn
    { P.id; status; queue_ns = 0.0; cause = P.no_cause; payload = P.Unit }

(* --------------------------------------------------------- shard domain *)

let exec_single sys (op : P.op) =
  match op with
  | P.Get k -> (
      match Incll.System.get sys ~key:k with
      | Some v -> (P.Ok, P.Value v)
      | None -> (P.Not_found, P.Unit))
  | P.Put (k, v) ->
      Incll.System.put sys ~key:k ~value:v;
      (P.Ok, P.Unit)
  | P.Delete k ->
      if Incll.System.remove sys ~key:k then (P.Ok, P.Unit)
      else (P.Not_found, P.Unit)
  | _ ->
      (* SCAN/TXN_*/STATS never reach a single-shard queue entry. *)
      (P.Bad_request, P.Unit)

(* Replayed (sid, seq)? Answer without re-applying: the recorded status
   for the newest seq, plain Ok for anything older (the session layer is
   one-op-at-a-time, so an older seq is a duplicated frame whose real
   reply was already delivered). Must run on the owning shard domain, or
   inside a barrier. *)
let dedup_check t shard ~sid ~seq =
  match Hashtbl.find_opt t.sessions.(shard) sid with
  | Some e when seq <= e.last_seq ->
      t.c_dedup.(shard) := !(t.c_dedup.(shard)) + 1;
      Some (if seq = e.last_seq then P.status_of_code e.last_status else P.Ok)
  | _ -> None

(* Record the applied (sid, seq, status) in the shard's table, evicting
   the stalest session once over capacity. *)
let touch_session t shard ~sid ~seq ~status_code =
  let tbl = t.sessions.(shard) in
  let clock = t.sess_clocks.(shard) in
  incr clock;
  match Hashtbl.find_opt tbl sid with
  | Some e ->
      e.last_seq <- seq;
      e.last_status <- status_code;
      e.stamp <- !clock
  | None ->
      if Hashtbl.length tbl >= sess_cap then begin
        let victim =
          Hashtbl.fold
            (fun vsid e acc ->
              match acc with
              | Some (_, st) when st <= e.stamp -> acc
              | _ -> Some (vsid, e.stamp))
            tbl None
        in
        match victim with
        | Some (vsid, _) -> Hashtbl.remove tbl vsid
        | None -> ()
      end;
      Hashtbl.replace tbl sid
        { last_seq = seq; last_status = status_code; stamp = !clock }

let session_op_of = function
  | P.Put (k, v) -> Some (Incll.Session.Put { key = k; value = v })
  | P.Delete k -> Some (Incll.Session.Remove { key = k })
  | _ -> None

let exec_op t shard (conn, enq_ns, { P.id; op; sess }) =
  let sys = Store.Sharded.shard t.store shard in
  let region = Incll.System.region sys in
  let queue_ns = Float.max 0.0 (wall_ns t -. enq_ns) in
  Obs.Stall.record t.ledgers.(shard) Obs.Stall.Net_queue ~start_ns:enq_ns
    ~dur_ns:queue_ns;
  let dedup =
    match sess with
    | Some (sid, seq) -> dedup_check t shard ~sid ~seq
    | None -> None
  in
  (match dedup with
  | Some status ->
      push_reply conn
        { P.id; status; queue_ns; cause = P.no_cause; payload = P.Unit }
  | None ->
      let s0 = Nvm.Stats.sim_ns (Nvm.Region.stats region) in
      let status, payload =
        try exec_single sys op
        with e -> (P.Bad_request, P.Text (Printexc.to_string e))
      in
      (* Durable exactly-once: the dedup record is fenced into the log
         *before* the reply is enqueued, so an acked mutation is always
         redoable and its stamp always survives a crash. *)
      (match (sess, session_op_of op) with
      | Some (sid, seq), Some sop when Incll.System.ctx sys <> None ->
          Incll.System.record_session sys ~sid ~seq
            ~status:(P.status_code status) sop;
          touch_session t shard ~sid ~seq ~status_code:(P.status_code status)
      | _ -> ());
      let s1 =
        Float.max (Nvm.Stats.sim_ns (Nvm.Region.stats region)) (s0 +. 1.0)
      in
      let cause =
        let over =
          Obs.Stall.overlapping (Nvm.Region.stalls region) ~t0:s0 ~t1:s1
        in
        match Obs.Stall.dominant_cause over ~t0:s0 ~t1:s1 with
        | Some c -> Obs.Stall.cause_index c
        | None -> P.no_cause
      in
      push_reply conn { P.id; status; queue_ns; cause; payload });
  release conn

let run_barrier_job b =
  Mutex.lock b.bmu;
  b.remaining <- b.remaining - 1;
  if b.remaining = 0 then begin
    b.brun ();
    b.bdone <- true;
    Condition.broadcast b.bcv
  end
  else
    while not b.bdone do
      Condition.wait b.bcv b.bmu
    done;
  Mutex.unlock b.bmu

let shard_loop t shard =
  let rec loop () =
    match Bqueue.pop_batch t.queues.(shard) ~max:t.batch with
    | [] -> ()  (* closed and drained *)
    | jobs ->
        Option.iter (fun f -> f ~shard) t.on_dequeue;
        List.iter
          (function
            | Op (conn, enq, req) -> exec_op t shard (conn, enq, req)
            | Barrier b -> run_barrier_job b)
          jobs;
        loop ()
  in
  loop ()

(* --------------------------------------------------------- reader side *)

(* Enqueue a barrier on every shard queue under the global barrier mutex:
   two concurrent barriers land in the same order on every queue, so the
   shard domains can never arrive at two barriers in opposite orders. *)
let submit_barrier t conn id f =
  ignore (Atomic.fetch_and_add conn.outstanding 1);
  let enq_ns = wall_ns t in
  let brun () =
    let queue_ns = Float.max 0.0 (wall_ns t -. enq_ns) in
    let status, payload =
      try f () with e -> (P.Bad_request, P.Text (Printexc.to_string e))
    in
    push_reply conn { P.id; status; queue_ns; cause = P.no_cause; payload };
    release conn
  in
  let b =
    {
      remaining = Array.length t.queues;
      bmu = Mutex.create ();
      bcv = Condition.create ();
      brun;
      bdone = false;
    }
  in
  Mutex.lock t.barrier_mu;
  Array.iter (fun q -> ignore (Bqueue.push_unbounded q (Barrier b))) t.queues;
  Mutex.unlock t.barrier_mu

let commit_txn store writes () =
  Store.Sharded.txn_begin store;
  (try
     List.iter
       (function
         | P.Tw_put (k, v) -> Store.Sharded.txn_put store ~key:k ~value:v
         | P.Tw_remove k -> Store.Sharded.txn_remove store ~key:k)
       writes;
     Store.Sharded.txn_commit store
   with e ->
     if Store.Sharded.txn_active store then Store.Sharded.txn_abort store;
     raise e);
  (P.Ok, P.Unit)

(* Session-stamped commit: dedup against the session's *home* shard
   (sid mod nshards — stamp-deterministic, key-independent). Runs inside
   the cross-shard barrier, so every shard is parked and touching the
   home shard's table and log is exclusive. A failed commit is not
   recorded: the client's replay re-runs it from scratch. *)
let commit_txn_sess t ~sid ~seq writes () =
  let home = sid mod Store.Sharded.nshards t.store in
  match dedup_check t home ~sid ~seq with
  | Some status -> (status, P.Unit)
  | None ->
      let store = t.store in
      Store.Sharded.txn_begin store;
      let txn_id = Option.value (Store.Sharded.txn_id store) ~default:0 in
      (try
         List.iter
           (function
             | P.Tw_put (k, v) -> Store.Sharded.txn_put store ~key:k ~value:v
             | P.Tw_remove k -> Store.Sharded.txn_remove store ~key:k)
           writes;
         Store.Sharded.txn_commit store
       with e ->
         if Store.Sharded.txn_active store then Store.Sharded.txn_abort store;
         raise e);
      let sys = Store.Sharded.shard store home in
      if Incll.System.ctx sys <> None then begin
        Incll.System.record_session sys ~sid ~seq
          ~status:(P.status_code P.Ok)
          (Incll.Session.Commit { txn_id });
        touch_session t home ~sid ~seq ~status_code:(P.status_code P.Ok)
      end;
      (P.Ok, P.Unit)

let stats_text store fmt () =
  let reg = Store.Sharded.metrics store in
  let text =
    match fmt with
    | P.Stats_json -> Obs.Json.to_string (Obs.Registry.to_json reg)
    | P.Stats_prom -> Obs.Registry.to_prometheus reg
  in
  (P.Ok, P.Text text)

(* Read-your-writes against the connection's buffered transaction: the
   newest buffered write for [k], if any. *)
let txn_shadow buffered k =
  List.find_map
    (function
      | P.Tw_put (k', v) when k' = k -> Some (Some v)
      | P.Tw_remove k' when k' = k -> Some None
      | _ -> None)
    buffered

let handle_request t conn ~draining ({ P.id; op; sess } as req) =
    let route_to_shard key =
      let shard = Store.Sharded.shard_of_key t.store key in
      ignore (Atomic.fetch_and_add conn.outstanding 1);
      if not (Bqueue.try_push t.queues.(shard) (Op (conn, wall_ns t, req)))
      then begin
        simple conn id P.Busy;
        release conn
      end
    in
    match op with
    | P.Txn_begin ->
        (* In-flight work drains to completion, but a drain does not
           accept the start of a new conversation. *)
        if draining then simple conn id P.Shutting_down
        else if conn.txn <> None then simple conn id P.Txn_state
        else begin
          conn.txn <- Some [];
          simple conn id P.Ok
        end
    | P.Txn_write w -> (
        match conn.txn with
        | None -> simple conn id P.Txn_state
        | Some l ->
            conn.txn <- Some (w :: l);
            simple conn id P.Ok)
    | P.Txn_abort ->
        if conn.txn = None then simple conn id P.Txn_state
        else begin
          conn.txn <- None;
          simple conn id P.Ok
        end
    | P.Txn_commit -> (
        match conn.txn with
        | None -> simple conn id P.Txn_state
        | Some l ->
            conn.txn <- None;
            let writes = List.rev l in
            let run =
              match sess with
              | Some (sid, seq) -> commit_txn_sess t ~sid ~seq writes
              | None -> commit_txn t.store writes
            in
            submit_barrier t conn id run)
    | P.Get k -> (
        match Option.bind conn.txn (fun l -> txn_shadow l k) with
        | Some (Some v) ->
            push_reply conn
              {
                P.id;
                status = P.Ok;
                queue_ns = 0.0;
                cause = P.no_cause;
                payload = P.Value v;
              }
        | Some None -> simple conn id P.Not_found
        | None -> route_to_shard k)
    | P.Put (k, _) | P.Delete k -> route_to_shard k
    | P.Scan (start, n) ->
        submit_barrier t conn id (fun () ->
            (P.Ok, P.Pairs (Store.Sharded.scan t.store ~start ~n)))
    | P.Stats fmt -> submit_barrier t conn id (stats_text t.store fmt)
    | P.Hello proposed ->
        if draining then simple conn id P.Shutting_down
        else begin
          (* Grant the proposed id (resuming after a reconnect) or mint a
             fresh one; either way the counter stays above every granted
             id so a fresh session can never collide with a resumed or
             recovered one. *)
          let sid =
            if proposed <= 0 then Atomic.fetch_and_add t.sid_counter 1
            else begin
              let rec bump () =
                let cur = Atomic.get t.sid_counter in
                if
                  proposed + 1 > cur
                  && not (Atomic.compare_and_set t.sid_counter cur (proposed + 1))
                then bump ()
              in
              bump ();
              proposed
            end
          in
          push_reply conn
            {
              P.id;
              status = P.Ok;
              queue_ns = 0.0;
              cause = P.no_cause;
              payload = P.Value (string_of_int sid);
            }
        end

let writer_loop conn =
  let rec loop () =
    match Bqueue.pop_batch conn.replies ~max:64 with
    | [] -> ()
    | frames ->
        (* A dead peer must not wedge the drain: keep popping until the
           last outstanding request closes the queue. *)
        (try List.iter (Sock.write_all conn.fd) frames
         with Unix.Unix_error _ -> ());
        loop ()
  in
  loop ()

let reader_loop t conn =
  let dec = P.Decoder.create () in
  let buf = Bytes.create 65536 in
  let draining = ref false in
  let drain_frames () =
    let continue = ref true in
    while !continue do
      match P.Decoder.next dec with
      | None -> continue := false
      | Some payload ->
          handle_request t conn ~draining:!draining
            (P.request_of_payload payload)
    done
  in
  (* [false] on peer EOF. *)
  let read_once () =
    let n = Sock.read conn.fd buf in
    n > 0
    && begin
         P.Decoder.feed dec buf 0 n;
         drain_frames ();
         true
       end
  in
  (try
     let eof = ref false in
     while (not !eof) && not (Atomic.get t.stop_flag) do
       if Sock.readable conn.fd 0.2 then eof := not (read_once ())
     done;
     (* Final sweep on stop: requests the peer had already delivered are
        processed and answered, not dropped — that is what makes the
        drain graceful. The first pass serves them normally (they beat
        the stop; this connection may even have been accepted from the
        backlog by the stop sweep, its requests never yet read); anything
        arriving after that is bounced Shutting_down so a still-streaming
        peer cannot wedge the drain. *)
     if not !eof then
       while Sock.readable conn.fd 0.0 && read_once () do
         draining := true
       done
   with
  | P.Malformed _ ->
      (* Unframeable garbage: we cannot resync mid-stream, drop the
         connection (in-flight requests still drain below). *)
      ()
  | Unix.Unix_error _ -> ());
  conn.txn <- None;
  release conn

let conn_closed t =
  Mutex.lock t.conns_mu;
  t.live_conns <- t.live_conns - 1;
  if t.live_conns = 0 then Condition.broadcast t.conns_idle;
  Mutex.unlock t.conns_mu

(* The connection's reader thread. It starts the writer thread, and once
   the writer has flushed the last reply it closes the socket and
   retires the connection, whatever was raised on the way. *)
let handle_conn t conn =
  Fun.protect
    ~finally:(fun () ->
      Sock.close_quiet conn.fd;
      conn_closed t)
    (fun () ->
      let writer = Thread.create writer_loop conn in
      reader_loop t conn;
      Thread.join writer)

(* ---------------------------------------------------------- accept side *)

(* Connections are served by threads of the accept domain, so the process
   runs one I/O domain plus one domain per shard however many clients
   connect (OCaml caps a process at 128 domains). *)
let accept_one t =
  match Sock.accept t.listen_fd with
  | None -> ()
  | Some fd -> (
      let conn =
        {
          fd;
          replies = Bqueue.create ~capacity:1024;
          outstanding = Atomic.make 1;
          txn = None;
        }
      in
      Mutex.lock t.conns_mu;
      t.live_conns <- t.live_conns + 1;
      Mutex.unlock t.conns_mu;
      (* No thread to serve it (the OS refused one): close the socket, so
         the peer sees EOF instead of a hang, and keep serving. *)
      match Thread.create (handle_conn t) conn with
      | (_ : Thread.t) -> ()
      | exception _ ->
          Sock.close_quiet fd;
          conn_closed t)

let accept_loop t =
  while not (Atomic.get t.stop_flag) do
    if Sock.readable t.listen_fd 0.2 then accept_one t
  done;
  (* Connections already queued on the backlog when stop arrived were,
     from the peer's side, accepted before the drain began (connect
     completes on enqueue): accept and drain them like established ones
     instead of letting the listen close reset them with their delivered
     requests unread. *)
  while Sock.readable t.listen_fd 0.0 do
    accept_one t
  done;
  Sock.unlisten t.listen_fd t.bound

let start ?config ?(queue_capacity = 1024) ?(batch = 64) ?on_dequeue ?store
    ~variant ~shards addr =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let store =
    match store with
    | Some s -> s
    | None -> Store.Sharded.create ?config variant ~shards
  in
  let shards = Store.Sharded.nshards store in
  let listen_fd, bound = Sock.listen addr in
  let t =
    {
      store;
      queues = Array.init shards (fun _ -> Bqueue.create ~capacity:queue_capacity);
      ledgers =
        Array.init shards (fun i ->
            Obs.Stall.create
              ~registry:(Incll.System.metrics (Store.Sharded.shard store i))
              ());
      sessions = Array.init shards (fun _ -> Hashtbl.create 64);
      sess_clocks = Array.init shards (fun _ -> ref 0);
      c_dedup =
        Array.init shards (fun i ->
            Obs.Registry.counter
              (Incll.System.metrics (Store.Sharded.shard store i))
              "server.dedup_hits");
      sid_counter = Atomic.make 1;
      listen_fd;
      bound;
      stop_flag = Atomic.make false;
      barrier_mu = Mutex.create ();
      conns_mu = Mutex.create ();
      conns_idle = Condition.create ();
      live_conns = 0;
      shard_domains = [];
      accept_domain = None;
      batch;
      on_dequeue;
      t0 = Unix.gettimeofday ();
      stopped = false;
    }
  in
  (* Reseed the dedup tables from the recovery that produced each shard
     (no-op for fresh systems), and keep fresh session ids above every
     recovered one. *)
  for i = 0 to shards - 1 do
    List.iter
      (fun (sid, seq, status) ->
        Hashtbl.replace t.sessions.(i) sid
          { last_seq = seq; last_status = status; stamp = 0 };
        if sid + 1 > Atomic.get t.sid_counter then
          Atomic.set t.sid_counter (sid + 1))
      (Incll.System.recovered_sessions (Store.Sharded.shard store i))
  done;
  t.shard_domains <-
    List.init shards (fun i -> Domain.spawn (fun () -> shard_loop t i));
  t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let addr t = t.bound
let store t = t.store
let nshards t = Array.length t.queues

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stop_flag true;
    Option.iter Domain.join t.accept_domain;
    (* Accept has exited, so no connection can be added. Readers see the
       stop flag within their select timeout, finish their in-flight
       requests, and retire once their writers have flushed. *)
    Mutex.lock t.conns_mu;
    while t.live_conns > 0 do
      Condition.wait t.conns_idle t.conns_mu
    done;
    Mutex.unlock t.conns_mu;
    Array.iter Bqueue.close t.queues;
    List.iter Domain.join t.shard_domains
  end
