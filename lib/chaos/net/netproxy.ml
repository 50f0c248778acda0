(* Frame-level network fault injector: a socket proxy between a wire
   client and the serving engine that understands the frame boundaries
   of [Wire.Proto] and applies a deterministic [Chaos.Plan] schedule of
   net.* faults to the frame stream — drop a frame, deliver it late,
   deliver it twice, cut it mid-bytes, or sever the connection.

   Determinism: faults are scheduled by *frame ordinal per direction*
   ([{site = Net_drop; hit = 5}] faults the 5th relayed frame in that
   direction), not by time, so a seeded workload replays the same fault
   sequence every run. The proxy keeps its own counters — the global
   [Chaos.Plan] injector singleton is for single-domain crash plans and
   is not touched here.

   Each relayed connection runs on one thread of the accept domain that
   pumps both directions through a select loop, so the proxy costs one
   domain however many connections it relays (OCaml caps a process at
   128 domains, and the engine it fronts may share the process). *)

module P = Wire.Proto
module Sock = Wire.Sock

type sched = {
  mutable points : Chaos.Plan.point list;  (* ordered by hit *)
  mutable frames : int;  (* frames seen in this direction *)
}

type t = {
  listen_fd : Unix.file_descr;
  bound : Sock.addr;
  upstream : Sock.addr;
  stop_flag : bool Atomic.t;
  mutable accept_domain : unit Domain.t option;
  mu : Mutex.t;  (* live_conns + schedules + injected *)
  idle : Condition.t;  (* signalled when [live_conns] hits 0 *)
  mutable live_conns : int;
  up : sched;  (* client -> server *)
  down : sched;  (* server -> client *)
  mutable injected : int;  (* faults injected, both directions *)
  on_fault : (Chaos.Plan.point -> unit) option;
}

let net_site = function
  | Chaos.Site.Net_drop | Net_delay | Net_dup | Net_trunc | Net_sever -> true
  | _ -> false

let check_sched = function
  | None -> []
  | Some pts ->
      List.iter
        (fun { Chaos.Plan.site; _ } ->
          if not (net_site site) then
            invalid_arg
              ("Netproxy: non-net site in schedule: "
              ^ Chaos.Site.to_string site))
        pts;
      List.sort (fun a b -> compare a.Chaos.Plan.hit b.Chaos.Plan.hit) pts

(* Under [t.mu]: the fault (if any) scheduled for the next frame of this
   direction. *)
let next_fault t sched =
  Mutex.lock t.mu;
  sched.frames <- sched.frames + 1;
  let fault =
    match sched.points with
    | { Chaos.Plan.hit; site } :: tl when sched.frames >= hit ->
        sched.points <- tl;
        t.injected <- t.injected + 1;
        Some { Chaos.Plan.site; hit }
    | _ -> None
  in
  Mutex.unlock t.mu;
  (match (fault, t.on_fault) with
  | Some p, Some f -> f p
  | _ -> ());
  fault

let frame_of_payload payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

exception Severed

(* Sever both sides of the relayed connection; both peers see EOF. *)
let sever a b =
  (try Unix.shutdown a Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.shutdown b Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* Relay one complete frame, applying at most one scheduled fault. *)
let relay t sched ~src ~dst payload =
  let frame = frame_of_payload payload in
  match next_fault t sched with
  | None -> Sock.write_all dst frame
  | Some { Chaos.Plan.site = Chaos.Site.Net_drop; _ } -> ()
  | Some { site = Net_delay; _ } ->
      (try Unix.sleepf 0.15 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      Sock.write_all dst frame
  | Some { site = Net_dup; _ } ->
      Sock.write_all dst frame;
      Sock.write_all dst frame
  | Some { site = Net_trunc; _ } ->
      (* Torn frame: deliver the length prefix plus part of the payload,
         then cut the connection — the receiver's decoder must hold the
         partial frame without mis-parsing it. *)
      let cut = 4 + max 1 (String.length payload / 2) in
      Sock.write_all dst
        (String.sub frame 0 (min cut (String.length frame - 1)));
      sever src dst;
      raise Severed
  | Some { site = Net_sever; _ } ->
      sever src dst;
      raise Severed
  | Some _ -> (* schedules are validated net-only *) Sock.write_all dst frame

(* Pump both directions of one relayed connection until EOF, a severing
   fault, or proxy stop. *)
let conn_loop t ~client ~server =
  let dir_up = (t.up, P.Decoder.create (), client, server) in
  let dir_down = (t.down, P.Decoder.create (), server, client) in
  let buf = Bytes.create 65536 in
  (try
     let eof = ref false in
     while (not !eof) && not (Atomic.get t.stop_flag) do
       match
         Sock.restart_eintr (fun () -> Unix.select [ client; server ] [] [] 0.2)
       with
       | [], _, _ -> ()
       | ready, _, _ ->
           List.iter
             (fun fd ->
               let sched, dec, src, dst =
                 if fd = client then dir_up else dir_down
               in
               let n = Sock.read src buf in
               if n = 0 then eof := true
               else begin
                 P.Decoder.feed dec buf 0 n;
                 let rec frames () =
                   match P.Decoder.next dec with
                   | Some payload ->
                       relay t sched ~src ~dst payload;
                       frames ()
                   | None -> ()
                 in
                 frames ()
               end)
             ready
     done
   with Severed | Unix.Unix_error _ | End_of_file | P.Malformed _ -> ());
  sever client server;
  Sock.close_quiet client;
  Sock.close_quiet server

let conn_closed t =
  Mutex.lock t.mu;
  t.live_conns <- t.live_conns - 1;
  if t.live_conns = 0 then Condition.broadcast t.idle;
  Mutex.unlock t.mu

let handle_conn t client =
  match Sock.connect t.upstream with
  | exception _ -> Sock.close_quiet client
  | server -> (
      Mutex.lock t.mu;
      t.live_conns <- t.live_conns + 1;
      Mutex.unlock t.mu;
      let pump () =
        Fun.protect
          ~finally:(fun () -> conn_closed t)
          (fun () -> conn_loop t ~client ~server)
      in
      (* No thread to pump it: both peers see EOF, the proxy keeps going. *)
      match Thread.create pump () with
      | (_ : Thread.t) -> ()
      | exception _ ->
          Sock.close_quiet client;
          Sock.close_quiet server;
          conn_closed t)

let accept_loop t =
  while not (Atomic.get t.stop_flag) do
    if Sock.readable t.listen_fd 0.2 then
      Option.iter (handle_conn t) (Sock.accept t.listen_fd)
  done;
  Sock.unlisten t.listen_fd t.bound

let start ?sched_up ?sched_down ?on_fault ~listen ~upstream () =
  (* Relaying into severed sockets is this proxy's job description. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd, bound = Sock.listen listen in
  let t =
    {
      listen_fd;
      bound;
      upstream;
      stop_flag = Atomic.make false;
      accept_domain = None;
      mu = Mutex.create ();
      idle = Condition.create ();
      live_conns = 0;
      up = { points = check_sched sched_up; frames = 0 };
      down = { points = check_sched sched_down; frames = 0 };
      injected = 0;
      on_fault;
    }
  in
  t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let addr t = t.bound

let live_conns t =
  Mutex.lock t.mu;
  let n = t.live_conns in
  Mutex.unlock t.mu;
  n

let injected_total t =
  Mutex.lock t.mu;
  let n = t.injected in
  Mutex.unlock t.mu;
  n

let stop t =
  if not (Atomic.exchange t.stop_flag true) then begin
    Option.iter Domain.join t.accept_domain;
    t.accept_domain <- None;
    (* Pumps see the stop flag within their select timeout. *)
    Mutex.lock t.mu;
    while t.live_conns > 0 do
      Condition.wait t.idle t.mu
    done;
    Mutex.unlock t.mu
  end
