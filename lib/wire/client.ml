exception Timeout

type addr = Sock.addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      Unix_sock (String.sub s (i + 1) (String.length s - i - 1))
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | Some j -> (
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          match (host, int_of_string_opt port) with
          | "", _ | _, None ->
              invalid_arg ("Client.addr_of_string: bad tcp address " ^ s)
          | host, Some port -> Tcp (host, port))
      | None -> invalid_arg ("Client.addr_of_string: tcp needs host:port " ^ s))
  | _ ->
      invalid_arg
        ("Client.addr_of_string: want unix:/path or tcp:host:port, got " ^ s)

let string_of_addr = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

type t = {
  fd : Unix.file_descr;
  dec : Proto.Decoder.t;
  rbuf : Bytes.t;
  stash : (int, Proto.reply) Hashtbl.t;
  mutable next_id : int;
  mutable in_flight : int;
}

let connect addr =
  {
    fd = Sock.connect addr;
    dec = Proto.Decoder.create ();
    rbuf = Bytes.create 65536;
    stash = Hashtbl.create 64;
    next_id = 0;
    in_flight = 0;
  }

let close t = Sock.close_quiet t.fd

let send ?sess t op =
  let id = t.next_id in
  t.next_id <- (t.next_id + 1) land 0xffffffff;
  Sock.write_all t.fd (Proto.frame_of_request { Proto.id; op; sess });
  t.in_flight <- t.in_flight + 1;
  id

let pending t = t.in_flight + Hashtbl.length t.stash

(* Wait until [t.fd] is readable or [deadline] (absolute, wall clock)
   passes; raises [Timeout] on expiry. The decoder keeps any partial
   frame, so the connection stays usable after a timeout. *)
let rec wait_readable t deadline =
  let remaining = deadline -. Unix.gettimeofday () in
  if remaining <= 0.0 then raise Timeout;
  if not (Sock.readable t.fd remaining) then wait_readable t deadline

(* One socket read into the decoder; the server closing the connection
   is [End_of_file]. *)
let fill t =
  let n = Sock.read t.fd t.rbuf in
  if n = 0 then raise End_of_file;
  Proto.Decoder.feed t.dec t.rbuf 0 n

let rec read_reply ?deadline t =
  match Proto.Decoder.next t.dec with
  | Some payload -> Proto.reply_of_payload payload
  | None ->
      (match deadline with None -> () | Some dl -> wait_readable t dl);
      fill t;
      read_reply ?deadline t

(* Drain the stash first so call/recv interleavings never lose one. *)
let pop_stash t =
  let stashed =
    Hashtbl.fold (fun id r acc -> match acc with None -> Some (id, r) | s -> s)
      t.stash None
  in
  match stashed with
  | Some (id, r) ->
      Hashtbl.remove t.stash id;
      Some r
  | None -> None

let recv ?deadline t =
  match pop_stash t with
  | Some r -> r
  | None ->
      let r = read_reply ?deadline t in
      t.in_flight <- t.in_flight - 1;
      r

let recv_opt t =
  match pop_stash t with
  | Some r -> Some r
  | None ->
      let next () =
        Option.map
          (fun payload ->
            t.in_flight <- t.in_flight - 1;
            Proto.reply_of_payload payload)
          (Proto.Decoder.next t.dec)
      in
      (match next () with
      | None when Sock.readable t.fd 0.0 ->
          fill t;
          next ()
      | r -> r)

let call ?deadline ?sess t op =
  let id = send ?sess t op in
  match Hashtbl.find_opt t.stash id with
  | Some r ->
      Hashtbl.remove t.stash id;
      r
  | None ->
      let rec loop () =
        let r = read_reply ?deadline t in
        t.in_flight <- t.in_flight - 1;
        if r.Proto.id = id then r
        else begin
          Hashtbl.replace t.stash r.Proto.id r;
          loop ()
        end
      in
      loop ()

(* --- convenience wrappers ------------------------------------------ *)

let fail_status what (r : Proto.reply) =
  failwith (Printf.sprintf "%s: %s" what (Proto.status_name r.Proto.status))

let get t k =
  match call t (Proto.Get k) with
  | { Proto.status = Proto.Ok; payload = Proto.Value v; _ } -> Some v
  | { Proto.status = Proto.Not_found; _ } -> None
  | r -> fail_status "get" r

let put t k v =
  match call t (Proto.Put (k, v)) with
  | { Proto.status = Proto.Ok; _ } -> ()
  | r -> fail_status "put" r

let delete t k =
  match call t (Proto.Delete k) with
  | { Proto.status = Proto.Ok; _ } -> true
  | { Proto.status = Proto.Not_found; _ } -> false
  | r -> fail_status "delete" r

let scan t ~start ~n =
  match call t (Proto.Scan (start, n)) with
  | { Proto.status = Proto.Ok; payload = Proto.Pairs l; _ } -> l
  | r -> fail_status "scan" r

let unit_call what t op =
  match call t op with
  | { Proto.status = Proto.Ok; _ } -> ()
  | r -> fail_status what r

let txn_begin t = unit_call "txn_begin" t Proto.Txn_begin
let txn_put t k v = unit_call "txn_put" t (Proto.Txn_write (Proto.Tw_put (k, v)))
let txn_remove t k =
  unit_call "txn_remove" t (Proto.Txn_write (Proto.Tw_remove k))
let txn_commit t = unit_call "txn_commit" t Proto.Txn_commit
let txn_abort t = unit_call "txn_abort" t Proto.Txn_abort

let stats t fmt =
  match call t (Proto.Stats fmt) with
  | { Proto.status = Proto.Ok; payload = Proto.Text s; _ } -> s
  | r -> fail_status "stats" r
