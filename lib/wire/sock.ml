type addr = Unix_sock of string | Tcp of string * int

let rec restart_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_eintr f

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let k = restart_eintr (fun () -> Unix.write fd b !off (n - !off)) in
    off := !off + k
  done

let read fd buf =
  restart_eintr (fun () -> Unix.read fd buf 0 (Bytes.length buf))

let readable fd timeout =
  match restart_eintr (fun () -> Unix.select [ fd ] [] [] timeout) with
  | [], _, _ -> false
  | _ -> true

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

let inet_addr host =
  try (Unix.gethostbyname host).Unix.h_addr_list.(0)
  with Not_found -> Unix.inet_addr_of_string host

(* Run [setup] on a fresh stream socket for [addr]; the socket is closed
   if [setup] raises. *)
let with_socket addr setup =
  let domain, sockaddr, tcp =
    match addr with
    | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path, false)
    | Tcp (host, port) ->
        (Unix.PF_INET, Unix.ADDR_INET (inet_addr host, port), true)
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try setup fd sockaddr ~tcp
   with e ->
     close_quiet fd;
     raise e);
  fd

let connect addr =
  with_socket addr (fun fd sockaddr ~tcp ->
      if tcp then Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.connect fd sockaddr)

let listen addr =
  (match addr with Unix_sock path -> unlink_quiet path | Tcp _ -> ());
  let fd =
    with_socket addr (fun fd sockaddr ~tcp ->
        if tcp then Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd sockaddr;
        Unix.listen fd 64)
  in
  match (addr, Unix.getsockname fd) with
  | Tcp (host, _), Unix.ADDR_INET (_, port) -> (fd, Tcp (host, port))
  | _ -> (fd, addr)

let accept listen_fd =
  match Unix.accept listen_fd with
  | fd, _ ->
      (* Fails harmlessly on a unix socket. *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      Some fd
  | exception Unix.Unix_error _ -> None

let unlisten fd addr =
  close_quiet fd;
  match addr with Unix_sock path -> unlink_quiet path | Tcp _ -> ()
