(** The socket layer every wire endpoint shares: the client, the serving
    engine and the fault-injecting proxy. Every blocking call resumes on
    EINTR, so a signal handler firing mid-drain (a second SIGTERM, say)
    never abandons it. *)

type addr = Unix_sock of string | Tcp of string * int

val restart_eintr : (unit -> 'a) -> 'a

val write_all : Unix.file_descr -> string -> unit

val read : Unix.file_descr -> Bytes.t -> int
(** One [read] into the whole buffer; [0] at EOF. *)

val readable : Unix.file_descr -> float -> bool
(** Wait up to [timeout] seconds ([0.0] polls) for input. *)

val close_quiet : Unix.file_descr -> unit
(** Close, ignoring errors. *)

val connect : addr -> Unix.file_descr
(** [TCP_NODELAY] on TCP. Raises [Unix.Unix_error] when nothing listens
    there, without leaking the fd. *)

val listen : addr -> Unix.file_descr * addr
(** Bind and listen, first removing a unix path a dead process left
    behind. The returned address resolves TCP port 0 to the bound port. *)

val accept : Unix.file_descr -> Unix.file_descr option
(** [TCP_NODELAY] on TCP; [None] if the accept failed. *)

val unlisten : Unix.file_descr -> addr -> unit
(** Close a listening socket and remove its unix path, if any. *)
