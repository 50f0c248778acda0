(** Frame-level network fault injector (DESIGN.md §17): a socket proxy
    between a wire client and the serving engine that reassembles
    [Wire.Proto] frames and applies a deterministic {!Chaos.Plan}
    schedule of [net.*] faults to the frame stream.

    Faults are scheduled by {e frame ordinal per direction}: the point
    [{site = Net_drop; hit = 5}] in [sched_down] drops the 5th reply
    frame the server sends — not the 5th second, so a seeded workload
    replays the same fault sequence every run. At most one fault applies
    per frame; points fire in ascending [hit] order.

    Sites: [Net_drop] (frame vanishes), [Net_delay] (delivered ~150 ms
    late), [Net_dup] (delivered twice), [Net_trunc] (cut mid-payload,
    then the connection severed — a torn frame), [Net_sever] (connection
    cut between frames). The proxy keeps its own counters; the global
    {!Chaos.Plan} injector singleton is untouched.

    The proxy runs one domain: it accepts there, and each relayed
    connection is pumped, both directions, by one thread of that
    domain. It can therefore share a process with the engine it fronts
    however many connections it relays. *)

type t

val start :
  ?sched_up:Chaos.Plan.point list ->
  ?sched_down:Chaos.Plan.point list ->
  ?on_fault:(Chaos.Plan.point -> unit) ->
  listen:Wire.Client.addr ->
  upstream:Wire.Client.addr ->
  unit ->
  t
(** Bind [listen] (TCP port 0 resolves; read {!addr}) and relay every
    accepted connection to [upstream]. [sched_up] faults client→server
    frames (requests), [sched_down] server→client frames (replies).
    [on_fault] runs on the pump thread as each fault is injected (e.g. a
    torture harness SIGKILLs the server there). Raises
    [Invalid_argument] if a schedule contains a non-[net.*] site. *)

val addr : t -> Wire.Client.addr
(** The bound downstream address (ephemeral TCP port resolved). *)

val live_conns : t -> int
(** Relayed connections currently open. *)

val injected_total : t -> int
(** Faults actually injected so far, both directions. *)

val stop : t -> unit
(** Stop accepting, sever every relayed connection, and return once
    every pump has finished ({!live_conns} is 0). Idempotent. *)
