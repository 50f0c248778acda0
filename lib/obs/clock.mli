(** A simulated clock: one mutable float in an all-float record.

    OCaml stores a float field of a mixed record boxed, so a clock kept
    there would allocate on every charge. An all-float record is flat:
    reading [ns] and updating it in place never allocate, which is what
    lets {!Stall} stamp its scopes without boxing a timestamp. *)

type t = { mutable ns : float }

val create : unit -> t
(** A clock at 0. *)
