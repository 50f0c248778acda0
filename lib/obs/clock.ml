type t = { mutable ns : float }

let create () = { ns = 0.0 }
