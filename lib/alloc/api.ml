type t = {
  alloc : aligned:bool -> size:int -> int;
  dealloc : int -> unit;
}

let of_durable d =
  {
    alloc =
      (* Not [~aligned] straight through: filling the optional argument
         from a variable would box [Some aligned] on every call. *)
      (fun ~aligned ~size ->
        if aligned then Durable.alloc ~aligned:true d ~size
        else Durable.alloc d ~size);
    dealloc = Durable.dealloc d;
  }

let of_transient tr =
  {
    alloc = (fun ~aligned ~size -> Transient.alloc ~aligned tr ~size);
    dealloc = Transient.dealloc tr;
  }
