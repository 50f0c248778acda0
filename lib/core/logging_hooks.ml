module L = Masstree.Leaf
module I = Masstree.Internal
module EW = Masstree.Epoch_word

let log_leaf_if_needed ctx leaf =
  let region = ctx.Ctx.region in
  let g = Ctx.current ctx in
  let ew = L.epoch_word region leaf in
  if not (EW.logged ew && EW.epoch ew = g) then begin
    Ctx.log_node ctx ~addr:leaf ~size:L.node_bytes;
    (* Re-read the epoch: a full-log retry may have advanced it. *)
    L.set_epoch_word region leaf
      (EW.make ~epoch:(Ctx.current ctx) ~ins_allowed:true ~logged:true)
  end

let pre_structural ctx nodes =
  let region = ctx.Ctx.region in
  let rec attempt () =
    let e0 = Ctx.current ctx in
    let log_one (addr, size) =
      if addr = Nvm.Layout.off_root then begin
        if Nvm.Region.read_int region Nvm.Layout.off_root_meta <> e0 then begin
          Ctx.log_node ctx ~addr ~size;
          Nvm.Region.write_int region Nvm.Layout.off_root_meta e0
        end
      end
      else if L.is_leaf_node region addr then log_leaf_if_needed ctx addr
      else if I.logged_epoch region addr <> e0 then begin
        Ctx.log_node ctx ~addr ~size:I.node_bytes;
        I.set_logged_epoch region addr e0
      end
    in
    List.iter log_one nodes;
    if Ctx.current ctx <> e0 then attempt ()
  in
  attempt ()

(* Replay already restored any logged node; accesses only need to keep the
   epoch marker monotonic so stale logged=true flags from previous runs
   cannot be mistaken for this epoch's. Epochs grow across restarts, so a
   stale marker never equals a current epoch — nothing to do. *)
let on_leaf_access ~leaf:_ = ()

let make ctx =
  {
    Masstree.Hooks.on_leaf_access;
    pre_leaf_insert = (fun ~leaf -> log_leaf_if_needed ctx leaf);
    pre_leaf_remove = (fun ~leaf -> log_leaf_if_needed ctx leaf);
    pre_leaf_update = (fun ~leaf ~slot:_ -> log_leaf_if_needed ctx leaf);
    pre_structural = (fun nodes -> pre_structural ctx nodes);
  }
