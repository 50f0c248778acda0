module L = Masstree.Leaf
module EW = Masstree.Epoch_word
module V = Masstree.Val_incll

(* Value InCLL [which]: if it logs a slot overwritten in a failed epoch,
   restore that slot; then invalidate it with the marker's low bits. The
   restore precedes the invalidation in the same line, making a torn
   recovery re-runnable. *)
let restore_val_incll ctx leaf ~which ~higher ~marker =
  let region = ctx.Ctx.region in
  let low = L.incll region leaf ~which in
  let low_epoch = Nvm.Region.split_top region in
  if not (V.is_invalid low) then begin
    (* Reconstruct the word's full epoch from nodeEpoch's high bits
       (Listing 4). *)
    let e = Epoch.Manager.combine ~higher ~lower16:low_epoch in
    if Epoch.Manager.is_failed ctx.Ctx.em e then
      L.set_value region leaf ~slot:(V.idx low) (V.ptr low)
  end;
  L.set_incll region leaf ~which ~low_epoch:(Ctx.lower16 marker) ~low:V.invalid

let lazy_leaf_recovery ctx ~leaf =
  let region = ctx.Ctx.region in
  let marker = Epoch.Manager.first_epoch_of_run ctx.Ctx.em in
  let epoch = EW.epoch (L.epoch_word region leaf) in
  if epoch < marker then begin
    (* InCLLp: the permutation restore shares a line with the re-stamp
       below, so if the stamp persists the restore did too. *)
    if Epoch.Manager.is_failed ctx.Ctx.em epoch then
      L.set_perm region leaf (L.perm_incll region leaf);
    let higher = Ctx.higher epoch in
    restore_val_incll ctx leaf ~which:0 ~higher ~marker;
    restore_val_incll ctx leaf ~which:1 ~higher ~marker;
    L.set_epoch_word region leaf
      (EW.make ~epoch:marker ~ins_allowed:true ~logged:false);
    (* basenode::initlock() — the lock word is transient state that "might
       be in a bad state after crash" (Listing 4). *)
    L.set_version region leaf 0;
    ctx.Ctx.counters.Ctx.lazy_recoveries <-
      ctx.Ctx.counters.Ctx.lazy_recoveries + 1
  end

let eager_sweep ctx tree dalloc =
  Masstree.Tree.iter_nodes tree
    ~leaf:(fun n -> lazy_leaf_recovery ctx ~leaf:n)
    ~internal:(fun _ -> ());
  Alloc.Durable.recover_all_chains dalloc
