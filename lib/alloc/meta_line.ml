let init region ~line ~head ~epoch =
  Nvm.Region.write_int region line head;
  Nvm.Region.write_int region (line + 8) head;
  Nvm.Region.write_int region (line + 16) epoch

let head region ~line = Nvm.Region.read_int region line
let line_epoch region line = Nvm.Region.read_int region (line + 16)

let touch region ~line ~epoch =
  if line_epoch region line <> epoch then begin
    let current = Nvm.Region.read_int region line in
    (* Undo copy strictly before the epoch tag (same line => PCSO order). *)
    Nvm.Region.write_int region (line + 8) current;
    Nvm.Region.write_int region (line + 16) epoch;
    Nvm.Region.release_fence region
  end

let set_head region ~line v = Nvm.Region.write_int region line v

let recover region ~line ~is_failed ~marker =
  if is_failed (line_epoch region line) then begin
    let saved = Nvm.Region.read_int region (line + 8) in
    (* Restore before re-stamping, so a crash mid-recovery retries. *)
    Nvm.Region.write_int region line saved;
    Nvm.Region.write_int region (line + 16) marker;
    Nvm.Region.release_fence region
  end
