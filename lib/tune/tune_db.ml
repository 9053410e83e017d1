(* Best-known configs, one Disk_store instance under FT_TUNE_DB.  A
   record is keyed by the program's compile digest at the default tile
   config plus the device digest, and [store] keeps the cheaper of the
   old and new records, so the database is monotone in quality. *)

type record = {
  tr_key : string;
  tr_device : string;
  tr_tile : Tile.config;
  tr_cost : float;
  tr_budget : int;
}

(* Version 6: the record lost its strategy name and seed, and its tile
   config the elementwise chunk and default tiles (5 had dropped the
   reuse-collapse flag, 4 the CPU fields and the oracle name).  [limit] sits above the
   measured peak of live records (see DESIGN.md, "Caches"). *)
module Db = Disk_store.Make (struct
  type value = record

  let env_var = "FT_TUNE_DB"
  let prefix = ""
  let suffix = ".ftune"
  let version = 6
  let limit = 64
end)

let device_digest (d : Device.t) =
  Digest.to_hex (Digest.string (Marshal.to_string d []))

let entry_key ~key ~device = key ^ "." ^ device
let lookup ~key ~device = Db.find (entry_key ~key ~device)

let store (r : record) =
  let k = entry_key ~key:r.tr_key ~device:r.tr_device in
  match Db.peek k with
  | Some old when old.tr_cost <= r.tr_cost -> ()
  | _ -> Db.store k r
