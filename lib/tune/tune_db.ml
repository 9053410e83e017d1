(* Persistent best-known-config database, [FT_PLAN_CACHE]-style.

   A record stores the winning configuration of one search, keyed by
   the program's compile digest (Pipeline.program_key / source_key at
   the *default* tile config) plus a digest of the device description.
   Lookups go memory → disk ([FT_TUNE_DB] directory) → miss; disk
   entries are versioned Marshal blobs written atomically (temp +
   rename), and any read failure — missing file, version skew,
   corruption — is a miss, so the database can only ever cost a
   search, never an error.  [store] keeps the better record when one
   already exists: the database is monotone in quality. *)

let env_var = "FT_TUNE_DB"

(* 4: Tile.config lost its two CPU-engine fields (front chunk and
   fusion) and the record its oracle name (3 had dropped the
   pack-blocking field).  Records under Marshal are layout-sensitive;
   version skew reads as a miss, never an error. *)
let version = 4

type record = {
  tr_key : string;
  tr_device : string;
  tr_tile : Tile.config;
  tr_collapse : bool;
  tr_cost : float;
  tr_strategy : string;
  tr_budget : int;
  tr_seed : int;
}

type stats = {
  hits : int; misses : int; disk_hits : int; stores : int; evictions : int;
}

(* Above the measured peak of live records (see DESIGN.md, "Caches"). *)
let limit = 64
let table : (string, record) Bounded_cache.t = Bounded_cache.create ~limit

(* A memory miss answered from disk is a disk hit, not a miss. *)
let disk_hits = Atomic.make 0
let stores = Atomic.make 0

let stats () =
  let { Bounded_cache.hits; misses; evictions; _ } = Bounded_cache.stats table in
  let disk_hits = Atomic.get disk_hits in
  { hits; misses = misses - disk_hits; disk_hits; stores = Atomic.get stores;
    evictions }

let clear_memory () =
  Bounded_cache.clear table;
  Atomic.set disk_hits 0;
  Atomic.set stores 0

let device_digest (d : Device.t) =
  Digest.to_hex (Digest.string (Marshal.to_string d []))

let dir () =
  match Sys.getenv_opt env_var with
  | Some d when d <> "" -> Some d
  | _ -> None

let mem_key ~key ~device = key ^ ":" ^ device

let path_in ~dir ~key ~device =
  Filename.concat dir (Printf.sprintf "%s.%s.ftune" key device)

let entry_path ~key ~device =
  Option.map (fun d -> path_in ~dir:d ~key ~device) (dir ())

let read_disk path =
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let v, (r : record) = Marshal.from_channel ic in
          if v = version then Some r else None)
    with _ -> None

let write_disk path (r : record) =
  try
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> Marshal.to_channel oc (version, r) []);
    Sys.rename tmp path
  with _ -> ()

let lookup ~key ~device =
  let mk = mem_key ~key ~device in
  match Bounded_cache.find table mk with
  | Some r -> Some r
  | None -> (
      match Option.bind (entry_path ~key ~device) read_disk with
      | Some r ->
          Atomic.incr disk_hits;
          Bounded_cache.put table mk r;
          Some r
      | None -> None)

let better (a : record) (b : record) = a.tr_cost <= b.tr_cost

let store (r : record) =
  let mk = mem_key ~key:r.tr_key ~device:r.tr_device in
  let keep =
    match Bounded_cache.peek table mk with
    | Some old when better old r -> false
    | _ -> (
        match entry_path ~key:r.tr_key ~device:r.tr_device with
        | Some path -> (
            match read_disk path with
            | Some old when better old r ->
                (* disk already holds a better config: adopt it *)
                Bounded_cache.put table mk old;
                false
            | _ -> true)
        | None -> true)
  in
  if keep then begin
    Atomic.incr stores;
    Bounded_cache.put table mk r;
    match entry_path ~key:r.tr_key ~device:r.tr_device with
    | Some path -> write_disk path r
    | None -> ()
  end

let disk_entries () =
  match dir () with
  | None -> []
  | Some d -> (
      match Sys.readdir d with
      | exception Sys_error _ -> []
      | files ->
          Array.to_list files
          |> List.filter (fun f -> Filename.check_suffix f ".ftune")
          |> List.sort compare)

let clear_disk () =
  match dir () with
  | None -> 0
  | Some d ->
      List.fold_left
        (fun n f ->
          match Sys.remove (Filename.concat d f) with
          | () -> n + 1
          | exception Sys_error _ -> n)
        0 (disk_entries ())

let install ?(device = Device.a100) () =
  let dev = device_digest device in
  Pipeline.set_tune_source (fun key ->
      Option.map (fun r -> r.tr_tile) (lookup ~key ~device:dev))
