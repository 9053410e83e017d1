(** The tuning database: best-known configurations, persisted.

    Records are keyed by the program's compile digest
    ([Pipeline.program_key] / [source_key] computed at the {e default}
    tile config) plus a digest of the device description — a tuned
    config is only ever applied to the exact program and device it was
    searched for.  Storage mirrors the plan cache: an in-memory table
    always, plus one file per record under the directory named by the
    [FT_TUNE_DB] environment variable when set.  Disk entries are
    versioned Marshal blobs written atomically (temp + rename); any
    read failure — missing file, version skew, corruption — counts as
    a miss.  {!store} keeps whichever of the old and new records has
    the lower cost, so the database is monotone in quality.

    {!install} registers the database as {!Pipeline.set_tune_source},
    after which plan compiles passing [~tune:true] transparently pick
    up the best-known config — no search runs at compile time.  A
    config selects a simulated plan only; no executor reads it. *)

val env_var : string
(** ["FT_TUNE_DB"]. *)

val version : int
(** Bumped whenever the record layout changes; older disk entries then
    read as misses. *)

type record = {
  tr_key : string;       (** program/source digest at default config *)
  tr_device : string;    (** {!device_digest} of the target device *)
  tr_tile : Tile.config;
  tr_collapse : bool;
  tr_cost : float;
      (** the winning evaluation's cost: modelled A100 µs from
          {!Cost_oracle.analytical}, so any two records compare *)
  tr_strategy : string;
  tr_budget : int;
  tr_seed : int;
}

type stats = {
  hits : int; misses : int; disk_hits : int; stores : int; evictions : int;
}

val limit : int
(** Most records kept in memory; disk entries are never evicted. *)

val device_digest : Device.t -> string

val lookup : key:string -> device:string -> record option
(** Memory, then [FT_TUNE_DB] disk (caching the hit in memory), then
    miss. *)

val store : record -> unit
(** Insert unless an existing record for the same (key, device) has
    lower or equal cost (the existing record is adopted into memory in
    that case). *)

val entry_path : key:string -> device:string -> string option
(** Where a record lives on disk, when [FT_TUNE_DB] is set. *)

val stats : unit -> stats

val clear_memory : unit -> unit
(** Drop the in-memory table and zero the counters; disk entries are
    left alone (parallel to [Pipeline.Cache.clear]). *)

val disk_entries : unit -> string list
(** Entry file names under [FT_TUNE_DB] (empty when unset). *)

val clear_disk : unit -> int
(** Delete all disk entries; returns how many were removed. *)

val install : ?device:Device.t -> unit -> unit
(** Register this database as the pipeline's tuned-config source
    (default device: {!Device.a100}). *)
