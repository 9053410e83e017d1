(** The tuning database: best-known configurations, persisted.

    Records are keyed by the program's compile digest
    ([Pipeline.program_key] / [source_key] computed at the {e default}
    tile config) plus a digest of the device description — a tuned
    config is only ever applied to the exact program and device it was
    searched for.  Storage is a {!Disk_store} instance ({!Db}) under
    the directory [FT_TUNE_DB] names, one [<key>.<device>.ftune] file
    per record.  {!store} keeps whichever of the old and new records
    has the lower cost, so the database is monotone in quality.

    Nothing reads the database behind a caller's back: [ftc run],
    [ftc profile] and the conformance [tuned] oracle call {!lookup}
    themselves and pass the record's [tr_tile] to the compile.  A
    config selects a simulated plan only; no executor reads it. *)

type record = {
  tr_key : string;       (** program/source digest at default config *)
  tr_device : string;    (** {!device_digest} of the target device *)
  tr_tile : Tile.config;
  tr_cost : float;
      (** the winning evaluation's cost: modelled A100 µs from
          {!Cost_oracle.analytical}, so any two records compare *)
  tr_budget : int;  (** the search budget that found it *)
}

module Db : Disk_store.S with type value = record
(** The store itself, keyed by {!entry_key}: stats, [clear], disk
    listing and [clear_disk].  [Db.version] is bumped whenever the
    record layout changes; older disk entries then read as misses. *)

val device_digest : Device.t -> string

val entry_key : key:string -> device:string -> string
(** The {!Db} key of a (program key, device digest) pair. *)

val lookup : key:string -> device:string -> record option
(** Memory, then [FT_TUNE_DB] disk (keeping a disk hit in memory),
    then miss. *)

val store : record -> unit
(** Insert unless an existing record for the same (key, device), in
    memory or on disk, has lower or equal cost. *)
