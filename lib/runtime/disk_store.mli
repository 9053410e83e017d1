(** The one disk-backed store: a {!Bounded_cache} in memory, and one
    file per entry under the directory an environment variable names.

    Values are pure functions of their keys (compiled plans, tuned
    configs), so a lookup goes memory, then disk, then — for
    {!S.find_or_compile} — compute, and every new value is written
    through.  A disk entry is a Marshal blob of [(version, value)],
    written to a temp file in the same directory and renamed into
    place; a failed write removes its temp file and leaves the entry
    memory-only.  Any read failure — missing file, truncation, version
    skew, unmarshalable bytes — is a miss, so the store can only ever
    cost a recompute, never an error.  Disk entries are never
    evicted; {!S.clear_disk} deletes them.

    This is the only module in [lib/] that reads or writes cache
    files. *)

type stats = {
  hits : int;  (** answered from memory *)
  misses : int;  (** answered by neither memory nor disk *)
  disk_hits : int;  (** answered from disk (then kept in memory) *)
  stores : int;  (** {!S.store} calls *)
  evictions : int;  (** memory entries dropped to stay within the limit *)
}

module type CONFIG = sig
  type value

  val env_var : string
  (** Names the directory; unset or empty keeps the store in memory. *)

  val prefix : string
  val suffix : string
  (** An entry's file is [prefix ^ key ^ suffix]. *)

  val version : int
  (** Bump when [value]'s layout changes: older entries then miss. *)

  val limit : int
  (** Most entries kept in memory. *)
end

module type S = sig
  type value

  type nonrec stats = stats = {
    hits : int;
    misses : int;
    disk_hits : int;
    stores : int;
    evictions : int;
  }

  val env_var : string
  val version : int
  val limit : int

  val dir : unit -> string option
  (** The directory [env_var] names, if set and non-empty. *)

  val path : string -> string option
  (** Where a key's entry lives on disk, when {!dir} is set. *)

  val find : string -> value option
  (** Memory, then disk (keeping a disk hit in memory), then [None]. *)

  val find_or_compile : string -> (unit -> value) -> value
  (** {!find}, else [compute ()] — run outside the lock, kept in
      memory and written to disk.  Two racing misses on one key both
      compute; the later write wins. *)

  val peek : string -> value option
  (** Memory, then disk, counting nothing and caching nothing. *)

  val mem : string -> bool
  (** Is this key in memory? *)

  val on_disk : string -> bool
  (** Does {!dir} hold an entry file for this key? *)

  val store : string -> value -> unit
  (** Insert or replace, in memory and on disk. *)

  val stats : unit -> stats

  val clear : unit -> unit
  (** Drop every memory entry and zero the counters; disk entries are
      left alone. *)

  val disk_entries : unit -> string list
  (** Entry file names under {!dir}, sorted (empty when unset). *)

  val clear_disk : unit -> int
  (** Delete every disk entry; returns how many were removed. *)
end

module Make (C : CONFIG) : S with type value = C.value
