(** The one keyed cache: a mutex, a limit, least-recently-used eviction
    and exact counters.

    {b Shared} entries ({!find}, {!find_or_add}, {!put}) stay cached
    when found, and any number of callers may hold one.  {b Exclusive}
    entries ({!take} or {!take_where}, then {!put} to check back in)
    leave the cache while their caller runs them, so a checked-out
    entry is never evicted nor handed to a second caller: a concurrent
    caller misses and prepares its own, and the last check-in keeps the
    key.

    Every {!find}, {!find_or_add} and {!take} counts one hit or one
    miss; {!take_where} counts a hit when it finds an entry and nothing
    otherwise (its callers fall back to {!take}).  The [peek]s count
    nothing and leave recency alone.  Eviction and [_where] scans are
    linear in the limit. *)

type ('k, 'v) t

type stats = { hits : int; misses : int; evictions : int; entries : int }

val create : limit:int -> ('k, 'v) t
(** @raise Invalid_argument when [limit < 1]. *)

val stats : ('k, 'v) t -> stats

val clear : ('k, 'v) t -> unit
(** Drop every entry and zero the counters. *)

val keys : ('k, 'v) t -> 'k list
(** The cached keys, in no particular order. *)

val find : ('k, 'v) t -> 'k -> 'v option

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** {!find}, else [make ()] — run outside the lock — then {!put}.  Two
    racing misses on one key both make; the later {!put} wins. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace as the most recently used entry; a new key in a
    full cache first evicts the least recently used one. *)

val peek : ('k, 'v) t -> 'k -> 'v option

val peek_where : ('k, 'v) t -> ('k -> 'v -> bool) -> 'v option
(** The most recently used entry satisfying the predicate. *)

val take : ('k, 'v) t -> 'k -> 'v option
(** Check the entry out: remove and return it. *)

val take_where : ('k, 'v) t -> ('k -> 'v -> bool) -> 'v option
(** Check out the most recently used entry satisfying the predicate. *)
