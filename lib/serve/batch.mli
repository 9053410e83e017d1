(** The slot map from live requests to batch rows.

    Slots are sticky — a request keeps its row from join to completion
    — and the executed width is drawn from a small bucket ladder
    (powers of two up to [max_batch]), so joins and evictions never
    churn the set of step programs the executor has prepared. *)

type t

val create : max_batch:int -> t
(** @raise Invalid_argument when [max_batch < 1]. *)

val max_batch : t -> int
val buckets : t -> int array
(** The width ladder, ascending; the last entry is [max_batch]. *)

val occupancy : t -> int
val is_empty : t -> bool
val free : t -> int
val span : t -> int
(** Highest occupied slot + 1. *)

val width : t -> int
(** Smallest bucket covering {!span}; [0] when empty. *)

val join : t -> Request.t -> int option
(** Place a request in the lowest free slot; [None] when full. *)

val evict : t -> int -> Request.t option
(** Clear a slot, returning its occupant. *)

val slots : t -> Request.t option array
(** The live slot array (not a copy). *)

(** Occupants in slot order. *)

val compact : t -> unit
(** Repack occupants toward low slots — legal only between ticks. *)
