(** A single flat float64 allocation serving every intermediate buffer
    of a compiled plan.

    The compiled executor sizes one arena per plan from the static
    liveness layout ([Liveness.layout] in [lib/analysis]) and carves
    per-buffer views out of it at plan time; steady-state execution
    then performs {e zero} heap allocation — every write lands in a
    preallocated region whose offset was proven interference-free.

    Offsets and lengths are in float64 elements, not bytes: the caller
    converts from the layout's byte convention once, at plan time. *)

type buffer =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val create : floats:int -> t
(** An arena of [max 0 floats] float64 cells, from {!Aligned.create}:
    from 64 cells on it starts on a 64-byte boundary, so a view whose
    offset is a multiple of 8 floats does too.  Contents start zeroed
    so view creation order can never leak uninitialised memory between
    plans. *)

val floats : t -> int
(** Total capacity in float64 elements. *)

val bytes : t -> int
(** Total capacity in bytes ([8 * floats]). *)

val view : t -> off:int -> len:int -> buffer
(** [view a ~off ~len] is the [len]-element window starting [off]
    floats into the arena, sharing its storage.  Views are created at
    plan time only; overlapping views are legal exactly when the
    liveness layout proved the lifetimes disjoint.
    @raise Invalid_argument if the window exceeds the arena. *)
