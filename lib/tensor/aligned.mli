(** Float64 payloads born on a 64-byte boundary.

    Every tensor ({!Tensor.uninit} and all that build on it) and every
    {!Arena} takes its payload from {!create}, so a native kernel reads
    full cache lines from any operand it is handed, with no aligned copy
    kept on the side.  A payload of at least {!floor} doubles starts on
    a 64-byte boundary; a smaller one is a plain
    [Bigarray.Array1.create], because aligning it costs allocation time
    and memory for rows that fit in one or two vectors anyway.  Either
    way the result is an ordinary C-layout [Bigarray.Array1] whose
    payload the GC accounts and frees like any other.

    Payloads born from [Marshal] follow the same rule: once this
    module is linked, a float64 bigarray of at least {!floor} elements
    read back by [Marshal] (a tensor from the plan cache, an input
    saved to disk) starts on a 64-byte boundary too.  The marshalled
    bytes are unchanged. *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val floor : int
(** 64: the least element count [create] aligns. *)

val create : int -> buffer
(** [create n] is an uninitialised [n]-element buffer, on a 64-byte
    boundary when [n >= floor].
    @raise Invalid_argument if [n < 0]. *)

val exclusive : int -> buffer
(** [exclusive n] is {!create} for per-worker scratch: an uninitialised
    [n]-element buffer on a 64-byte boundary at any size, whose
    allocation is rounded up to whole 64-byte lines, so no other
    payload shares a cache line with it.  Two domains writing two such
    buffers never contend for a line.
    @raise Invalid_argument if [n < 0]. *)

val is_aligned : buffer -> bool
(** Whether the buffer's first element starts on a 64-byte boundary. *)
