(** Quasi-affine access maps (paper §4.4).

    An access map [A : P_d → D_m] annotates the dataflow edge between a
    [d]-dimensional block node and an [m]-dimensional buffer node:
    given iteration vector [t], the accessed buffer position is
    [i = M t + o]. *)

type t = {
  matrix : int array array;  (** [m × d] access matrix *)
  offset : int array;        (** [m]-vector *)
  dims_in : int;             (** [d]; kept explicitly so that row-less
                                 maps (reads of rank-0 buffers) stay
                                 well-formed *)
}

val make : ?in_dim:int -> int array array -> int array -> t
(** @raise Invalid_argument when the offset length differs from the
    matrix row count, or when the matrix has no rows and [in_dim] is
    not supplied. *)

val identity : int -> t
(** The map [t ↦ t]. *)

val select : m:int -> pairs:(int * int) list -> ?offset:int array -> unit -> t
(** [select ~m ~pairs ()] builds an [m × d] matrix (with [d] inferred
    as [1 + max] block dim in [pairs]) where each pair
    [(buffer_dim, block_dim)] sets [M.(buffer_dim).(block_dim) = 1].
    Optional [offset] defaults to zero. *)

val in_dim : t -> int
(** [d], the block-node dimension. *)

val out_dim : t -> int
(** [m], the buffer rank. *)

val apply : t -> int array -> int array
(** [apply a t = M t + o]. *)

val row_at : t -> int -> int array -> int
(** [row_at a r t] is row [r] of {!apply}[ a t], computed without
    allocating; for a {!regular} map and [t] of length [d]. *)

val row_range : int array -> int -> (int * int) array -> int * int
(** [row_range row off ext] is the inclusive range [(min, max)] of
    [row · t + off] over the non-empty box [ext] ([(lo, hi_exclusive)]
    per axis, as {!Domain.rect_extents} gives it): an affine function
    over a box attains its extremes at the box's corners, so each
    coefficient's sign picks the end of its axis. *)

val regular : t -> bool
(** Every matrix row has [d] entries and the offset one per row: the
    maps {!row_at} and {!row_range} agree with {!apply} on. *)

val corners_inside : t -> dims:int array -> (int * int) array -> bool
(** [corners_inside a ~dims ext]: whether every row [r] below
    [Array.length dims] stays in [[0, dims.(r))] over the non-empty box
    [ext], decided from its {!row_range}.  For a {!regular} map. *)

val first_outside :
  t -> dims:int array -> ?box:(int * int) array -> int array list ->
  (int * int) option
(** [first_outside a ~dims ?box points] is the first [(row, index)],
    in [points] order and then row order, at which [apply a] leaves
    [[0, dims.(row))], or [None] when every point stays inside.  [dims]
    has one extent per row.  [box], the points' domain as a non-empty
    box ({!Domain.rect_extents}), lets a {!regular} map be proven inside
    from its row ranges alone ({!row_range}); the points are scanned
    only when some row range leaves the extent, to name the point. *)

val compose : t -> t -> t
(** [compose outer inner] is the map [t ↦ outer (inner t)] — access-map
    fusion of directly connected buffer nodes (paper §5.1). *)

val precompose : t -> int array array -> t
(** [precompose a m] is the map [j ↦ a (m j)]: the matrix becomes
    [M m], the offset stays.  With [m = T⁻¹] it is {!after_transform}
    without inverting [T] again — what {!Reorder.apply} does for every
    edge of a block with the one inverse it computed. *)

val after_transform : t -> int array array -> t
(** [after_transform a tm] is the access map under reordered iterations
    [j = T t]: the matrix becomes [M T⁻¹] (paper §5.2).
    @raise Invalid_argument if [tm] is not unimodular. *)

val reuse_directions : t -> int array array
(** Basis of the null space of [M]: iteration directions along which
    the accessed data does not change — the data-reuse carriers of
    paper §5.2. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
