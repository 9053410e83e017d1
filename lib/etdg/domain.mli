(** Iteration domains as systems of affine inequalities, with
    Fourier–Motzkin elimination.

    A block node's iteration domain [P_d] (paper §4.4) is the set of
    integer vectors satisfying every constraint.  Original domains are
    rectangular; after the reordering transformation they become general
    polyhedra (paper Table 5), whose per-dimension loop bounds are
    recovered here by eliminating inner variables (paper §5.2:
    "range constraints … derived using Fourier-Motzkin elimination"). *)

type ineq = { coeffs : int array; const : int }
(** The constraint [coeffs · t + const >= 0]. *)

type t = { dim : int; cs : ineq list }

val rect : lo:int array -> hi:int array -> t
(** The box [lo <= t < hi] (componentwise).
    @raise Invalid_argument on length mismatch. *)

val of_extents : int array -> t
(** [of_extents e] is [rect ~lo:0⃗ ~hi:e]. *)

val add_constraint : t -> ineq -> t

val mem : t -> int array -> bool

val is_empty : t -> bool
(** True when no integer point satisfies the system: a box when some
    extent is empty, a general polyhedron by walking the loop nest
    {!bounds} gives up to the first point; builds no point list
    (domains here are always bounded). *)

val eliminate : t -> int -> t
(** [eliminate d k] projects out variable [k] (Fourier–Motzkin): the
    result's constraints do not mention [k] and every point of [d]
    satisfies them.  The variable keeps its position (its column
    becomes unconstrained). *)

val bounds : t -> int -> outer:int array -> (int * int) option
(** [bounds d k ~outer] gives the integer range [[lo, hi]] (inclusive)
    of variable [k] once variables [0..k-1] are fixed to [outer] and
    variables [k+1..] are eliminated.  [None] when the range is empty.
    This is exactly the nested-loop bound the code emitter needs. *)

val enumerate : t -> int array list
(** All integer points, lexicographic: a box ({!rect_extents}) by
    nested loops over its extents, a general polyhedron by the loop
    nest {!bounds} describes, with each depth's projection eliminated
    once per enumeration rather than once per point prefix.  Each block's domain is
    enumerated once when it is prepared for execution ([Compiled],
    [Dist_exec]), and the race guard and the operand bound checks reuse
    that list; the other consumers count ({!card}) or walk a
    corner set instead. *)

val card : t -> int
(** Number of integer points: the product of the extents for a box
    ({!rect_extents}), a count over the loop nest for a general
    polyhedron — no point list either way. *)

val extend : t -> int array -> t
(** [extend d extents] appends new innermost dimensions, each ranging
    over [[0, extent)]. *)

val unit_bounds : t -> int array * int array * bool
(** [unit_bounds d] is [(lo, hi, box)]: per variable, the tightest
    inclusive bounds its unit-coefficient single-variable constraints
    ([t_k + c >= 0], [-t_k + c >= 0]) give, [min_int] / [max_int] where
    there is none; [box] tells whether every constraint is one of
    those.  One pass over the constraints, no list built. *)

val rect_extents : t -> (int * int) array option
(** When the domain is a box described purely by single-variable
    constraints, its per-dimension [(lo, hi_exclusive)] ranges;
    [None] for general polyhedra. *)

val box_volume : (int * int) array -> int
(** Number of integer points of the box with {!rect_extents}-style
    [(lo, hi_exclusive)] ranges: the product of the extents. *)

val preimage : int array array -> t -> t
(** [preimage m d] is [{j | m j ∈ d}]: every constraint [c·t + k >= 0]
    becomes [(c·m)·j + k >= 0].  With [m = T⁻¹] it is the image of [d]
    under [T]; {!Reorder.apply} inverts [T] once and passes the inverse
    here and to {!Access_map.precompose}. *)

val transform : int array array -> t -> t
(** [transform tm d] is the image [{T t | t ∈ d}] for unimodular [tm]:
    {!preimage} under [T⁻¹].
    @raise Invalid_argument if [tm] is not unimodular. *)

val translate : t -> int array -> t
(** [translate d o] is [{t + o | t ∈ d}]. *)

val pp : Format.formatter -> t -> unit
