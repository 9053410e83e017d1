(** ETDG coarsening (paper §5.1).

    Reduces the depth and dimension of an ETDG so that nested control
    overhead disappears and data parallelism is exposed at one level:

    - {b operation-node lowering}: user-defined math decomposes into
      finer block dimensions — elementwise axes of the result join the
      enclosing block as [map] dimensions, and matmul contractions (or
      row reductions) become a one-dimensional child block (Fig. 5);
    - {b width-wise merging}: sibling blocks merge horizontally when
      they share depth and operator vector and have no dataflow edge
      between them; producer/consumer blocks merge vertically when each
      aligned dimension pair composes under the operator-composition
      rules (Table 3);
    - {b depth-wise merging}: two adjacent dimensions of one block fuse
      when every buffer relates to them through compatible access or
      invariant relations, turning e.g. a contiguous access into a
      strided one;
    - {b access-map fusion}: composing the quasi-affine maps of
      directly-connected buffer reads removes single-assignment copies.

    The paper's Table 3 fragment is reconstructed as follows: composing
    two operators takes the stronger of the two in the lattice
    [map < reduce < fold < scan] (the merged dimension must carry every
    dependence either side carries), keeping the direction of any
    directional operator; a left- and a right-directional operator
    (e.g. [scanl] with [scanr]) conflict and do not compose. *)

val compose_ops : Expr.soac_kind -> Expr.soac_kind -> Expr.soac_kind option
(** Table 3: the operator of a merged dimension, or [None] on a
    direction conflict. *)

val lower_block : Ir.graph -> Ir.block -> Ir.block
(** Operation-node lowering of one block (paper Fig. 5): appends [map]
    dimensions for the elementwise result axes, adds rows binding them
    in the access maps of elementwise-participating edges and of the
    write edges, and pushes any matmul contraction / row reduction into
    a one-dimensional child block. *)

val lower : Ir.graph -> Ir.graph
(** {!lower_block} over every top-level block, with every buffer's
    non-unit static axes promoted to programmable dimensions so the
    extended access maps stay well-formed.

    Off the production path: region grouping subsumes it, so
    [Pipeline] runs it only as the diagnostic stage [Lower] (span
    ["coarsen.lower"], e.g. [ftc show --stage coarsen.lower]) and
    targeted tests call it directly. *)

val merge_horizontal : Ir.block -> Ir.block -> Ir.block option
(** Merge two independent sibling blocks (same operator vector, equal
    domains, no dataflow between them).  [None] when ineligible. *)

val merge_vertical : Ir.block -> Ir.block -> Ir.block option
(** Merge a producer block into its consumer when every aligned
    dimension has equal extent and composable operators; the
    intermediate buffer's edges survive (it becomes block-internal
    traffic for the emitter).  [None] when ineligible. *)

val merge_dims : Ir.block -> int -> int -> Ir.block option
(** Depth-wise coarsening: fuse adjacent dimensions [i] and [i+1] of a
    block into one dimension of extent [n_i * n_{i+1}] when every edge
    relates to both through access/invariant relations with compatible
    maps.  Contiguous + invariant becomes constantly-strided, as in the
    paper.  [None] when ineligible. *)

val fuse_access_maps : Ir.graph -> Ir.graph
(** Access-map fusion (paper §5.1): the single-assignment property
    forces a copy block whenever a buffer is logically mutated more
    than once.  A copy block — empty body, one read through map [f],
    one identity write to buffer [B] — is eliminated by rewriting every
    read of [B] at map [h] into a read of the source buffer at the
    composition [f ∘ h], then dropping the block and (when orphaned)
    the intermediate buffer. *)

val group_regions : Ir.graph -> Ir.graph
(** Regroup the [2^a] region blocks of each operator nest into a single
    block over the hull of their domains — the emitter's view, where
    the regions become predication inside one persistent kernel.

    Runs as [Pipeline] stage [Group] (span ["coarsen.group"]); don't
    chain it by hand outside targeted tests. *)

val merge_only : Ir.graph -> Ir.graph
(** Width-wise merging to a fixed point without operation-node
    lowering — the form the code emitter consumes (lowered dimensions
    are re-derived during tile materialisation).

    Runs as [Pipeline] stage [Merge] (span ["coarsen.merge"]); don't
    chain it by hand outside targeted tests. *)
