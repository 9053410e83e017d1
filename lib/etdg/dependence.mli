(** Dependence approximation for array compute operators
    (paper §5.2, Table 4).

    In FractalTensor only aggregate operators introduce iteration-level
    dependencies, each with a {e constant} distance along its own
    dimension; [map] dimensions are fully parallel.  Access operators do
    not create dependencies but can scale the distance (a stride-[s]
    access under a scan makes the distance [s]). *)

val distance_vectors : ?strides:int array -> Expr.soac_kind array -> int array list
(** [distance_vectors ops] gives one distance vector per aggregate
    dimension of a block with operator vector [ops]: the vector is zero
    except for the dependence distance at that dimension ([strides]
    defaults to all-ones).  An empty list means the block is fully
    parallelizable. *)

val block_distance_vectors : Ir.block -> int array list
(** Distance vectors of a block node, with distances refined from its
    self-edges: a read of the block's own output at offset [-s] along an
    aggregate dimension yields distance [s] there. *)

val legal_schedule : int array -> int array list -> bool
(** [legal_schedule a dvs]: the hyperplane [π(t) = a·t] respects every
    dependence iff [a · d >= 1] for each distance vector [d]
    (paper §5.2, Lamport's condition). *)

val carried : transform:int array array -> int array list -> bool
(** [carried ~transform dvs]: under reordering [j = T t] every distance
    vector must remain lexicographically positive — the legality
    condition for a unimodular loop transformation. *)
