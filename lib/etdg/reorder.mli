(** Access reordering (paper §5.2).

    For a block node [Γ_d] the pass finds a unimodular [T] such that
    [j = T t]:

    - the first row of [T] is the hyperplane [π(t) = Σ_{i ∈ dep} t_i],
      which satisfies [π · d ≥ 1] for every dependence distance vector
      (Lamport's condition) — after the transform, only the outermost
      dimension is sequential and every inner dimension is parallel
      (the fully-permutable property of compute-operator nests);
    - the remaining rows complete a permutation of the original
      dimensions, keeping one of the dependence dimensions and ordering
      the rest so that dimensions carrying data reuse (non-trivial null
      space of some read's access matrix) sit innermost, with a minimal
      number of interchanges (stable sort).

    Access maps become [M T⁻¹] and the domain is rewritten through
    [T⁻¹]; loop bounds of the transformed domain come out of
    Fourier–Motzkin elimination ({!Domain.bounds}). *)

type result = {
  transform : int array array;       (** the unimodular [T] *)
  block : Ir.block;                  (** block with transformed domain and maps *)
  dep_dims : int list;               (** dimensions carrying dependencies *)
  reuse_dims : int list;             (** dimensions carrying data reuse *)
  wavefront : bool;                  (** true when [T] is not the identity *)
}

val reuse_dims : Ir.block -> int list
(** Dimensions that appear with a non-zero entry in some read edge's
    access-matrix null space — iterating them revisits the same data. *)

val transform_matrix : ?dvs:int array list -> Ir.block -> int array array
(** The unimodular reordering matrix for a block (identity when the
    block is fully parallel).  [dvs]: the block's
    {!Dependence.block_distance_vectors}, when the caller already
    derived them. *)

val hyperplane : Ir.block -> int array option
(** The first row of {!transform_matrix} — the hyperplane whose value
    numbers a point's wavefront — without building the rest of [T];
    [None] when the block carries no dependence (its whole domain is
    one anti-chain).  The one definition {!Vm}'s scheduler and the race
    prover ([Effects]) key fronts on. *)

val apply : Ir.block -> result
(** Build and apply the transformation.  Asserts legality: [T] is
    unimodular and every dependence distance stays lexicographically
    positive.  The distance vectors, the reuse dimensions and [T⁻¹] are
    each derived once; the domain goes through {!Domain.preimage} and
    every access map through {!Access_map.precompose} with that one
    inverse. *)

val sequential_steps : result -> int
(** Extent of the transformed outermost (sequential) dimension — the
    number of wavefront steps the emitter must serialise.  1 for a
    fully parallel block. *)

val parallel_tasks_at : result -> int -> int
(** Number of iteration points in wavefront step [k] (product of the
    inner bounds via Fourier–Motzkin), i.e. the data parallelism
    available at that step. *)
