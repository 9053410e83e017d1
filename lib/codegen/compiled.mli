(** The compiled plan executor — the one engine that runs a plan on
    values: straight-line block closures over preallocated storage.

    Evaluating a block point by point through {!Interp.eval_prim}
    would pay, at {e every} iteration point, for operand-map
    application, store lookups, primitive dispatch and a fresh tensor
    per intermediate.  [Compiled.compile] hoists all of it to plan
    time:

    - {b kernels}: each block body op is lowered once ({!Lower.kernel})
      to a monomorphic destination-passing kernel — no per-point
      dispatch, no closure-boxed floats;
    - {b strides}: every cell access map is folded into a flat-offset
      base + per-axis weight vector, with bounds validated over the
      whole iteration domain at compile time;
    - {b storage}: intermediate buffers live in a single {!Arena} sized
      by the static liveness layout ({!Liveness.layout}), so the
      steady-state run loop performs {e zero} heap allocation;
    - {b schedule}: each block's schedule ({!Vm.schedule} in any
      {!Vm.order}, wavefront by default) is precomputed into flat int
      arrays, and blocks whose same-front disjointness is not
      statically [Proven] are downgraded to the sequential order at
      compile time (reported through {!Vm.set_fallback_handler});
    - {b fusion} ([fuse], default on): elementwise tails coalesce onto
      their producer's scratch slot (the chain computes in one tensor,
      often directly in the destination cell via the write-in-place
      redirect); GEMMs swallow a fused fixed-bias [Add] and/or
      activation into a {!Tensor.matmul_into} epilogue; and each front
      executes as one batched range loop rather than a closure call per
      point;
    - {b GEMM operands}: a GEMM reads its right operand where it lives
      — tensors and the arena are born 64-byte aligned ({!Aligned}),
      so nothing is copied to align it.  [Matmul_t] materialises [bᵀ]
      as the interpreter does: once at compile time for a block
      constant, shared by every worker, else per call into a
      per-worker scratch;
    - {b results}: bitwise identical to the reference interpreter
      ({!Interp}) after projection — the kernels reproduce its exact
      float operation order, and every fusion transformation preserves
      the per-element value chain;
    - {b per-worker layout}: no two workers ever write one 64-byte
      line of engine state.  A worker's per-point state in a block is
      two arrays, padded past their last line — its slots (the
      scratch-slot table, then every op's operands) and its write
      offsets — and its scratch tensors own their lines
      ({!Tensor.uninit_exclusive}), whatever the worker count, so the
      workers of one front, and the per-device executables of a
      sharded run, never false-share.

    An executable owns its storage, output cells included: it is
    reusable across runs ([load] / [execute] / [outputs]), each run
    overwriting the previous run's outputs, but not thread-safe — callers that
    want concurrent runs compile one executable each.  A graph no
    engine can run — partial buffer access, an access arity that does
    not match the domain, an index out of extent, an operand of the
    wrong rank or count, a write into an input, a stored value whose
    shape differs from the buffer's element — raises
    {!Vm.Execution_error} naming the block at compile time, before any
    caller tensor is bound. *)

type t

val compile :
  ?schedule:(Ir.block -> int array list -> Vm.schedule * string option) ->
  ?workers:int ->
  ?fuse:bool ->
  Ir.graph ->
  t
(** [compile g] builds an executable for the wavefront schedule, or
    for whatever schedule [schedule] gives.  [schedule b points]: block [b]'s guarded
    schedule over its enumerated [points] and the downgrade reason, as
    {!Vm.guarded_schedule} gives them (default: the race-guarded
    [Wavefront] order, unproven blocks downgraded to sequential) —
    {!Executor} picks [Run_opts.order] this way, and a caller compiling
    several executables of one graph computes it once, so the race
    guard reports once and every executable numbers points alike.
    Parallel fronts take the pool's default claim size.  [workers]
    (default 1): how many domains may execute fronts concurrently —
    sizes the per-worker kernel scratch;
    {!execute}'s pool must not be larger.  [fuse] (default [true]):
    enable scratch-slot coalescing and GEMM epilogue swallowing —
    bitwise-neutral; turn off only for differential testing.
    @raise Vm.Execution_error naming the block on a graph no engine can
    run (see above, and an operand with no edge or literal). *)

val load : t -> (string * Fractal.t) list -> unit
(** Bind the named input FractalTensors (leaves are aliased, not
    copied, and read afresh by every run: a tensor changed in place
    between two runs is read with its new values), clearing all
    intermediate/output cells.
    @raise Vm.Execution_error on a missing or mis-shaped input. *)

val execute : ?pool:Domain_pool.t -> t -> unit
(** One run over the loaded inputs.  Without [pool] (or with a pool of
    size 1) every front runs inline on the caller — this path allocates
    zero minor words.  An [Ordered] block runs as one front, in order,
    never on the pool.
    @raise Vm.Execution_error on unwritten reads / double writes. *)

val outputs : t -> (string * Fractal.t) list
(** Every [Output] buffer, in buffer order, as the executable's own
    cells — not copied.  The list and its tensors are the same on
    every call and stay valid until the next {!execute}, which
    overwrites them; a caller that keeps a result across runs copies
    it.  Allocates nothing.
    @raise Vm.Execution_error if an output cell is unwritten. *)

(** {1 External placement}

    A sharded runner ([Dist_exec]) keeps one executable per device and
    drives it directly: it decides which cells each executable holds
    and which points it runs.  Stores are numbered by the buffer's
    position in [g_buffers]; a block's points are numbered in schedule
    order — the concatenation of its [Ordered] sequence or of its
    [Fronts] arrays — and blocks by dataflow order. *)

val reset : t -> unit
(** Mark every cell of every store unwritten, inputs included, and
    release the input bindings: the executable then holds none of a
    caller's tensors. *)

val exec_range : t -> int -> int -> int -> unit
(** [exec_range exe block lo hi] runs points [lo, hi) of the block on
    worker 0, with the same checks as {!execute}.
    @raise Vm.Execution_error on unwritten reads / double writes. *)

val bind_input : t -> store:int -> int -> Tensor.t -> unit
(** Alias one input cell to the tensor and mark it written. *)

val copy_cell : src:t -> dst:t -> store:int -> int -> unit
(** Copy one written intermediate or output cell between two
    executables of the same graph and mark it written in [dst]; an
    unwritten source cell copies nothing. *)

val cell : t -> store:int -> int -> Tensor.t
(** The cell's tensor, not copied, written or not.  An [Output] cell is
    the same tensor for the executable's lifetime. *)

val written : t -> store:int -> int -> bool
(** Whether the cell is marked written. *)

val shares_storage : t -> int -> int -> bool
(** Whether the cells of two distinct stores share memory: the liveness
    arena placed buffers with disjoint lifetimes over the same bytes.
    Input and output stores share with none. *)

(** {1 Introspection} *)

val arena_floats : t -> int
(** Arena capacity in float64 elements (0 when no intermediate was
    placed). *)

val workers : t -> int

val stats : t -> Vm.block_stats list
(** Per-block schedule shape, in dataflow order. *)

val sequential_fallbacks : t -> string list
(** Names of blocks the compile-time race guard downgraded. *)

type fusion_stats = {
  fs_block : string;
  fs_groups : int;  (** fusion groups with >= 2 members *)
  fs_fused_ops : int;  (** ops coalesced into another op's slot *)
  fs_swallowed : int;  (** tails folded into GEMM epilogues *)
}

val fusion_stats : t -> fusion_stats list
(** What the fusion pass did to each block, in dataflow order (all
    zeros when compiled with [fuse:false]). *)
