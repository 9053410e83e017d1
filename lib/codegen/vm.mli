(** Functional execution of a compiled ETDG — the one interpreter core.

    The simulator ({!Executor.simulate}) models cost; this module
    models {e values}: it allocates real buffers, walks each block
    node's iteration domain point by point, evaluates the operation
    nodes through {!Interp.eval_prim}, and materialises every read and
    write through the block's access maps.  Running it in wavefront
    order — the schedule the reordering pass derives — and comparing
    against the interpreter machine-checks, for every workload, that
    the compiled schedule computes the same values as the program's
    semantics.

    Other engines share its pieces instead of copying them: the cell
    store and {!point_evaluator} run every point of a sharded run
    ([Dist_exec]), and the race guard {!guarded_schedule} picks the
    schedule for {!run}, {!Compiled} and [Dist_exec] alike.

    Three orders are supported:
    - [Sequential]: directional lexicographic over each block's
      original domain — right-directional dimensions (foldr/scanr)
      iterate descending, everything else ascending — the naive order,
      always legal; strictly single-threaded;
    - [Wavefront]: points grouped into anti-chains by the hyperplane
      value [Σ_{i ∈ dep} t_i]; fronts execute in hyperplane order and
      the points {e within} each front fan out across a
      {!Domain_pool}.  Points of one front are mutually independent
      whenever the schedule is legal (the static verifier in
      [lib/analysis] is the safety net), and each point writes a
      distinct cell of the single-assignment buffers, so parallel
      execution is race-free and — because each point's value does not
      depend on the order its siblings run — bitwise identical to
      [Sequential] for legal schedules;
    - [Reverse]: reverse lexicographic — illegal for any
      dependence-carrying block; used by tests to show the executor
      detects bad schedules (reads of unwritten cells) instead of
      silently producing garbage.

    When a {!Trace} sink is installed, [Wavefront] runs emit spans on
    track ["vm"]: one ["vm.block"] span per block (args: points,
    fronts, max_width, parallelism = points/fronts) and one
    ["vm.front"] span per anti-chain (args: block, front, width,
    domains).  [ftc profile] surfaces these. *)

type order = Sequential | Wavefront | Reverse

exception Execution_error of string

(** {1 Cell store} — one per buffer, row-major; [None] = unwritten *)

type storage = {
  st_dims : int array;
  st_strides : int array;
  st_cells : Tensor.t option array;
}

val alloc : int array -> storage
val strides : int array -> int array
val ravel : storage -> int array -> int

val iter_cells : int array -> Fractal.t -> (int -> Tensor.t -> unit) -> unit
(** [f pos t] for every leaf in row-major order; raises
    [Execution_error] unless the value is shaped [dims]. *)

val of_cells : int array -> (int -> Tensor.t) -> Fractal.t
(** The value shaped [dims] whose row-major leaves are [cell pos]. *)

val load : storage -> Fractal.t -> unit
val unload : string -> storage -> Fractal.t
(** The string names the buffer in the unwritten-cell error. *)

(** {1 Schedules} *)

(** How a block's points run: [Ordered] is one strict sequence (the
    directional lexicographic order or its reverse); [Fronts] is the
    wavefront anti-chains in hyperplane order, each an array of
    mutually-independent points.  Exposed so the compiled executor
    ({!Compiled}) can precompute exactly the schedule this interpreter
    would follow — flattened to int arrays at plan time — and stay
    bitwise-identical to it. *)
type schedule =
  | Ordered of int array list
  | Fronts of (int * int array array) list

val schedule : order -> Ir.block -> int array list -> schedule
(** [schedule order b points] groups the block's iteration points the
    way {!run} executes them: directional lexicographic for
    [Sequential] (right-directional foldr/scanr dimensions descend),
    its reverse for [Reverse], hyperplane anti-chains for
    [Wavefront]. *)

type block_stats = {
  bs_block : string;  (** block name *)
  bs_points : int;  (** total iteration points *)
  bs_fronts : int;  (** number of anti-chains (= points when sequential) *)
  bs_max_width : int;  (** widest anti-chain *)
}
(** Shape of a block's wavefront schedule, independent of execution. *)

val wavefront_stats : Ir.graph -> block_stats list
(** Per-block wavefront statistics in dataflow order: how many
    anti-chains the hyperplane yields and how wide they get — the
    available parallelism, before any pool is involved. *)

val parallelism : block_stats -> float
(** Mean front width, [points / fronts]: the speedup an unbounded
    machine could extract from the wavefront schedule. *)

val stats_of_schedule : string -> schedule -> block_stats
(** Shape of one block's schedule (see {!wavefront_stats}). *)

val block_span : string -> block_stats -> (unit -> 'a) -> 'a

val front_span :
  block:string -> front:int -> width:int -> Domain_pool.t option ->
  (unit -> 'a) -> 'a
(** The ["vm.block"] / ["vm.front"] spans, shared with {!Compiled}. *)

val set_fallback_handler : (string -> string -> unit) -> unit
(** Observer of race-guard downgrades: called with the block name and
    the reason whenever a wavefront block runs sequentially because its
    same-front disjointness is not [Proven].  Default: a warning line
    on stderr. *)

val report_fallback : string -> string -> unit
(** Call the fallback handler with a block name and a reason — for
    engines that replay a downgrade decided at an earlier prepare. *)

val race_downgrade : Ir.graph -> Ir.block -> string option
(** Why the race guard runs this block sequentially; [None] when
    {!Effects.block_race} proves same-front disjointness. *)

val guarded_schedule :
  ?race_guard:bool -> Ir.graph -> order -> Ir.block -> int array list ->
  schedule * string option
(** The one race guard of {!run}, {!Compiled.compile} and
    [Dist_exec.prepare]: {!schedule}, except that [Fronts] with a
    {!race_downgrade} reason become the sequential schedule, with the
    reason (also reported to the fallback handler).
    [~race_guard:false] skips the check. *)

(** {1 Evaluation} *)

val live_reads : Ir.block -> Ir.edge list
(** The read edges evaluation consults (no dead or literal-shadowed
    labels). *)

val point_evaluator :
  ?shadow:Shadow.t -> storage:(int -> storage) -> Ir.block ->
  int -> int array -> unit
(** [point_evaluator ~storage b front point] evaluates [b]'s body at
    [point] against the stores [storage] maps buffer ids to (checking
    the block once, at partial application).  Safe to run
    concurrently across one front; [shadow] records every access
    under anti-chain [front].  Raises [Execution_error] on an
    unwritten read, a double write or an unresolvable operand. *)

val run :
  ?order:order ->
  ?pool:Domain_pool.t ->
  ?chunk:int ->
  ?race_guard:bool ->
  ?shadow:Shadow.t ->
  Ir.graph ->
  (string * Fractal.t) list ->
  (string * Fractal.t) list
(** [run g inputs] executes the graph over the named input
    FractalTensors and returns the contents of every [Output] buffer as
    a nested FractalTensor (in buffer order).  This is what
    {!Executor} runs for [Run_opts.Interpret order]; go through it
    unless you need to own the shadow recorder.

    Default order: [Wavefront], which executes each anti-chain across
    [pool]; without a pool every front runs inline ([Sequential] and
    [Reverse] never touch a pool).  [chunk] (when positive) bounds how
    many points of a front one domain claims at a time — the
    auto-tuner's [vm_chunk] knob; values ≤ 0 or absent use the pool's
    default split.  Chunking never changes results: points of a front
    are mutually independent.

    [race_guard] (default [true]): see {!guarded_schedule}.  Pass
    [false] only to study the unguarded executor (tests do, under the
    shadow recorder).

    [shadow]: record every cell access in the given {!Shadow}
    recorder; the caller finishes and cross-checks it.  [run] reads no
    environment variable — [FT_SHADOW] is {!Executor}'s business.
    @raise Execution_error on missing inputs or un-executable blocks.
    @raise Shadow.Violation on a recorded same-front overlap. *)

val output : (string * Fractal.t) list -> string -> Fractal.t
(** Select one output by buffer name. @raise Not_found *)
