(** Schedules for running a compiled ETDG on values, and the pieces
    every value engine shares.

    {!Compiled} is the one engine that runs a plan on values; the
    sharded runner ([Dist_exec]) drives one {!Compiled} executable per
    device.  [Interp] stays the reference semantics both are checked
    against.  This module holds what they share: the iteration orders
    and the schedules they induce, the one race guard
    ({!guarded_schedule}), the live read edges, per-block schedule
    statistics, the trace spans, the row-major cell walk of a nested
    FractalTensor, and {!Execution_error}.

    Three orders are supported:
    - [Sequential]: directional lexicographic over each block's
      original domain — right-directional dimensions (foldr/scanr)
      iterate descending, everything else ascending — the naive order,
      always legal; strictly single-threaded;
    - [Wavefront]: points grouped into anti-chains by the hyperplane
      value [Σ_{i ∈ dep} t_i]; fronts execute in hyperplane order and
      the points {e within} each front may fan out across a
      {!Domain_pool}.  Points of one front are mutually independent
      whenever the schedule is legal (the static verifier in
      [lib/analysis] is the safety net), and each point writes a
      distinct cell of the single-assignment buffers, so parallel
      execution is race-free and — because each point's value does not
      depend on the order its siblings run — bitwise identical to
      [Sequential] for legal schedules;
    - [Reverse]: reverse lexicographic — illegal for any
      dependence-carrying block; used by tests to show the engine
      detects bad schedules (reads of unwritten cells) instead of
      silently producing garbage.

    When a {!Trace} sink is installed, [Wavefront] runs emit spans on
    track ["vm"]: one ["vm.block"] span per block (args: points,
    fronts, max_width, parallelism = points/fronts) and one
    ["vm.front"] span per anti-chain (args: block, front, width,
    domains).  [ftc profile] surfaces these. *)

type order = Sequential | Wavefront | Reverse

exception Execution_error of string
(** Raised by every value engine: at prepare time on a graph no engine
    can run (naming the block), at run time on a missing or mis-shaped
    input, an unwritten read or a double write. *)

(** {1 Cells} *)

val strides : int array -> int array
(** Row-major strides of a buffer shaped [dims]. *)

val iter_cells : int array -> Fractal.t -> (int -> Tensor.t -> unit) -> unit
(** [f pos t] for every leaf in row-major order; raises
    [Execution_error] unless the value is shaped [dims]. *)

val of_cells : int array -> (int -> Tensor.t) -> Fractal.t
(** The value shaped [dims] whose row-major leaves are [cell pos]. *)

(** {1 Schedules} *)

(** How a block's points run: [Ordered] is one strict sequence (the
    directional lexicographic order or its reverse); [Fronts] is the
    wavefront anti-chains in hyperplane order, each an array of
    mutually-independent points.  {!Compiled} flattens it to int
    arrays at plan time; the sharded runner places its points. *)
type schedule =
  | Ordered of int array list
  | Fronts of (int * int array array) list

val schedule : order -> Ir.block -> int array list -> schedule
(** [schedule order b points] groups the block's iteration points for
    [order]: directional lexicographic for
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
(** The ["vm.block"] / ["vm.front"] spans {!Compiled} emits. *)

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
(** The one race guard of {!Compiled.compile} and [Dist_exec.prepare]:
    {!schedule}, except that [Fronts] with a {!race_downgrade} reason
    become the sequential schedule, with the reason (also reported to
    the fallback handler).
    [~race_guard:false] skips the check. *)

(** {1 Reads} *)

val live_reads : Ir.block -> Ir.edge list
(** The read edges a point's evaluation consults (no dead or
    literal-shadowed labels). *)
