(** Code emission for the FractalTensor compiler (paper §5.3 / Fig 3 ⑦).

    Traverses the compiled ETDG and emits macro-kernels:

    - a fully parallel block becomes one kernel over its whole domain;
    - a dependence-carrying block is reordered ({!Reorder}) and becomes
      a persistent fused kernel executing one wavefront step per grid
      synchronisation — only the first step pays a launch;
    - access maps are materialised into per-kernel buffer traffic, with
      data reuse (null-space directions of the access matrix) collapsing
      repeated accesses into one transfer, i.e. materialisation is
      deferred to the highest memory level that can hold the data.

    The resulting {!Plan.t} is what the simulator executes; every
    baseline framework model in [ft_baselines] produces plans for the
    same computation under its own scheduling discipline. *)

val op_flops : Ir.op_node -> float
(** Arithmetic cost of one operation-node application. *)

val block_point_flops : Ir.block -> float
(** FLOPs of one iteration point of a block (its operation nodes plus
    nested children). *)

val emit_plan : ?collapse_reuse:bool -> ?tile:Tile.config -> Ir.graph -> Plan.t
(** Emit the FractalTensor execution plan for an {e already coarsened}
    graph: reorders every block and materialises access maps into
    per-kernel traffic.  [collapse_reuse:false] disables the null-space
    reuse analysis (every access materialises per iteration) — the
    ablation knob for §5.2's deferred materialization.  [tile]
    (default {!Tile.default_config}) selects cache-tile shapes per
    block: under the default config emission is
    bitwise-identical to the untiled emitter; explicit tiles — the
    auto-tuner's output — switch the affected blocks to the
    {!Tile.gemm_tile_l1_bytes} staging model and one thread block per
    output tile.  Emission is recorded as the ["emit"] span on
    installed trace sinks.

    Emission is where §5.2's reordering happens: each block goes
    through {!Reorder.apply} here, and no reordered graph exists
    outside it.  This is the back half of the compiler, not a user
    entry point: call {!Pipeline.compile} (or {!Pipeline.plan}), which
    runs the coarsening stages and the verifier (on the graph in
    original coordinates) before emitting. *)

val block_plan : Ir.graph -> Ir.block -> Plan.kernel_spec list
(** Kernels for a single block (exposed for tests and ablations). *)

val graph_flops : Ir.graph -> float
(** Total arithmetic cost of one full execution: Σ over blocks of
    [block_point_flops × Domain.card] — the numerator of the
    throughput figures [ftc run --repeat] and the benchmark harness
    report. *)
