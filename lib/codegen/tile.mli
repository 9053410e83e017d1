(** The tile library's traffic model (paper §5.3).

    Code emission elevates SIMT programming to tile processing: buffers
    decompose into base tiles aligned with the tensor-core instruction
    shape, composed into larger tiles sized for each cache level.  This
    module computes the memory traffic such a tiled kernel generates —
    the quantity the emitter attaches to kernel specs — and defines the
    {e tile configuration} vocabulary the auto-tuner ([lib/tune])
    searches over.

    For a GEMM of [m×k @ k×n] with square cache tiles of side [tile]:
    every output tile loads [tile×k] of A and [k×tile] of B through
    shared memory, so L1 staging traffic is
    [4·m·n·k·(1/tile_m + 1/tile_n)] bytes; compulsory traffic is one
    pass over A, B and the output.  Edge tiles that do not divide the
    problem still stage whole (clamped) tiles, so all strip counts
    round up. *)

val base_tile : int
(** Side of the tensor-core-aligned base tile (16). *)

val default_tile : int
(** Default cache-tile side used by the baseline models (128). *)

val ceil_div : int -> int -> int

val gemm_l1_bytes : ?tile_m:int -> ?tile_n:int -> m:int -> n:int -> k:int -> unit -> float
(** Shared-memory staging traffic of a tiled GEMM, in bytes.  Edge
    tiles count as whole tiles (ceiling division), so the model is
    correct on shapes the tile sides do not divide. *)

val gemm_tasks : ?tile_m:int -> ?tile_n:int -> m:int -> n:int -> unit -> int
(** Number of output tiles = independent thread blocks. *)

val elementwise_l1_bytes : float -> float
(** Streaming elementwise kernels move each byte through L1 once
    in and once out: [2x] the touched bytes. *)

(** {1 Tile configurations}

    A {!config} is what the tuner searches: per-block cache tile
    shapes for GEMM-bearing kernels — only what the device model
    prices; the CPU engine never reads a config.  The emitter
    ({!Emit.emit_plan}) takes a config; {!default_config} reproduces
    the legacy untiled emission exactly (one thread block per
    iteration cell, whole-problem staging), so plans only change when
    a tuner (or caller) supplies explicit tiles. *)

type tiles = { t_m : int; t_n : int; t_k : int }
(** Cache-tile sides of a GEMM macro-kernel, in elements. *)

type config = {
  cfg_tiles : (string * tiles) list;
      (** per-ETDG-block tiles, keyed by block name; a block without
          an entry emits untiled *)
}

val default_config : config
(** No tiles — emission under this config is bitwise-identical to the
    pre-tuning emitter. *)

val is_default : config -> bool

val tiles_for : config -> string -> tiles option
(** The tiles a block emits under, or [None] (legacy emission). *)

val tiles_to_string : tiles -> string
(** ["128x128x32"]. *)

val config_to_string : config -> string
(** Compact human-readable rendering (["default"] for
    {!default_config}). *)

val aligned : int -> bool
(** Positive and a multiple of {!base_tile} — the divisibility
    constraint every tile side must satisfy. *)

val smem_bytes : tiles -> int
(** Shared-memory footprint of one thread block:
    [(tm·tk + tk·tn + tm·tn) · 4] bytes (A tile, B tile, accumulator
    tile). *)

val valid_tiles :
  ?smem_limit:int -> ?m:int -> ?n:int -> ?k:int -> tiles -> bool
(** The tuner's validity constraint: every side {!aligned}, and the
    footprint of the {e clamped} tiles (sides never exceed the problem
    dims [m]/[n]/[k] when given) within [smem_limit] (default 192 KB,
    the A100's unified L1/shared per SM — pass the device model's
    [l1_bytes_per_sm]). *)

val gemm_tile_l1_bytes : tiles -> m:int -> n:int -> k:int -> float
(** Per-cell staging traffic of a GEMM emitted under explicit tiles:
    padded result round-trip plus operand strips re-staged once per
    tile row / column: what the emitter charges an explicitly-tiled
    block, and so what the simulator prices for a tuned plan. *)

val gemm_tile_tasks : tiles -> m:int -> n:int -> int
(** Output tiles per cell = thread blocks per cell under explicit
    tiles. *)
