(** The auto-tuner's knob space: which parameters of a compiled plan
    can move, and what values they may take.

    A space is extracted from the {e default-config} plan of a program
    ({!of_plan}): every kernel carrying a per-cell matmul
    ([Plan.ks_gemm]) contributes a {e tile site} — one
    {!Tile.tiles} choice for that block — and two global axes
    complete the space: elementwise chunk size and reuse collapsing
    (the §5.2 ablation knob, here a searchable boolean).  Every axis
    is one the device model prices; the CPU engine reads none of
    them.

    Points are mixed-radix index vectors ([int array]); index 0 on
    every axis is the default value, so the all-zeros point decodes to
    exactly the configuration an untuned compile uses.  Validity —
    base-tile alignment and the shared-memory capacity of the device,
    with tiles clamped to the site's dimensions first — is a predicate
    over points, not baked into the axes, so searches must call
    {!valid_point} (the samplers already do). *)

type gemm_site = {
  g_block : string;  (** block name (kernel name minus [".waveN"]) *)
  g_m : int;
  g_n : int;
  g_k : int;
}

type space = {
  s_sites : gemm_site list;
  s_tiles : Tile.tiles list;   (** the tile menu, site axes index into it *)
  s_elem_chunks : int list;    (** always starts with 0 = unchunked *)
  s_collapse : bool list;      (** [true] first: reuse collapsing on *)
  s_smem_limit : int;          (** device shared memory per SM, bytes *)
}

type candidate = {
  c_tile : Tile.config;
  c_collapse : bool;  (** [collapse_reuse] compile flag *)
}

val default_candidate : candidate
(** {!Tile.default_config} with reuse collapsing on — what an untuned
    compile does. *)

val of_plan : ?device:Device.t -> Plan.t -> space
(** Extract the knob space of a plan (default device: {!Device.a100},
    whose L1/shared capacity becomes the validity limit). *)

val axes : space -> int array
(** Axis sizes, in order: one per site ([|s_tiles| + 1]: 0 is
    "untiled"), then elem chunks, collapse. *)

val default_point : space -> int array
(** All zeros. *)

val cardinality : space -> int
(** Product of axis sizes — the full grid, before validity. *)

val decode : space -> int array -> candidate

val valid_point : space -> int array -> bool
(** Every selected tile, clamped to its site's [m]/[n]/[k], is
    base-tile aligned and fits [s_smem_limit]
    ({!Tile.valid_tiles}). *)

val valid : space -> candidate -> bool
(** The same constraint on a decoded candidate (any candidate built by
    {!decode} from a valid point satisfies it). *)

val point_key : int array -> string
(** Canonical memo key for a point. *)

val sample_point : space -> Rng.t -> int array
(** Uniform draw over the grid, rejection-sampled to validity
    (deterministic given the Rng state; falls back to the default
    point if 64 draws all fail). *)

val mutate : space -> Rng.t -> int array -> int array
(** Re-draw one uniformly chosen axis; rejection-sampled to validity
    (returns a copy of the input if 64 tries all fail). *)

val crossover : Rng.t -> int array -> int array -> int array
(** Uniform crossover: each coordinate from either parent with equal
    probability. *)

val to_string : candidate -> string
(** Human-readable config, e.g.
    ["blk=cell:128x64x32,elem_chunk=4096"] — ["default"]
    for the untuned candidate. *)
