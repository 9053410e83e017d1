(** The auto-tuner's knob space: which parameters of a compiled plan
    can move, and what values they may take.

    A space is extracted from the {e default-config} plan of a program
    ({!of_plan}): every kernel carrying a per-cell matmul
    ([Plan.ks_gemm]) contributes a {e tile site} — one {!Tile.tiles}
    choice for that block, or none.  Tile sites are the only axes: they
    are what the device model prices, and the CPU engine reads none of
    them.  Reuse collapsing is not an axis: turning it off never lowers
    the modelled cost.

    Points are mixed-radix index vectors ([int array]); index 0 on
    every axis is "untiled", so the all-zeros point decodes to exactly
    the configuration an untuned compile uses.  Validity — base-tile
    alignment and the shared-memory capacity of the device, with tiles
    clamped to the site's dimensions first — is a predicate over
    points, not baked into the axes, so searches must call
    {!valid_point}. *)

type gemm_site = {
  g_block : string;  (** block name (kernel name minus [".waveN"]) *)
  g_m : int;
  g_n : int;
  g_k : int;
}

type space = {
  s_sites : gemm_site list;
  s_tiles : Tile.tiles list;   (** the tile menu, site axes index into it *)
  s_smem_limit : int;          (** device shared memory per SM, bytes *)
}

type candidate = Tile.config
(** A decoded point: the emission tile config it selects. *)

val of_plan : ?device:Device.t -> Plan.t -> space
(** Extract the knob space of a plan (default device: {!Device.a100},
    whose L1/shared capacity becomes the validity limit). *)

val axes : space -> int array
(** Axis sizes, one per site: [|s_tiles| + 1], 0 being "untiled". *)

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

val to_string : candidate -> string
(** {!Tile.config_to_string}, e.g. ["blk=128x64x32"] — ["default"]
    for the untuned candidate. *)
