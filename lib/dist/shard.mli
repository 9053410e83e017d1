(** Shard plans: partitioning the coarsened ETDG across N simulated
    devices.

    Each top-level block gets a strategy.  The axis-sharded strategies
    split one iteration-domain axis into contiguous per-device chunks:

    - [Batch] takes a {e free} axis (every dependence distance vector
      is zero there) — pure data parallelism;
    - [Sequence] takes a dependence-carrying axis and declares a read
      halo wide enough to cover the largest dependence distance along
      it — the halo-exchange pattern of sequence-parallel scans;
    - [Replicate] keeps a block whole on device 0 — the always-legal
      fallback ([partition] never fails).

    {!verify} decides legality statically: per-device {e write}
    footprints (via {!Effects.subrange_region}) must be pairwise
    disjoint at must-precision, declared halos must cover every
    dependence distance on the sharded axis, and the wavefront race
    verdict must be [Proven] for cross-device fronts to run as
    anti-chains (a per-device partition of a proven-disjoint front is a
    subset family, hence still disjoint).  Codes: D400 write overlap
    (error), D401 insufficient halo (error), D402 unproven disjointness
    (note), D403 sequential-order downgrade (note). *)

type strategy = Batch | Sequence | Replicate

val strategy_name : strategy -> string
val strategy_of_name : string -> strategy option

type block_shard = {
  sh_block : string;
  sh_strategy : strategy;
  sh_axis : int;  (** sharded iteration axis; [-1] when not axis-sharded *)
  sh_lo : int;    (** axis lower bound, inclusive *)
  sh_hi : int;    (** axis upper bound, exclusive *)
  sh_chunk : int; (** axis points per device (last device may get fewer) *)
  sh_halo : int;  (** read halo along [sh_axis] ([Sequence] only) *)
  sh_devices : int;
}

val owner : block_shard -> int array -> int
(** Device owning iteration point [p]: contiguous chunks along
    [sh_axis], device 0 otherwise. *)

type plan = {
  pl_devices : int;
  pl_forced : strategy option;  (** [None] = auto per block *)
  pl_blocks : (string * block_shard) list;  (** dataflow order *)
}

val block_shard : plan -> string -> block_shard
(** @raise Invalid_argument on an unknown block name. *)

val partition : ?strategy:strategy -> devices:int -> Ir.graph -> plan
(** Build a plan.  Auto mode prefers [Batch] (widest free axis), then
    [Sequence] (widest dependence-carrying axis, halo = max distance),
    then [Replicate]; forcing a strategy that does not apply to a block
    degrades that block to [Replicate] rather than failing.
    @raise Invalid_argument when [devices < 1]. *)

val device_ext :
  block_shard -> (int * int) array -> int -> widen:bool -> (int * int) array
(** The sub-box of iteration space device [d] owns, given the block's
    rectangular extents; [~widen:true] grows the sharded axis by the
    halo (read footprints only). *)

val active_devices : block_shard -> int
(** Devices whose chunk is non-empty (≤ [sh_devices]). *)

val verify : Ir.graph -> plan -> Diagnostic.t list
(** Static legality of the plan (see module doc for codes). *)

val legal : Diagnostic.t list -> bool
(** No error-severity findings. *)

val pp_shard : Format.formatter -> block_shard -> unit
