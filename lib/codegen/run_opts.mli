(** One record for every execution knob — the argument of the unified
    {!Executor} front door.  Callers build one with
    [{ Run_opts.default with ... }] and hand it to {!Executor.run}.
    Every choice runs the one value engine, {!Compiled}; the knobs pick
    its schedule, parallelism and storage, never a different engine. *)

(** Shadow-memory recording: [Shadow_off] never records, [Shadow_env]
    (the default) records when [FT_SHADOW] is [1], [true] or [on] —
    {!Executor} is the only place that reads it — and [Shadow_on]
    records and cross-checks unconditionally. *)
type shadow = Shadow_off | Shadow_env | Shadow_on

type t = {
  order : Vm.order;
      (** the schedule every block follows ({!Vm.order}): [Wavefront]
          (the default) fans each anti-chain out over the pool,
          [Sequential] runs the naive directional order on one domain,
          [Reverse] is the illegal order tests use to show an unwritten
          read is caught. *)
  domains : int option;
      (** pool size; [None] uses the ambient {!Domain_pool.num_domains}.
          [Some 1] guarantees a pool-free, allocation-free run loop. *)
  chunk : int option;
      (** points of a front one domain claims at a time (the tuner's
          [vm_chunk] knob); [None] or non-positive = pool default. *)
  shadow : shadow;
  arena : bool;
      (** back compiled intermediates with the single liveness-sized
          {!Arena} (zero steady-state allocation); [false] gives each
          cell its own preallocated tensor. *)
  fuse : bool;
      (** scratch-slot coalescing, GEMM epilogue swallowing and aligned
          B-operand copies ({!Compiled.compile}'s [fuse]).
          Bitwise-neutral; [false] exists for differential testing and
          the [compiled-nofuse] oracle. *)
}

val default : t
(** [Wavefront], ambient domains, default chunking, [Shadow_env],
    arena on, fusion on. *)

val with_tile : Tile.config -> t -> t
(** [o] with a tuned config's compiled-engine knobs: [chunk] from
    [cfg_vm_chunk], [fuse] from [cfg_fuse].  Both are bitwise-neutral. *)

val to_string : t -> string
(** One-line rendering for reports and traces. *)
