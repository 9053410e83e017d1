(** One record for every execution knob — the argument of the unified
    {!Executor} front door.  Callers build one with
    [{ Run_opts.default with ... }] and hand it to {!Executor.run}.
    Every choice runs the one value engine, {!Compiled}; the knobs pick
    its schedule, parallelism and fusion, never a different engine. *)

type t = {
  order : Vm.order;
      (** the schedule every block follows ({!Vm.order}): [Wavefront]
          (the default) fans each anti-chain out over the pool,
          [Sequential] runs the naive directional order on one domain. *)
  domains : int option;
      (** pool size; [None] uses the ambient {!Domain_pool.num_domains}.
          [Some 1] guarantees a pool-free, allocation-free run loop. *)
  fuse : bool;
      (** scratch-slot coalescing and GEMM epilogue swallowing
          ({!Compiled.compile}'s [fuse]).  Bitwise-neutral; [false]
          exists for differential testing, the [compiled-nofuse]
          oracle and the benchmark's no-fusion ablation rows. *)
}

val default : t
(** [Wavefront], ambient domains, fusion on.
    Parallel fronts always take the pool's default claim size, and no
    tuned config reaches these options: the tuner searches only what
    the device model prices. *)
