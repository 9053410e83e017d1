(** One record for every execution knob — the argument of the unified
    {!Executor} front door.  Callers build one with
    [{ Run_opts.default with ... }] (or {!interpreted}) and hand it to
    {!Executor.run}. *)

(** How to execute:
    - [Compiled]: the straight-line closure engine ({!Compiled}) —
      schedules, kernels, strides and storage resolved at plan time;
      falls back to the interpreting VM (in wavefront order) when the
      graph uses a feature the compiler does not support, so results
      and errors are identical either way;
    - [Interpret order]: the reference interpreter core ({!Vm}) in the
      given order. *)
type mode = Interpret of Vm.order | Compiled

(** Shadow-memory recording: [Shadow_off] never records, [Shadow_env]
    (the default) records when [FT_SHADOW] is [1], [true] or [on] —
    {!Executor} is the only place that reads it — and [Shadow_on]
    records and cross-checks unconditionally. *)
type shadow = Shadow_off | Shadow_env | Shadow_on

type t = {
  mode : mode;
  domains : int option;
      (** pool size; [None] uses the ambient {!Domain_pool.num_domains}.
          [Some 1] guarantees a pool-free, allocation-free run loop. *)
  chunk : int option;
      (** points of a front one domain claims at a time (the tuner's
          [vm_chunk] knob); [None] or non-positive = pool default. *)
  race_guard : bool;
      (** consult {!Effects.block_race} before fanning a block out;
          anything but [Proven] downgrades that block to sequential. *)
  shadow : shadow;
  arena : bool;
      (** back compiled intermediates with the single liveness-sized
          {!Arena} (zero steady-state allocation); [false] gives each
          cell its own preallocated tensor.  Interpreted modes ignore
          it. *)
  fuse : bool;
      (** compiled engine only: scratch-slot coalescing, GEMM epilogue
          swallowing and B-panel prepacking ({!Compiled.compile}'s
          [fuse]).  Bitwise-neutral; [false] exists for differential
          testing and the [compiled-nofuse] oracle. *)
  pack : Tensor.pack_blocking option;
      (** mc/kc/nc blocking for prepacked B panels; [None] uses
          {!Tensor.default_pack_blocking}.  Any choice gives identical
          bits (the tuner searches it for speed only). *)
}

val default : t
(** [Compiled], ambient domains, default chunking, race guard on,
    [Shadow_env], arena on, fusion on, default packing. *)

val interpreted : Vm.order -> t
(** [default] with [mode = Interpret order]. *)

val mode_name : mode -> string

val to_string : t -> string
(** One-line rendering for reports and traces. *)
