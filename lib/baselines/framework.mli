(** Scheduling models of the baseline systems the paper compares
    against (§6.1).

    Each baseline runs the same mathematics through a different
    schedule: kernel granularity (how much of the loop nest one launch
    covers), host dispatch cost per kernel, whether elementwise chains
    fuse, whether the system can schedule across the loop nest
    (wavefront), and whether it drives tensor cores.  These parameters,
    not the math, are what separates the bars in Figures 2, 7 and 8 —
    so they are what we model.  Host-overhead values follow commonly
    profiled per-op dispatch costs of the respective stacks. *)

type t = {
  fw_name : string;
  host_us : float;          (** CPU cost to issue one kernel *)
  fuse_elementwise : bool;  (** elementwise chain = one kernel *)
  fuse_cell : bool;         (** whole cell function = one kernel *)
  wavefront : bool;         (** exploits cross-loop parallelism *)
  tensor_core : bool;
}

val pytorch : t
val pytorch_jit : t
val tensorflow : t
val tvm : t
val triton : t
val cudnn : t
val fractaltensor : t
(** Used only for labelling; FractalTensor plans come from
    {!Pipeline.plan_of_graph}. *)
