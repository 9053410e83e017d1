(** Kernel plans: what a scheduling policy actually launches.

    A plan is an ordered list of kernel specifications.  Unlike
    {!Kernel.t}, a spec separates {e which buffers} a kernel touches
    from {e where} the bytes end up: the executor ({!Exec}) decides
    DRAM vs L2 placement with a residency model, so the same spec
    yields different traffic depending on what earlier kernels left in
    cache — the deferred-materialization effect the paper exploits. *)

type dir = R | W

(** Where an access's bytes land.  [Auto] consults the executor's L2
    residency model; the pinned levels let handcrafted baseline models
    state traffic placement explicitly. *)
type hint = Auto | Dram | L2_only | L1_only

type access = {
  a_buffer : string;  (** logical buffer name *)
  a_bytes : float;    (** distinct bytes touched by this kernel *)
  a_dir : dir;
  a_hint : hint;
}

type kernel_spec = {
  ks_name : string;
  ks_flops : float;
  ks_accesses : access list;
  ks_l1_bytes : float;  (** staging traffic through shared memory/L1 *)
  ks_tasks : int;       (** independent thread blocks *)
  ks_tensor_core : bool;
  ks_host_us : float;      (** host-side dispatch cost of the framework *)
  ks_launch_free : bool;   (** step of a persistent fused kernel: no launch *)
  ks_gemm : (int * int * int) option;
      (** [(m, n, k)] of the per-cell matmul, when the kernel carries
          one — what the auto-tuner's knob-space extraction reads *)
}

type t = {
  plan_name : string;
  kernels : kernel_spec list;
}

val kernel :
  ?l1_bytes:float ->
  ?tensor_core:bool ->
  ?host_us:float ->
  ?launch_free:bool ->
  ?gemm:int * int * int ->
  name:string ->
  flops:float ->
  tasks:int ->
  access list ->
  kernel_spec

val read : ?hint:hint -> string -> float -> access
val write : ?hint:hint -> string -> float -> access

val concat : string -> t list -> t
val repeat : int -> t -> t
(** [repeat n p] issues [p]'s kernels [n] times (steps of a sequential
    loop the policy cannot fuse). *)

val scale : float -> kernel_spec -> kernel_spec
(** [scale f ks]: the share of [ks] a device owning fraction [f] of the
    block's iteration points executes — flops, traffic and L1 staging
    scale linearly, tasks round up (a partial tile still occupies a
    thread block), and the GEMM shape hint drops unless [f = 1].  The
    distributed simulator prices per-device shards with this.
    @raise Invalid_argument outside [0, 1]. *)

val total_kernels : t -> int
