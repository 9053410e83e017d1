(** Plan execution: resolve buffer accesses against an L2 residency
    model and run the resulting kernels on the simulated device.

    GPUs keep recently-touched buffers in the shared L2 across kernel
    launches; whether a framework's intermediate tensors fit decides
    whether its DAG execution streams from cache or thrashes HBM — the
    effect behind the paper's Table 7.  The model is a byte-capacity
    LRU over logical buffers: a read of a resident buffer costs L2
    traffic only; misses and writes pass through L2 to DRAM.  Buffers
    larger than the cache never become resident.

    The simulator's entry points ({!Executor.simulate}, [metrics],
    [time_ms], [profile]) live in {!Executor}; this module holds the
    residency model and the report types they share with the
    distributed pricing in [lib/dist]. *)

(** The residency model itself, exposed so other pricing paths — the
    distributed simulator gives {e each device} its own cache — resolve
    accesses through exactly the placement logic this module uses. *)
module Cache : sig
  type t

  val create : float -> t
  (** Byte capacity (a device's [l2_bytes]). *)

  val touch : t -> string -> float -> bool
  (** [touch c buffer bytes]: mark the buffer most-recently-used and
      report whether it was already resident. *)
end

val resolve_kernel : Device.t -> Cache.t -> Plan.kernel_spec -> Kernel.t
(** Decide DRAM vs L2 placement for one spec's [Auto] accesses against
    the cache state (mutating it) and build the launchable kernel. *)

type kernel_run = {
  kr_name : string;
  kr_start_us : float;  (** issue time on the simulated stream, µs *)
  kr_time_us : float;
  kr_metrics : Engine.metrics;  (** this launch alone *)
}

type report = {
  r_plan : string;
  r_device : Device.t;
  r_metrics : Engine.metrics;  (** run aggregate *)
  r_kernels : kernel_run list;  (** launch order; sums to [r_metrics] *)
}
