(** Functional distributed execution: a shard plan, planned once and
    executed for real on OCaml domains — one per simulated device —
    with explicit transfers, through the compiled block closures.

    This module is placement plus pull transfers; it has no evaluator
    of its own.  {!prepare} walks the guarded schedule
    ({!Vm.guarded_schedule}, the race guard every engine shares)
    symbolically.  Before each wavefront front (or same-owner
    sequential segment) — a {e phase} — it pulls every cell the front
    reads but its owner does not hold from the cell's {e home} — the
    device that wrote it, or the host for inputs — aggregated into one
    logged transfer per (src, dst, buffer) per phase.  Halo exchange
    therefore emerges from the access maps.  None of this depends on
    values, so the pulls, the homes, the cross-shard double-write check
    and the event log are all fixed at prepare time.

    From the plan, {!prepare} gives each device a fixed walk: its own
    phases, each with its host binds, its pulls and its point ranges,
    and the waits the plan implies on other devices' progress.  A pull
    from a device waits until that device has finished the phase that
    wrote the cell (read after write).  A device whose liveness arena
    puts a later buffer over the bytes of a cell another device pulls
    from it waits, before it first writes that buffer, until the pull
    is done (write after read).  A plan with no device-to-device pull
    waits on nothing.

    {!execute} forks once: each device walks its phases with no barrier
    between them, running its point ranges through its own
    {!Compiled} executable (one per device, compiled once against the
    shared schedule).  Devices are claimed by the pool's domains as
    they go; a domain whose devices must all wait claims the next
    unclaimed device, so the walk ends on any pool size, and without a
    pool (or from inside a pool worker) one domain walks every device.

    Values are bitwise identical to the 1-device compiled engine by
    construction (same schedules, same kernels, copies are blits).  A cell
    written on two shards is refuted at {!prepare} and fails every run
    once the devices have run the phases up to the one that writes it —
    the dynamic counterpart of {!Shard.verify}.  Blocks without a [Proven]
    same-front disjointness verdict run sequentially, reported through the
    fallback handler once per {!prepare} and listed in the log.

    Raises {!Vm.Execution_error} on the same conditions as
    {!Compiled}: at {!prepare} on a graph no engine can run, naming the
    block; at {!execute} on a failure while running a device's shard,
    naming the device and the block. *)

val host : int
(** The host endpoint in transfer events ([-1]). *)

type xfer = {
  x_src : int;  (** source device, or {!host} *)
  x_dst : int;
  x_bytes : float;  (** 4-byte/f32 convention over the buffer's element shape *)
  x_cells : int;    (** cells moved in this (aggregated) transfer *)
  x_label : string; (** buffer name *)
}

type event =
  | E_xfer of xfer
  | E_front of {
      ef_block : string;
      ef_points : int array;  (** points executed per device *)
    }

type log = {
  lg_devices : int;
  lg_events : event list;  (** program order *)
  lg_fallbacks : (string * string) list;  (** (block, reason) downgrades *)
}

type prepared
(** A plan bound to a graph: the static transfer plan, its log, and
    the device executables.  Reusable across sequential
    {!execute} calls, not thread-safe. *)

val prepare : plan:Shard.plan -> Ir.graph -> prepared
(** Schedule, compile one executable per device, place, plan every
    transfer and build the log.
    @raise Vm.Execution_error naming the block on a graph
    {!Compiled.compile} refuses — before any caller tensor is bound. *)

val execute :
  ?pool:Domain_pool.t ->
  prepared ->
  (string * Fractal.t) list ->
  (string * Fractal.t) list
(** One run: bind the inputs, fork once on [pool] (one runner per
    domain, at most one per device) and let every device walk its
    phases, then gather.  Outputs are in buffer order, as
    {!Compiled.outputs} lists them, but copied: they are the caller's,
    unchanged by later runs.  When it returns or raises, the prepared
    value holds none of the inputs ({!Compiled.reset}), so the next call
    reads its inputs afresh.  Without a pool, with a pool of one, or
    from inside a pool worker, the caller walks every device (still
    sharded, still transferred — just not concurrent).  Apart from the
    output copies a warm call allocates nothing, on any domain.
    @raise Vm.Execution_error as ["device D, block B: reason"] when a
    point fails inside a device's shard.  Of several failing points the
    one reported is in the lowest (phase, device): the first a
    phase-major run would meet, whatever the timing.  A point's failure
    comes before the plan's cross-shard double write, which is raised
    once every device has stopped. *)

val log : prepared -> log
(** The run's event log — the same value for every {!execute}. *)

val xfer_totals : log -> int * float
(** (transfer count, total bytes) over the whole run. *)

val device_xfers : log -> int
(** Transfers with both endpoints on devices — halo exchange and
    re-sharding between blocks, excluding input scatter and output
    gather. *)
