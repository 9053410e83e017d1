(** Functional distributed execution: a shard plan, planned once and
    executed for real on OCaml domains — one per simulated device —
    with explicit transfers, through the compiled block closures.

    This module is placement plus pull transfers; it has no evaluator
    of its own.  {!prepare} walks the guarded schedule
    ({!Vm.guarded_schedule}, the race guard every engine shares)
    symbolically.  Before each wavefront front (or same-owner
    sequential segment) it pulls every cell the front reads but its
    owner does not hold from the cell's {e home} — the device that
    wrote it, or the host for inputs — aggregated into one logged
    transfer per (src, dst, buffer) per phase.  Halo exchange therefore
    emerges from the access maps.  None of this depends on values, so
    the pulls, the homes, the cross-shard double-write check and the
    event log are all fixed at prepare time.

    {!execute} replays the plan: it binds the inputs, and per phase
    blits the planned cells into the owning device's memory, then runs
    each device's point ranges through that device's own {!Compiled}
    executable (one per device, compiled once against the shared
    schedule), one device per {!Domain_pool} domain.

    Values are bitwise identical to the 1-device compiled engine by
    construction (same schedules, same kernels, copies are blits).  A cell
    written on two shards fails the run after the phase that writes it — the
    dynamic counterpart of {!Shard.verify}.  Blocks without a [Proven]
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
(** One run.  Outputs are in buffer order, exactly as {!Compiled.outputs}
    returns them.  When it returns or raises, the prepared value holds none
    of the inputs ({!Compiled.reset}), so the next call reads its inputs
    afresh.  Without a pool the per-device shards of a front run on the
    coordinator (still sharded, still transferred — just not concurrent).
    @raise Vm.Execution_error as ["device D, block B: reason"] when a
    point fails inside a device's shard. *)

val log : prepared -> log
(** The run's event log — the same value for every {!execute}. *)

val xfer_totals : log -> int * float
(** (transfer count, total bytes) over the whole run. *)

val device_xfers : log -> int
(** Transfers with both endpoints on devices — halo-exchange and
    pipeline traffic, excluding input scatter and output gather. *)
