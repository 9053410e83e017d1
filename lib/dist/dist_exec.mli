(** Functional distributed execution: a shard plan, executed for real
    on OCaml domains — one per simulated device — with explicit
    transfers, over {!Vm}'s interpreter core.

    This module is placement plus pull transfers; it has no evaluator
    of its own.  Every device owns private {!Vm.storage} cell stores
    (plus the host's, holding inputs and gathering outputs), and each
    device's share of a front runs through {!Vm.point_evaluator} bound
    to that device's stores.  Before each wavefront front (or
    same-owner sequential segment) runs, the coordinator pulls every
    cell the front reads but its owner does not hold from the cell's
    {e home} — the device that wrote it, or the host for inputs — as a
    bit-exact blit, logged as one transfer per (src, dst, buffer) per
    phase.  Halo exchange therefore emerges from the access maps.
    Compute within a front fans the per-device shards out across a
    {!Domain_pool}.

    Values are bitwise identical to {!Vm.run} by construction (same
    schedules, same evaluator, copies are blits); the home table
    additionally fails the run on any cross-shard double write — the
    dynamic counterpart of {!Shard.verify}.  The schedule comes from
    the shared race guard {!Vm.guarded_schedule}: blocks without a
    [Proven] same-front disjointness verdict run sequentially
    (reported through the fallback handler and returned in the log).

    Raises {!Vm.Execution_error} on the same conditions as {!Vm.run};
    a failure while running a device's shard names the device and the
    block. *)

val host : int
(** The host endpoint in transfer events ([-1]). *)

type xfer = {
  x_src : int;  (** source device, or {!host} *)
  x_dst : int;
  x_bytes : float;  (** 4-byte/f32 convention *)
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

val run :
  ?pool:Domain_pool.t ->
  plan:Shard.plan ->
  Ir.graph ->
  (string * Fractal.t) list ->
  (string * Fractal.t) list * log
(** Execute the graph under the shard plan.  Outputs are in buffer
    order, exactly as {!Vm.run} returns them.  Without a pool the
    per-device shards of a front run on the coordinator (still
    sharded, still transferred — just not concurrent).
    @raise Vm.Execution_error as ["device D, block B: reason"] when a
    point fails inside a device's shard. *)

val xfer_totals : log -> int * float
(** (transfer count, total bytes) over the whole run. *)

val device_xfers : log -> int
(** Transfers with both endpoints on devices — halo-exchange and
    pipeline traffic, excluding input scatter and output gather. *)
