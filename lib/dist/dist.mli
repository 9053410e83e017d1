(** Distributed execution front door.

    [run] partitions the graph ({!Shard.partition}), statically
    verifies the plan ({!Shard.verify} — an illegal plan raises
    {!Illegal_plan} rather than executing), plans every transfer and
    compiles one executable per device ({!Dist_exec.prepare}), and
    prices the {e same} event log on the multi-device interconnect
    model ({!Engine.dist_run}) — so the simulated scaling curve and the
    bitwise-checked values come from one run, not two stories.  None of
    that depends on input values, so it happens once per (graph,
    devices, strategy, link, device) and is kept in a bounded cache of
    prepared entries; each call then only executes
    ({!Dist_exec.execute}) on real OCaml domains, one per device.

    Pricing: each front becomes per-device kernels, the block's plan
    specs scaled by the fraction of points the device ran
    ({!Plan.scale}), resolved against a {e per-device} L2 residency
    model; after a (block, device) pair's first front its kernels are
    launch-free (a persistent shard kernel fed by the exchanges).
    Transfers pay the link's latency + bytes/bandwidth cost at a
    rendezvous of both endpoints' cursors. *)

exception Illegal_plan of Diagnostic.t list
(** Raised by {!run} when {!Shard.verify} finds an error-severity
    diagnostic (D400 write overlap / D401 insufficient halo). *)

type report = {
  rp_devices : int;
  rp_strategy : string;  (** ["auto"] or the forced strategy name *)
  rp_link : Device.link;
  rp_plan : Shard.plan;
  rp_diags : Diagnostic.t list;  (** note-level findings of a legal plan *)
  rp_outputs : (string * Fractal.t) list;
  rp_log : Dist_exec.log;
  rp_xfers : int;          (** total transfers, scatter/gather included *)
  rp_xfer_gb : float;
  rp_device_xfers : int;   (** device↔device only: halo / re-shard traffic *)
  rp_sim : Engine.dist_metrics;
}

val run :
  ?strategy:Shard.strategy ->
  ?link:Device.link ->
  ?device:Device.t ->
  devices:int ->
  Ir.graph ->
  (string * Fractal.t) list ->
  report
(** Partition, verify, plan, price — once per prepared entry — then
    execute.  Defaults: auto strategy, {!Device.nvlink}, {!Device.a100}.
    Entries are keyed by the graph's digest ([Marshal], as
    {!Plan.digest}) plus devices, strategy, link and device; a call
    with the very graph value an entry was last run with skips the
    digest (graphs are treated as immutable).  A warm
    call returns the entry's log and metrics (the same values as a cold
    one) and reports the entry's race-guard downgrades through the
    fallback handler again.  An entry is checked out while it runs, so
    concurrent calls on one graph each get their own; failures to
    prepare are not cached.  Inputs are read afresh on every call,
    weights changed in place included, and no entry keeps a caller's
    tensor once the call returns.  Outputs are fresh tensors with off-heap data; their bytes
    are counted, and once 256 KiB of them has been handed out the next
    call starts with a minor collection ([Gc.minor]) — without it the
    dead outputs of earlier calls would float up to the runtime's own
    bound, the minor heap's size.
    @raise Illegal_plan on a statically refuted plan (every call)
    @raise Vm.Execution_error on the executor's failure conditions *)

val cache_limit : int
(** Most prepared entries kept, in an exclusive-mode {!Bounded_cache}:
    the least recently used goes first; a running entry is never evicted. *)

val cache_entries : unit -> int
(** Prepared entries currently idle in the cache. *)

val clear_cache : unit -> unit
(** Drop every idle prepared entry and zero the counters. *)

val cache_stats : unit -> Bounded_cache.stats
(** One hit or one miss per {!run}. *)

val differential :
  ?strategy:Shard.strategy ->
  ?link:Device.link ->
  ?device:Device.t ->
  devices:int ->
  Ir.graph ->
  (string * Fractal.t) list ->
  report * bool
(** [run] plus a bitwise comparison ({!Fractal.equal_exact}) of every
    output against the single-device {!Executor.run} — the sharded
    differential. *)

val simulate :
  ?link:Device.link ->
  ?device:Device.t ->
  Ir.graph ->
  Dist_exec.log ->
  Engine.dist_metrics
(** Price an execution log on the interconnect model (see module
    doc).  A log a cached entry already priced, for the same graph,
    link and device, is answered with the stored metrics. *)

val bitwise_equal :
  (string * Fractal.t) list -> (string * Fractal.t) list -> bool
(** Same names, every output {!Fractal.equal_exact}. *)

val pool : int -> Domain_pool.t
(** [Domain_pool.sized]: one domain per device. *)
