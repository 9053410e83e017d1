(** The auto-tuner's cost model: modelled A100 device time.

    A cost is microseconds of modelled device time, lower is better,
    from the analytical roofline below.  It is model output, never a
    measurement of this host: the tuner searches only the knobs the
    model prices (tile sites, elementwise chunk, reuse collapsing). *)

val analytical :
  ?device:Device.t -> (Knobs.candidate -> Plan.t) -> Knobs.candidate -> float
(** [analytical plan_of c]: {!plan_cost} of [plan_of c] — instant,
    stateless, and (at fixed tiles) monotone non-decreasing in problem
    size. *)

val plan_cost : ?device:Device.t -> Plan.t -> float
(** The analytical model itself: per kernel, the max of wave-quantized
    compute time and per-memory-level transfer times, plus launch and
    host overheads; summed over the plan.  Microseconds. *)

val gemm_cost :
  ?device:Device.t ->
  ?tensor_core:bool ->
  tiles:Tile.tiles option ->
  m:int -> n:int -> k:int ->
  unit ->
  float
(** Analytical cost of a single [m]×[n]×[k] GEMM under a tile choice
    ([None] = legacy whole-problem emission), built from the
    {!Tile} staging model.  At fixed [tiles], monotone non-decreasing
    in each of [m], [n], [k] — the property the QCheck suite
    checks. *)
