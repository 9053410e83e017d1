(** Candidate cost models for the auto-tuner.

    An oracle maps a {!Knobs.candidate} to a scalar cost (lower is
    better).  Searches only ever {e compare} costs from one oracle, so
    the unit is the oracle's own: microseconds of modeled device time
    for {!analytical} and {!simulated}, whatever the runner returns
    for {!measured}. *)

type t

val name : t -> string
val eval : t -> Knobs.candidate -> float

val analytical : ?device:Device.t -> (Knobs.candidate -> Plan.t) -> t
(** Pure roofline over the candidate's plan ({!plan_cost}): instant,
    stateless, and — at fixed tiles — monotone non-decreasing in
    problem size. *)

val simulated : ?device:Device.t -> (Knobs.candidate -> Plan.t) -> t
(** [Executor.time_ms] on the candidate's plan (µs): the full simulator
    including the L2 residency model. *)

val measured : ?repeats:int -> (Knobs.candidate -> float) -> t
(** Median of [repeats] (default 3) calls to the supplied runner —
    e.g. wall-clock of the compiled engine executing the candidate. *)

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
