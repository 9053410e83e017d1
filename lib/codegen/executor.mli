(** The execution front door: one entry point, one options record.

    A {!Run_opts.t} sets every knob; [run] / [prepare] + [execute] run
    a graph on values, [simulate] and friends price a plan.  There is
    one value engine, {!Compiled}: straight-line block closures over
    arena-backed storage, zero steady-state allocation, scheduled in
    [Run_opts.order] by the one race guard ({!Vm.guarded_schedule}).
    Its outputs are checked bitwise against the reference interpreter
    ({!Interp}) by [ftc run] and [ftc conform].  This module resolves
    the pool. *)

type prepared
(** A graph readied for repeated execution: the compiled executable and
    the resolved pool ({!Domain_pool.sized}; once reset, fronts run
    inline).  Stateful — reusable across sequential [execute] calls,
    not thread-safe. *)

val prepare : ?opts:Run_opts.t -> Ir.graph -> prepared
(** Resolve options (default {!Run_opts.default}) and compile: this is
    where {!Compiled.compile} runs — plan-time lowering, arena layout,
    schedule precomputation in [opts.order], race verdicts.
    @raise Vm.Execution_error naming the block on a graph no engine can
    run (partial access, arity or extent mismatch, operand count or
    rank, a write into an input, a stored-shape mismatch, an operand
    with no edge or literal). *)

val execute :
  prepared -> (string * Fractal.t) list -> (string * Fractal.t) list
(** One run over the named inputs; returns every [Output] buffer in
    buffer order as the executable's own cells ({!Compiled.outputs}):
    the same list and tensors on every run, valid until this
    [prepared] runs again, which overwrites them — a caller that keeps
    a result across runs copies it.  Runs on the prepared pool; the
    race guard ran at prepare.

    Inputs are read afresh on each run: a caller may refill its
    tensors in place and bind them again.
    @raise Vm.Execution_error on missing inputs / un-executable blocks *)

val run :
  ?opts:Run_opts.t ->
  Ir.graph ->
  (string * Fractal.t) list ->
  (string * Fractal.t) list
(** [execute (prepare ?opts g) inputs] — the one-shot spelling; the
    outputs are the caller's, since nothing else holds the
    executable. *)

(** {1 Introspection} *)

val compiled : prepared -> Compiled.t option
(** The underlying executable — always [Some]; the option type is kept
    for existing callers. *)

(** {1 Simulator front} *)

val simulate : ?device:Device.t -> ?trace:Trace.sink -> Plan.t -> Exec.report
(** Run a plan on the simulated device (default {!Device.a100}) through
    the {!Exec} L2 residency model; [trace] mirrors the timeline as
    ["gpu"]-track spans. *)

val metrics : ?device:Device.t -> Plan.t -> Engine.metrics

val time_us : ?device:Device.t -> Plan.t -> float
(** The simulated time of {!simulate}, in microseconds, bit for bit,
    without mirroring anything onto an installed {!Trace} sink — the
    cost the tuner searches. *)

val time_ms : ?device:Device.t -> Plan.t -> float
(** [time_us p /. 1e3]: [(metrics p).time_ms], bit for bit. *)

val profile : ?device:Device.t -> Plan.t -> Profile.t
(** The per-kernel / per-block roofline report of {!simulate}'s
    timeline. *)
