(** The execution front door: one entry point, one options record.

    A {!Run_opts.t} sets every knob; [run] / [prepare] + [execute] run
    a graph on values, [simulate] and friends price a plan.  There is
    one value engine, {!Compiled}: straight-line block closures over
    arena-backed storage, zero steady-state allocation, scheduled in
    [Run_opts.order] by the one race guard ({!Vm.guarded_schedule}).
    Its outputs are checked bitwise against the reference interpreter
    ({!Interp}) by [ftc run] and [ftc conform].

    This module owns the pool and the shadow policy: [FT_SHADOW] is
    read here and nowhere else. *)

type prepared
(** A graph readied for repeated execution: the compiled executable, the
    resolved pool, and the shadow policy.  Stateful — reusable across
    sequential [execute] calls, not thread-safe. *)

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
    buffer order.  Honors the prepared options: domains (pool), chunk,
    race guard, shadow.  When shadow recording is active (explicitly,
    or [FT_SHADOW=1] under the default [Shadow_env] policy) the run is
    recorded, finished and cross-checked against the static analysis;
    a contradiction raises [Vm.Execution_error].
    @raise Vm.Execution_error on missing inputs / un-executable blocks
    @raise Shadow.Violation on a recorded same-front overlap *)

val run :
  ?opts:Run_opts.t ->
  Ir.graph ->
  (string * Fractal.t) list ->
  (string * Fractal.t) list
(** [execute (prepare ?opts g) inputs] — the one-shot spelling. *)

val prepare_cached : key:string -> ?opts:Run_opts.t -> Ir.graph -> prepared
(** Like {!prepare}, memoised on [(key, opts)] for the process
    lifetime.  [key] must identify the graph — use
    {!Pipeline.program_key} / {!Pipeline.source_key} digests (compiled
    closures cannot be marshalled, so unlike the plan cache this table
    is in-memory only).  Callers sharing a cached [prepared] must not
    execute it concurrently. *)

(** {1 Introspection} *)

val engine : prepared -> string
(** The engine that runs: always ["compiled"] (serving reports name
    it). *)

val compiled : prepared -> Compiled.t option
(** The underlying executable — always [Some]; the option type is kept
    for existing callers. *)

val reset_pools : unit -> unit
(** Shut down every pool cached for explicit [domains = Some n]
    requests (the ambient shared pool is untouched).  Idle OCaml 5
    domains still join each stop-the-world minor collection, so a
    cached pool taxes allocation-heavy code running alongside it —
    benchmarks call this between measurements to keep baselines clean.
    Any [prepared] still holding a reset pool must not be executed. *)

(** {1 Simulator front} *)

val simulate : ?device:Device.t -> ?trace:Trace.sink -> Plan.t -> Exec.report
(** Run a plan on the simulated device (default {!Device.a100}) through
    the {!Exec} L2 residency model; [trace] mirrors the timeline as
    ["gpu"]-track spans. *)

val simulate_many :
  ?device:Device.t -> ?trace:Trace.sink -> Plan.t list ->
  (string * Exec.report) list

val metrics : ?device:Device.t -> Plan.t -> Engine.metrics
val time_ms : ?device:Device.t -> Plan.t -> float

val profile : ?device:Device.t -> Plan.t -> Profile.t
(** The per-kernel / per-block roofline report of {!simulate}'s
    timeline. *)
