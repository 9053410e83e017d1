(** The one compile entry point.

    Every consumer of the compiler — [ftc], the benchmark harness, the
    baselines, examples, tests — used to chain {!Build.build} and the
    {!Coarsen} passes by hand, each with its own verification and no
    shared notion of what "the pipeline" is.  This module owns that
    chain:

    {v
      program --build--> ETDG --coarsen.group--> --coarsen.merge-->
              --reorder--> (verified) --emit--> Plan.t
    v}

    Stage names here are {e the} stage vocabulary: they are the
    {!Verify_hook} stage labels, the span names on {!Trace} sinks, and
    the values of [ftc]'s [--stage] flags.  {!Coarsen}'s individual
    passes remain exported for targeted tests, but production
    compilation goes through {!compile} (full stage results,
    per-stage verification, tracing) or {!plan} (terse
    compile-to-plan). *)

type stage = Build | Lower | Group | Merge | Reorder

val stage_name : stage -> string
(** ["build"], ["coarsen.lower"], ["coarsen.group"], ["coarsen.merge"],
    ["reorder"] — matching {!Verify_hook} and {!Trace} span names. *)

val stage_of_name : string -> stage option

val all_stages : stage list

val default_stages : stage list
(** The production pipeline after build: [[Group; Merge; Reorder]].
    ({!Coarsen.lower} is subsumed by region grouping and appears only
    when requested explicitly, e.g. [ftc show --stage coarsen.lower].) *)

val stages_until : stage -> stage list
(** The production prefix that ends at a stage — what [ftc show
    --stage] compiles.  [Build] maps to [[]] (build always runs);
    [Lower] to [[Lower]] (a diagnostic view off the production path). *)

type stage_result = {
  sr_stage : stage;
  sr_graph : Ir.graph;  (** the ETDG {e after} this stage *)
  sr_wall_ms : float;  (** wall-clock of the pass itself *)
  sr_diagnostics : Diagnostic.t list option;
      (** [None] when the verifier was not run for this stage *)
}

type t = {
  p_stages : stage_result list;  (** in execution order *)
  p_reorder : (string * Reorder.result) list;
      (** per-block reorder decisions, when [Reorder] ran *)
  p_emit_graph : Ir.graph;
      (** the graph emission consumed: after the last non-[Reorder]
          stage (emission reorders per block itself) *)
  p_plan : Plan.t;
  p_emit_diagnostics : Diagnostic.t list option;
}

val compile :
  ?verify:bool ->
  ?fatal:bool ->
  ?trace:Trace.sink ->
  ?tile:Tile.config ->
  ?stages:stage list ->
  Expr.program ->
  t
(** Compile a program through [Build] and [stages] (default
    {!default_stages}), then emit.  [verify] (default on) runs the
    {!Verify} checks after every stage and once more before emission;
    with [fatal] (default) any error raises
    {!Verify.Verification_failed}, with [fatal:false] diagnostics are
    collected in the results instead.  [trace] installs a sink for the
    duration, capturing each pass (and emission) as spans.  [tile]
    selects the emission tile config (default
    {!Tile.default_config}); a caller that wants the best-known config
    looks it up in the tuning database ([lib/tune]) and passes it. *)

val plan : ?verify:bool -> ?tile:Tile.config -> Expr.program -> Plan.t
(** Terse compile-to-plan: build, group, merge, emit.  [verify]
    (default on) checks the coarsened graph once before emission and
    raises {!Verify.Verification_failed} on any violation — per-stage
    checking is {!compile}'s job. *)

val plan_of_graph :
  ?verify:bool -> ?collapse_reuse:bool -> ?tile:Tile.config ->
  Ir.graph -> Plan.t
(** {!plan} for an already-built ETDG.  [collapse_reuse:false]
    (default [true]) turns off the null-space reuse analysis
    ({!Emit.emit_plan}): the §5.2 deferred-materialization ablation,
    which no other entry point offers. *)

(** {1 Compiled-plan cache}

    Recompiling an unchanged [.ft] program re-runs build, coarsening
    and emission for a result that is a pure function of the program
    and the option set.  The cache keys a plan by a digest of its
    compile inputs and reuses it across calls — and, when the
    [FT_PLAN_CACHE] environment variable names a directory, across
    processes: see {!Disk_store}, which this is an instance of (files
    [ftplan-<key>.bin]). *)

module Cache : Disk_store.S with type value = Plan.t

val program_key : ?verify:bool -> ?tile:Tile.config -> Expr.program -> string
(** The cache key {!plan_cached} uses: a hex digest of the marshalled
    program and option set.  The key at [Tile.default_config] (the
    default) is also the tuning-database key for the program. *)

val source_key : ?verify:bool -> ?tile:Tile.config -> string -> string
(** The cache key {!plan_file} uses, over raw [.ft] source text. *)

val plan_cached : ?verify:bool -> ?tile:Tile.config -> Expr.program -> Plan.t
(** {!plan} through the cache; the key covers [tile], so tuned and
    default plans coexist. *)

val plan_file : ?verify:bool -> ?tile:Tile.config -> string -> Plan.t
(** Compile a [.ft] file to a plan through the cache, keyed on the
    file's {e contents} (not its path or mtime).  On a hit even the
    parse is skipped.
    @raise Parse.Syntax_error / [Typecheck.Type_error] on a miss with
    an invalid program. *)

val stage_graph : t -> stage -> Ir.graph option
(** The graph after a given stage, when that stage ran. *)

val stage_diagnostics : t -> (string * Diagnostic.t list) list
(** [(stage name, diagnostics)] per executed stage ([[]] where the
    verifier did not run). *)

val verify_stages : Expr.program -> (string * Diagnostic.t list) list
(** Compile with every check enabled but nothing fatal and return the
    per-stage diagnostics (all empty on a legal program) — the
    [ftc compile] report. *)
