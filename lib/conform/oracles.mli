(** The oracle registry: every way this repo can execute a program.

    A conformance check runs one program, on one set of inputs,
    through every registered back end and demands bitwise-identical
    results ({!Fractal.equal_exact}).  The compiled kernels reproduce
    [Interp.eval_prim]'s loops in its order, so exact equality is the
    correct bar: any difference is a wrong access map, region domain,
    schedule, or cache/tuning leak, never float noise.

    Oracles:
    - ["interp"]   — the reference interpreter (defines semantics);
    - ["compiled-seq"]
                   — the compiled engine in [Sequential] order at one
                     domain, through {!Executor}: the naive order every
                     other back end must match bitwise;
    - ["shadow"]   — {!Shadow.check} on the graph, no values: every
                     point of the race-guarded wavefront schedule the
                     engine compiles records its live reads and its
                     writes, a same-front overlap fails the oracle,
                     and the recorded footprints are cross-checked
                     against the static verdicts of [Effects] — a
                     contradiction fails the oracle.  It checks
                     itself ({!Held});
    - ["tuned"]    — a non-default, simulator-visible configuration
                     (one 16x16x16 tile, on the program's first GEMM
                     site when it has one) is stored in the
                     tuning database for the program, looked back up
                     with [Tune_db.lookup], the plan compiled with
                     that [~tile], and the compiled engine run at
                     2 domains with the default options: a tuned
                     config reaches the simulated plan only (tuning
                     transparency);
    - ["cache-rt"] — the plan is compiled, round-tripped through the
                     [FT_PLAN_CACHE] disk cache (memory cleared, then
                     reloaded), the two plans compared structurally,
                     and the program run as ["compiled-seq"] (cache
                     transparency);
    - ["compiled"] / ["compiled2"] / ["compiled4"]
                   — the compiled engine ({!Executor} with the default
                     [Run_opts]: wavefront order, fusion on) at an
                     explicit 1/2/4-domain pool: schedule and
                     parallelism must not change a single bit;
    - ["compiled-nofuse"]
                   — the compiled engine with [fuse = false]: every
                     op runs as its own kernel through its own scratch
                     slot, no epilogues — fusion
                     must not change a single bit;
    - ["sharded2"] / ["sharded4"]
                   — the distributed executor ([lib/dist]) over 2 / 4
                     simulated devices: auto-partitioned shards on real
                     OCaml domains, one compiled executable per device,
                     pull-based transfers — the whole halo-exchange
                     machinery must not change a single bit;
    - ["serve"]    — when [Servable.of_program] derives a step program,
                     the batch rows served as requests on a seeded join
                     schedule, batched and solo: both must match each
                     other and the interpreter's response bit for bit.
                     It checks itself ({!Held}); an underivable program
                     is {!Skipped}.

    Every oracle but ["interp"], ["shadow"] and ["serve"] returns the {e raw} engine output,
    which materialises fold/reduce accumulator history; {!project}
    maps it down to the interpreter's view.  The driver compares them
    raw against ["compiled-seq"] (invariance) and projected
    ["compiled-seq"] against ["interp"] (compiler correctness). *)

type outcome =
  | Value of Fractal.t  (** raw output of this back end *)
  | Held  (** the oracle's own check held (["shadow"], ["serve"]) *)
  | Unsupported of string
      (** the program is outside the compiled fragment
          ([Build.Unsupported]) — fine for interpreter-only programs,
          a regression otherwise *)
  | Skipped of string
      (** the program is outside what this oracle covers (["serve"]:
          no step program derives) — never a regression *)
  | Failed of string  (** any other exception, or a transparency
                          violation (plan mismatch after a cache round
                          trip, tuned config not resolved) *)

type run = { r_oracle : string; r_outcome : outcome; r_wall_ms : float }

val pinned_tile : Expr.program -> Tile.config
(** The non-default config the ["tuned"] oracle stores: one 16x16x16
    tile on the program's first GEMM site, so the tuned plan differs
    from the default.  Without a GEMM site the tile is keyed by the
    program's name, and the plan is the default one. *)

val all_oracles : string list
(** In registry order; ["interp"] first. *)

type ctx
(** Shared oracle state: private temporary directories installed as
    [FT_PLAN_CACHE] / [FT_TUNE_DB] for the lifetime of the context
    (previous values restored on {!close}), so a conformance run never
    touches — and is never contaminated by — the user's caches. *)

val create : ?oracles:string list -> unit -> ctx
(** [oracles] restricts the registry (unknown names raise
    [Invalid_argument]); default {!all_oracles}. *)

val selected : ctx -> string list

val close : ctx -> unit
(** Remove the temporary directories and restore the environment.
    Idempotent. *)

val run_all : ctx -> Expr.program -> (string * Fractal.t) list -> run list
(** Execute the program through every selected oracle.  Never raises:
    per-oracle exceptions become {!Failed} outcomes. *)

val project : Expr.program -> Fractal.t -> Fractal.t
(** Map a raw engine output down to the interpreter's view of the same
    program: along the program's SOAC spine, a [foldl]/[reduce] level
    keeps only its last accumulator state, a [foldr] level its first
    (storage index 0), and [map]/[scanl]/[scanr] levels recurse. *)

val value : Expr.program -> (string * Fractal.t) list -> Fractal.t option
(** The program's value in the interpreter's view, from an engine's
    outputs: the buffer named after the program, or — for a
    tuple-valued program — one buffer per component ([name.0],
    [name.1], ...), each {!project}ed and zipped back into the
    interpreter's tuples.  [None] without such a buffer. *)
