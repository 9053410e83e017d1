(** The oracle registry: every way this repo can execute a program.

    A conformance check runs one program, on one set of inputs,
    through every registered back end and demands bitwise-identical
    results ({!Fractal.equal_exact}).  The back ends share almost all
    of their kernel code by construction — the VM evaluates operation
    nodes through [Interp.eval_prim] — so exact equality is the
    correct bar: any difference is a wrong access map, region domain,
    schedule, or cache/tuning leak, never float noise.

    Oracles:
    - ["interp"]   — the reference interpreter (defines semantics);
    - ["vm-seq"]   — the VM in [Sequential] order, through
                     {!Executor} with [Run_opts.interpreted];
    - ["vm-wave1"] / ["vm-wave2"] / ["vm-wave4"]
                   — the VM in [Wavefront] order at 1/2/4 domains
                     (schedule + parallelism invariance);
    - ["shadow"]   — {!Vm.run} in [Wavefront] order on a 2-domain
                     pool under an explicit {!Shadow} cell-level
                     recorder: a
                     same-front overlap raises at the access, and the
                     recorded footprints are cross-checked against the
                     static verdicts of [Effects] after the run — a
                     static/dynamic contradiction fails the oracle
                     even when the output value is right;
    - ["tuned"]    — a tuned configuration is stored in the tuning
                     database for the program, resolved through
                     [Tune_db.install] / [Pipeline.tuned_config_for],
                     the plan compiled with [~tune:true] and the VM
                     run with the tuned [cfg_vm_chunk] (tuning
                     transparency);
    - ["cache-rt"] — the plan is compiled, round-tripped through the
                     [FT_PLAN_CACHE] disk cache (memory cleared, then
                     reloaded), the two plans compared structurally,
                     and the VM run as usual (cache transparency);
    - ["compiled"] / ["compiled2"] / ["compiled4"]
                   — the compiled executor ({!Executor} with the
                     default [Run_opts], arena on) at an explicit
                     1/2/4-domain pool: straight-line closures over
                     arena storage must be bitwise-identical to the
                     interpreting VM at every domain count.  Under
                     [FT_SHADOW=1] the run is also recorded and
                     cross-checked against the static analysis;
    - ["compiled-noarena"]
                   — the compiled executor with [arena = false]
                     (dedicated per-cell tensors): storage layout must
                     not change a single bit;
    - ["fused"]    — the compiled executor with fusion on (the
                     default) under a deliberately hostile pack
                     blocking (tiny, mutually-indivisible mc/kc/nc):
                     partial panels and odd k-remainders in the packed
                     micro-kernel must still be bitwise-identical;
    - ["compiled-nofuse"]
                   — the compiled executor with [fuse = false]: every
                     op runs as its own kernel through its own scratch
                     slot, no epilogues, no packing — fusion must not
                     change a single bit;
    - ["sharded2"] / ["sharded4"]
                   — the distributed executor ([lib/dist]) over 2 / 4
                     simulated devices: auto-partitioned shards on real
                     OCaml domains, one compiled executable per device
                     (VM fallback outside the compiled fragment),
                     pull-based transfers — the whole halo-exchange
                     machinery must not change a single bit.

    VM-family oracles return the {e raw} VM output, which materialises
    fold/reduce accumulator history; {!project} maps it down to the
    interpreter's view.  The driver compares VM oracles raw against
    ["vm-seq"] (invariance) and projected ["vm-seq"] against
    ["interp"] (compiler correctness). *)

type outcome =
  | Value of Fractal.t  (** raw output of this back end *)
  | Unsupported of string
      (** the program is outside the compiled fragment
          ([Build.Unsupported]) — fine for interpreter-only programs,
          a regression otherwise *)
  | Failed of string  (** any other exception, or a transparency
                          violation (plan mismatch after a cache round
                          trip, tuned config not resolved) *)

type run = {
  r_oracle : string;
  r_outcome : outcome;
  r_wall_ms : float;
  r_engine : (string * string option) option;
      (** compiled-family and sharded oracles only: {!Executor.engine}
          (or {!Dist_exec.engine}) of the prepared program
          (["compiled"] or ["vm-fallback"]) and its fallback reason *)
}

val all_oracles : string list
(** In registry order; ["interp"] first. *)

val stress_pack : Tensor.pack_blocking
(** The hostile GEMM pack blocking used by the ["fused"] oracle:
    tiny, mutually-indivisible mc/kc/nc that force partial panels and
    odd k-remainders through the packed micro-kernel. *)

type ctx
(** Shared oracle state: lazily created domain pools and private
    temporary directories installed as [FT_PLAN_CACHE] / [FT_TUNE_DB]
    for the lifetime of the context (previous values restored on
    {!close}), so a conformance run never touches — and is never
    contaminated by — the user's caches. *)

val create : ?oracles:string list -> unit -> ctx
(** [oracles] restricts the registry (unknown names raise
    [Invalid_argument]); default {!all_oracles}. *)

val selected : ctx -> string list

val close : ctx -> unit
(** Shut pools down, remove the temporary directories, restore the
    environment.  Idempotent. *)

val run_all : ctx -> Expr.program -> (string * Fractal.t) list -> run list
(** Execute the program through every selected oracle.  Never raises:
    per-oracle exceptions become {!Failed} outcomes. *)

val project : Expr.program -> Fractal.t -> Fractal.t
(** Map a raw VM output down to the interpreter's view of the same
    program: along the program's SOAC spine, a [foldl]/[reduce] level
    keeps only its last accumulator state, a [foldr] level its first
    (storage index 0), and [map]/[scanl]/[scanr] levels recurse. *)
