(** The conformance driver: seeded differential + metamorphic runs,
    shrinking, and corpus replay.

    One {!run} draws [budget] random programs ({!Gen}), executes each
    through every selected oracle ({!Oracles}), compares bitwise
    ({!Fractal.equal_exact}) — VM-family oracles raw against
    ["vm-seq"], projected ["vm-seq"] against ["interp"] — then runs
    the {!Metamorphic} laws.  Every differential counterexample is
    shrunk ({!Shrink}) and, when a corpus directory is given,
    persisted as a replayable [.ft] file ({!Corpus}).  Everything is
    deterministic in the seed. *)

type verdict = V_pass | V_fail of string | V_unsupported

type oracle_stat = {
  os_oracle : string;
  os_pass : int;
  os_fail : int;
  os_unsupported : int;
      (** programs outside the compiled fragment (interpreter-only) *)
  os_engines : (string * int) list;
      (** compiled-family and sharded oracles: how many programs the
          front door ran on ["compiled"] and on ["vm-fallback"]
          ({!Executor.engine}, {!Dist_exec.engine}); empty for other
          oracles *)
  os_fallback_reasons : (string * int) list;
      (** histogram of {!Executor.fallback_reason} over this oracle's
          ["vm-fallback"] programs, sorted by reason *)
}

type failure = {
  fl_program : string;  (** minimized program, concrete syntax *)
  fl_seed : int;  (** input seed of the minimized repro *)
  fl_reason : string;
  fl_shrink_steps : int;
  fl_corpus_file : string option;
}

type report = {
  rp_seed : int;
  rp_budget : int;
  rp_programs : int;  (** differential programs checked (= budget) *)
  rp_compiled : int;  (** of which inside the compiled fragment *)
  rp_oracles : string list;
  rp_oracle_stats : oracle_stat list;
  rp_coverage : (string * int) list;
      (** per-{!Gen.all_tags} hit counts — zero entries are holes *)
  rp_metamorphic : Metamorphic.trial list;
  rp_failures : failure list;
  rp_wall_ms : float;
}

val program_compiled_expected : Expr.program -> bool
(** Syntactic fragment membership for programs without a {!Gen.spec}
    (corpus replays): no reversed and no indirect access anywhere. *)

val check :
  Oracles.ctx ->
  expect_compiled:bool ->
  Expr.program ->
  (string * Fractal.t) list ->
  (string * verdict) list
(** One program through every oracle of the context, with verdicts.
    [Unsupported] counts as {!V_fail} (a fragment regression) when
    [expect_compiled]. *)

val first_fail : (string * verdict) list -> string option
(** The first failing oracle's reason, as ["oracle: reason"]. *)

val run :
  ?oracles:string list ->
  ?corpus_dir:string ->
  ?meta_iters:int ->
  seed:int ->
  budget:int ->
  unit ->
  report
(** A full conformance run.  ["interp"] is always included (it is the
    reference).  [meta_iters] (default 3) trials per metamorphic law.
    Never raises on divergence — failures land in the report;
    {!passed} decides the exit code. *)

val replay :
  ?oracles:string list -> string list -> (string * string option) list
(** Replay corpus files: each parsed, its inputs re-derived from the
    recorded seed, and checked like a generated program.  Returns
    [(path, failure)] per file ([None] = conforms). *)

val passed : report -> bool
(** No differential failures and every metamorphic trial ok. *)

val report_to_text : report -> string
val report_to_jsonv : report -> Jsonw.t
