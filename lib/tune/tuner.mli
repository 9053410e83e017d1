(** The tuner's front door: search a program's knob space and persist
    the winner.

    [tune_program] / [tune_file] extract the {!Knobs.space} from the
    program's default-config plan, run a {!Search} strategy against a
    {!Cost_oracle} under a fixed seed and budget, store the best
    configuration in the {!Tune_db} (keyed by [Pipeline.program_key] /
    [source_key] at the default config, so untuned compiles with
    [~tune:true] find it), and return a {!report} with the full cost
    trajectory.  Everything is deterministic given (seed, budget,
    strategy, oracle): two identical invocations pick the identical
    configuration. *)

type oracle_kind =
  | Sim      (** {!Cost_oracle.analytical} on the device model *)
  | Measure  (** {!Cost_oracle.measured}: simulated device time plus
                 wall-clock of the compiled engine, median of 3 *)

val oracle_kind_name : oracle_kind -> string
(** ["sim"] / ["measure"] — the [ftc tune --oracle] vocabulary. *)

val oracle_kind_of_name : string -> oracle_kind option

type report = {
  rp_program : string;        (** program name *)
  rp_key : string;            (** the tuning-database key *)
  rp_device : Device.t;
  rp_oracle : oracle_kind;
  rp_space : Knobs.space;
  rp_result : Search.result;
  rp_db_path : string option;
      (** the record's [FT_TUNE_DB] file, when persistence is on *)
}

val tune_program :
  ?device:Device.t ->
  ?seed:int ->
  ?strategy:Search.strategy ->
  ?budget:int ->
  ?oracle:oracle_kind ->
  Expr.program ->
  report
(** Defaults: a100, seed 2024, grid, budget 32, sim. *)

val tune_file :
  ?device:Device.t ->
  ?seed:int ->
  ?strategy:Search.strategy ->
  ?budget:int ->
  ?oracle:oracle_kind ->
  string ->
  report
(** Parse, type-check and tune a [.ft] file; the database key is the
    source digest, matching what [ftc run] / [ftc profile] look up.
    @raise Parse.Syntax_error / [Typecheck.Type_error] on an invalid
    program. *)

val config_to_jsonv : Knobs.candidate -> Jsonw.t

val report_to_jsonv : report -> Jsonw.t
(** The [ftc tune --format json] document: program, key, device,
    search parameters, default/best cost, best config, and the full
    cost trajectory. *)

val report_to_text : report -> string
