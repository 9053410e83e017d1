(** The tuner's front door: search a program's knob space and persist
    the winner.

    [tune_program] / [tune_file] extract the {!Knobs.space} from the
    program's default-config plan, run the {!Search} coordinate
    descent against {!Cost_oracle.analytical} (modelled device µs)
    under a fixed budget, store the best
    configuration in the {!Tune_db} (keyed by [Pipeline.program_key] /
    [source_key] at the default config, where [ftc run] and
    [ftc profile] look it up), and return a {!report} with the full cost
    trajectory.  Everything is deterministic given the budget: two
    identical invocations pick the identical configuration.

    Every cost is model output, not a measurement of this host, and a
    stored config selects only which simulated plan a compile
    reports: no executor reads it. *)

type report = {
  rp_program : string;        (** program name *)
  rp_key : string;            (** the tuning-database key *)
  rp_device : Device.t;
  rp_space : Knobs.space;
  rp_result : Search.result;
  rp_db_path : string option;
      (** the record's [FT_TUNE_DB] file, when persistence is on *)
}

val tune_program : ?device:Device.t -> ?budget:int -> Expr.program -> report
(** Defaults: a100, budget 32. *)

val tune_file : ?device:Device.t -> ?budget:int -> string -> report
(** Parse, type-check and tune a [.ft] file; the database key is the
    source digest, matching what [ftc run] / [ftc profile] look up.
    @raise Parse.Syntax_error / [Typecheck.Type_error] on an invalid
    program. *)

val config_to_jsonv : Knobs.candidate -> Jsonw.t

val report_to_jsonv : report -> Jsonw.t
(** The [ftc tune --format json] document: program, key, device, the
    cost unit (["modelled <device> µs (analytical)"]), budget,
    default/best cost, best config, and the full cost
    trajectory. *)

val report_to_text : report -> string
