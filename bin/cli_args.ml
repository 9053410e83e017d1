(* One spelling for every flag the ftc subcommands share.

   Before this module each subcommand declared its own --format /
   --domains / --seed / --json / --repeat, and the docstrings (and
   occasionally the accepted values) drifted apart.  Declaring each
   flag exactly once makes `ftc <cmd> --help` literally identical
   across subcommands for the shared flags — the CLI test suite
   asserts it by diffing the help paragraphs. *)

open Cmdliner

let ft_file =
  Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"FILE.ft")

(* text|json: every report-producing subcommand (lint, analyze, tune). *)
let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FORMAT" ~doc:"Output format: text or json")

(* text|json|chrome: subcommands that can also emit a trace-event file. *)
let trace_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("chrome", `Chrome) ])
        `Text
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:
          "Output format: text (profile report + trace listing), json \
           (profile and trace in one document), or chrome (trace-event \
           JSON for chrome://tracing / Perfetto)")

(* text|dot: structure dumps. *)
let show_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("dot", `Dot) ]) `Text
    & info [ "format" ] ~docv:"FORMAT" ~doc:"Output format: text or dot")

(* A count flag below 1 is a usage error of the subcommand, reported the
   same way everywhere: "CMD: --FLAG must be at least 1" on stderr,
   exit 1. *)
let require_at_least_1 cmd flag n =
  if n < 1 then begin
    Format.eprintf "%s: --%s must be at least 1@." cmd flag;
    exit 1
  end

(* [--domains], when given, must be at least 1. *)
let check_domains cmd domains = Option.iter (require_at_least_1 cmd "domains") domains

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Size of the domain pool the wavefront executor runs on \
           (default: $(b,FT_NUM_DOMAINS) when set, else the machine's \
           recommended domain count)")

let device_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("a100", Device.a100); ("h100", Device.h100);
             ("v100", Device.v100) ])
        Device.a100
    & info [ "device" ] ~docv:"DEVICE" ~doc:"Device model: a100, h100 or v100")

let devices_arg =
  Arg.(
    value & opt int 2
    & info [ "devices" ] ~docv:"N"
        ~doc:
          "Simulated devices to shard across; each shard executes on its \
           own OCaml domain")

let strategy_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("auto", None); ("batch", Some Shard.Batch);
             ("sequence", Some Shard.Sequence);
             ("pipeline", Some Shard.Pipeline);
             ("replicate", Some Shard.Replicate) ])
        None
    & info [ "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Partitioning strategy: auto (per-block), batch (free axis), \
           sequence (dependence axis + halo), pipeline (blocks \
           round-robin) or replicate")

let link_arg =
  Arg.(
    value
    & opt (enum [ ("nvlink", Device.nvlink); ("pcie", Device.pcie) ])
        Device.nvlink
    & info [ "link" ] ~docv:"LINK"
        ~doc:"Interconnect model for transfers: nvlink or pcie")

let seed_arg ~default =
  Arg.(
    value & opt int default
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"PRNG seed: the run is a pure function of it")

let json_flag =
  Arg.(
    value & flag & info [ "json" ] ~doc:"Emit the report as a JSON document")

let repeat_arg =
  Arg.(
    value & opt int 1
    & info [ "repeat" ] ~docv:"N"
        ~doc:
          "Timed executions of the prepared plan (median wall-clock is \
           reported); the executable is compiled once and reused")
