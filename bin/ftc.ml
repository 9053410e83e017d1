(* ftc — the FractalTensor compiler driver.

     ftc list                      available workloads
     ftc verify [WORKLOAD]         interpreter vs imperative reference
     ftc show WORKLOAD [--stage S] dump the ETDG after a pipeline stage
     ftc compile WORKLOAD          run the full pipeline, print the plan
     ftc simulate WORKLOAD         execute every system's plan on the
                                   simulated A100
     ftc run FILE.ft               parse, check, interpret, compile
     ftc profile FILE.ft           compile + simulate with tracing;
                                   text/json/chrome output              *)

type workload = {
  w_name : string;
  w_describe : string;
  w_program : unit -> Expr.program;
  w_verify : unit -> bool;
  w_suite : unit -> Plan.t list;
}

let rng () = Rng.create 2024

let workloads =
  [
    {
      w_name = "stacked_rnn";
      w_describe = "stacked vanilla RNN (paper Listing 1, Figs 1-6)";
      w_program = (fun () -> Stacked_rnn.program Stacked_rnn.default);
      w_verify =
        (fun () ->
          let cfg = Stacked_rnn.default in
          let inp = Stacked_rnn.gen_inputs (rng ()) cfg in
          let out =
            Interp.run_program (Stacked_rnn.program cfg)
              (Stacked_rnn.bindings inp)
          in
          Fractal.equal_approx out (Stacked_rnn.reference cfg inp)
          && Fractal.equal_approx
               (Stacked_rnn.wavefront cfg inp)
               (Stacked_rnn.reference cfg inp));
      w_suite = (fun () -> Suites.stacked_rnn Stacked_rnn.paper);
    };
    {
      w_name = "stacked_lstm";
      w_describe = "stacked LSTM (paper Listing 2, Table 6)";
      w_program = (fun () -> Stacked_lstm.program Stacked_lstm.default);
      w_verify =
        (fun () ->
          let cfg = Stacked_lstm.default in
          let inp = Stacked_lstm.gen_inputs (rng ()) cfg in
          let out =
            Interp.run_program (Stacked_lstm.program cfg)
              (Stacked_lstm.bindings inp)
          in
          let csss, hsss = Stacked_lstm.reference cfg inp in
          let proj i =
            Soac.map (fun pn -> Soac.map (fun pr -> Fractal.get pr i) pn) out
          in
          let last m =
            Soac.map (fun pn -> Fractal.get pn (cfg.depth - 1)) m
          in
          Fractal.equal_approx (proj 0) (last csss)
          && Fractal.equal_approx (proj 1) (last hsss));
      w_suite = (fun () -> Suites.stacked_lstm Stacked_lstm.paper);
    };
    {
      w_name = "dilated_rnn";
      w_describe = "stacked dilated RNN (dilations 1,2,4,...)";
      w_program = (fun () -> Dilated_rnn.program Dilated_rnn.default);
      w_verify =
        (fun () ->
          let cfg = Dilated_rnn.default in
          let inp = Dilated_rnn.gen_inputs (rng ()) cfg in
          let out =
            Interp.run_program (Dilated_rnn.program cfg)
              (Dilated_rnn.bindings inp)
          in
          Fractal.equal_approx
            (Dilated_rnn.flatten_output cfg out)
            (Dilated_rnn.reference cfg inp));
      w_suite = (fun () -> Suites.dilated_rnn Dilated_rnn.paper);
    };
    {
      w_name = "grid_rnn";
      w_describe = "stacked 2-D grid RNN (three nested recurrences)";
      w_program = (fun () -> Grid_rnn.program Grid_rnn.default);
      w_verify =
        (fun () ->
          let cfg = Grid_rnn.default in
          let inp = Grid_rnn.gen_inputs (rng ()) cfg in
          let out =
            Interp.run_program (Grid_rnn.program cfg) (Grid_rnn.bindings inp)
          in
          Fractal.equal_approx out (Grid_rnn.reference cfg inp)
          && Fractal.equal_approx
               (Grid_rnn.wavefront cfg inp)
               (Grid_rnn.reference cfg inp));
      w_suite = (fun () -> Suites.grid_rnn Grid_rnn.paper);
    };
    {
      w_name = "b2b_gemm";
      w_describe = "back-to-back GEMMs with a narrow intermediate";
      w_program = (fun () -> B2b_gemm.program B2b_gemm.default);
      w_verify =
        (fun () ->
          let cfg = B2b_gemm.default in
          let inp = B2b_gemm.gen_inputs (rng ()) cfg in
          let out =
            Interp.run_program (B2b_gemm.program cfg) (B2b_gemm.bindings inp)
          in
          Fractal.equal_approx out (B2b_gemm.reference cfg inp));
      w_suite = (fun () -> Suites.b2b_gemm B2b_gemm.paper);
    };
    {
      w_name = "flash_attention";
      w_describe = "FlashAttention (paper Listing 3): online softmax reduce";
      w_program = (fun () -> Flash_attention.program Flash_attention.default);
      w_verify =
        (fun () ->
          let cfg = Flash_attention.default in
          let inp = Flash_attention.gen_inputs (rng ()) cfg in
          let out =
            Interp.run_program
              (Flash_attention.program cfg)
              (Flash_attention.bindings inp)
          in
          Fractal.equal_approx out (Flash_attention.reference cfg inp));
      w_suite = (fun () -> Suites.flash_attention Flash_attention.paper);
    };
    {
      w_name = "conv1d";
      w_describe = "temporal convolution via window access (§7 expressibility)";
      w_program = (fun () -> Conv1d.program Conv1d.default);
      w_verify =
        (fun () ->
          let cfg = Conv1d.default in
          let inp = Conv1d.gen_inputs (rng ()) cfg in
          let out =
            Interp.run_program (Conv1d.program cfg) (Conv1d.bindings inp)
          in
          Fractal.equal_approx out (Conv1d.reference cfg inp));
      w_suite = (fun () -> [ Pipeline.plan (Conv1d.program Conv1d.large) ]);
    };
    {
      w_name = "selective_scan";
      w_describe = "Mamba-style gated linear recurrence (§7 extension)";
      w_program = (fun () -> Selective_scan.program Selective_scan.default);
      w_verify =
        (fun () ->
          let cfg = Selective_scan.default in
          let inp = Selective_scan.gen_inputs (rng ()) cfg in
          let out =
            Interp.run_program (Selective_scan.program cfg)
              (Selective_scan.bindings inp)
          in
          let r = Selective_scan.reference cfg inp in
          Fractal.equal_approx out r
          && Fractal.equal_approx ~eps:1e-4
               (Selective_scan.parallel_form cfg inp)
               r);
      w_suite =
        (fun () -> [ Pipeline.plan (Selective_scan.program Selective_scan.large) ]);
    };
    {
      w_name = "retention";
      w_describe = "chunkwise retention / RetNet (the paper's §7 extension)";
      w_program = (fun () -> Retention.program Retention.default);
      w_verify =
        (fun () ->
          let cfg = Retention.default in
          let inp = Retention.gen_inputs (rng ()) cfg in
          let out =
            Interp.run_program (Retention.program cfg) (Retention.bindings inp)
          in
          Fractal.equal_approx
            (Retention.output_of_interp out)
            (Retention.reference cfg inp));
      w_suite = (fun () -> Suites.retention Retention.large);
    };
    {
      w_name = "bigbird";
      w_describe = "BigBird blocked sparse attention (paper Listing 4)";
      w_program = (fun () -> Bigbird.program Bigbird.default);
      w_verify =
        (fun () ->
          let cfg = Bigbird.default in
          let inp = Bigbird.gen_inputs (rng ()) cfg in
          let out =
            Interp.run_program (Bigbird.program cfg) (Bigbird.bindings inp)
          in
          Fractal.equal_approx out (Bigbird.reference cfg inp));
      w_suite = (fun () -> Suites.bigbird Bigbird.paper);
    };
  ]

let find_workload name =
  match List.find_opt (fun w -> w.w_name = name) workloads with
  | Some w -> w
  | None ->
      Format.eprintf "unknown workload %s; try `ftc list'@." name;
      exit 1

(* Random inputs for a parsed program, from its declared types — the
   conformance generator's derivation, so `ftc run` and corpus replay
   agree on what a seed means. *)
let random_value rng (ty : Expr.ty) : Fractal.t =
  Gen.random_value ~scale:0.3 rng ty

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The tuned-config line of [ftc run] and [ftc profile].  A tuned config
   is model output: it picks the simulated plan whose metrics are
   printed, and the executed run never reads it. *)
let tuned_line = function
  | None -> "tuned config: none"
  | Some t ->
      Printf.sprintf
        "tuned config: %s (selects the simulated plan only; execution \
         uses the default options)"
        (Tile.config_to_string t)

(* The best-known tile config for a .ft source on a device, looked up
   in the tuning database (FT_TUNE_DB): no search runs here. *)
let tuned_tile ?(device = Device.a100) src =
  Option.map
    (fun r -> r.Tune_db.tr_tile)
    (Tune_db.lookup ~key:(Pipeline.source_key src)
       ~device:(Tune_db.device_digest device))

(* Asking for more domains than the machine has cores buys contention,
   not parallelism — flag it once the pool size is settled. *)
let warn_if_oversubscribed () =
  let hw = Stdlib.Domain.recommended_domain_count () in
  let used = Domain_pool.num_domains () in
  if used > hw then
    Format.eprintf
      "warning: domain pool of %d exceeds the %d hardware core(s) detected \
       — wavefront timings will include scheduling contention@."
      used hw

(* ------------------------------- commands ------------------------- *)

open Cmdliner

let list_cmd =
  let run () =
    List.iter
      (fun w -> Format.printf "%-18s %s@." w.w_name w.w_describe)
      workloads
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available workloads")
    Term.(const run $ const ())

let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let verify_cmd =
  let run name =
    let targets =
      match name with
      | Some n -> [ find_workload n ]
      | None -> workloads
    in
    let ok = ref true in
    List.iter
      (fun w ->
        let pass = w.w_verify () in
        if not pass then ok := false;
        Format.printf "%-18s %s@." w.w_name (if pass then "ok" else "FAILED"))
      targets;
    if not !ok then exit 1
  in
  let arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD") in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check the interpreter against the imperative reference")
    Term.(const run $ arg)

(* The --stage vocabulary is Pipeline's: the same names label
   per-stage diagnostics, trace spans and these flags. *)
let stage_arg =
  Arg.(
    value
    & opt
        (enum
           (List.map (fun s -> (Pipeline.stage_name s, s)) Pipeline.all_stages))
        Pipeline.Build
    & info [ "stage" ] ~docv:"STAGE"
        ~doc:
          "Pipeline stage to dump: build, coarsen.lower, coarsen.group, \
           coarsen.merge or reorder")

let show_cmd =
  let run name stage format =
    let w = find_workload name in
    let t =
      Pipeline.compile ~verify:false
        ~stages:(Pipeline.stages_until stage)
        (w.w_program ())
    in
    let g =
      match Pipeline.stage_graph t stage with
      | Some g -> g
      | None -> t.Pipeline.p_emit_graph
    in
    match format with
    | `Text -> Format.printf "%a@." Ir.pp g
    | `Dot -> print_string (Dot.graph g)
  in
  Cmd.v (Cmd.info "show" ~doc:"Dump the ETDG after a pipeline stage")
    Term.(const run $ workload_arg $ stage_arg $ Cli_args.show_format_arg)

let verify_flag =
  Arg.(
    value
    & opt ~vopt:true bool true
    & info [ "verify" ] ~docv:"BOOL"
        ~doc:
          "Run the static verifier on every intermediate ETDG (after \
           build and each coarsening stage, and before emission).  On \
           by default; --verify=false disables it.")

let compile_one verify failed w =
  let t = Pipeline.compile ~verify ~fatal:false (w.w_program ()) in
  let built =
    match Pipeline.stage_graph t Pipeline.Build with
    | Some g -> g
    | None -> t.Pipeline.p_emit_graph
  in
  Format.printf "parsed: %d blocks, depth %d, dimension %d@."
    (List.length built.Ir.g_blocks) (Ir.depth built) (Ir.dimension built);
  (match Ir.validate built with
  | Ok () -> Format.printf "invariants: ok@."
  | Error es -> List.iter (Format.printf "invariant violated: %s@.") es);
  let merged = t.Pipeline.p_emit_graph in
  Format.printf "after grouping and width-wise merging: %d blocks@."
    (List.length merged.Ir.g_blocks);
  List.iter
    (fun b ->
      let r = Reorder.apply b in
      Format.printf "  %-40s p=[%s]%s@." b.Ir.blk_name
        (String.concat ","
           (Array.to_list (Array.map Expr.soac_kind_name b.Ir.blk_ops)))
        (if r.Reorder.wavefront then
           Printf.sprintf " wavefront, %d steps" (Reorder.sequential_steps r)
         else " fully parallel"))
    merged.Ir.g_blocks;
  if verify then
    List.iter
      (fun (stage, ds) ->
        if ds = [] then Format.printf "verify[%s]: ok@." stage
        else begin
          Format.printf "verify[%s]: %d findings@." stage (List.length ds);
          List.iter
            (fun d -> Format.printf "  %a@." (Diagnostic.pp ?path:None) d)
            ds;
          if List.exists Diagnostic.is_error ds then failed := true
        end)
      (Pipeline.stage_diagnostics t
      @ [ ("emit", Option.value t.Pipeline.p_emit_diagnostics ~default:[]) ]);
  Format.printf "emitted plan: %d kernels@." (Plan.total_kernels t.Pipeline.p_plan);
  Format.printf "simulated: %a@." Engine.pp_metrics
    (Executor.metrics t.Pipeline.p_plan)

let compile_cmd =
  let run name verify =
    let targets =
      match name with
      | Some n -> [ find_workload n ]
      | None -> workloads
    in
    let failed = ref false in
    List.iter
      (fun w ->
        if List.length targets > 1 then Format.printf "== %s ==@." w.w_name;
        compile_one verify failed w)
      targets;
    if !failed then exit 1
  in
  let arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD") in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Run the full compilation pipeline (all workloads when none is \
          named), statically verifying every stage")
    Term.(const run $ arg $ verify_flag)

let simulate_cmd =
  let run name device =
    let w = find_workload name in
    Format.printf "device: %s@." device.Device.name;
    Format.printf "%-18s %10s %8s %10s %10s %10s@." "system" "time(ms)"
      "kernels" "DRAM(GB)" "L1(GB)" "L2(GB)";
    List.iter
      (fun (p : Plan.t) ->
        let m = (Executor.simulate ~device p).Exec.r_metrics in
        Format.printf "%-18s %10.3f %8d %10.2f %10.2f %10.2f@."
          p.Plan.plan_name m.Engine.time_ms m.Engine.kernels m.Engine.dram_gb
          m.Engine.l1_gb m.Engine.l2_gb)
      (w.w_suite ())
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Execute every system's schedule on a simulated device")
    Term.(const run $ workload_arg $ Cli_args.device_arg)

let run_cmd =
  let run path domains seed repeat =
    Cli_args.check_domains "run" domains;
    Cli_args.require_at_least_1 "run" "repeat" repeat;
    Domain_pool.set_num_domains domains;
    warn_if_oversubscribed ();
    match Parse.program_file path with
    | exception Parse.Syntax_error { line; col; message } ->
        Format.eprintf "%s:%d:%d: %s@." path line col message;
        exit 1
    | p -> (
        match Typecheck.check_program p with
        | exception Typecheck.Type_error msg ->
            Format.eprintf "%s: type error: %s@." path msg;
            exit 1
        | ty ->
            Format.printf "program %s : %s@." p.Expr.name
              (Expr.ty_to_string ty);
            let r = Rng.create seed in
            let env =
              List.map (fun (x, t) -> (x, random_value r t)) p.Expr.inputs
            in
            let out = Interp.run_program p env in
            Format.printf "interpreted over random inputs: %d scalars out@."
              (Fractal.numel out);
            let g = Build.build p in
            (match Ir.validate g with
            | Ok () ->
                Format.printf "ETDG: %d blocks, invariants ok@."
                  (List.length g.Ir.g_blocks)
            | Error es ->
                List.iter (Format.eprintf "invariant violated: %s@.") es);
            (* a tuned config in the database (FT_TUNE_DB) selects the
               simulated plan below: no search runs here, only a
               lookup, and execution never reads it *)
            let tuned = tuned_tile (read_file path) in
            let tile = Option.value tuned ~default:Tile.default_config in
            if tuned <> None then Format.printf "%s@." (tuned_line tuned);
            let plan = Pipeline.plan_of_graph ~tile g in
            Format.printf "compiled: %a@." Engine.pp_metrics
              (Executor.metrics plan);
            (* execute the schedule for real, sequentially and in
               parallel wavefront order, and demand bitwise-identical
               outputs from both and the interpreter's value from the
               wavefront run: the differential check behind the
               engine's determinism guarantee *)
            let seq =
              Executor.run
                ~opts:{ Run_opts.default with Run_opts.order = Vm.Sequential }
                g env
            in
            let pr = Executor.prepare g in
            (* a copy: the --repeat runs below overwrite the executable's
               output cells *)
            let par =
              List.map
                (fun (n, v) -> (n, Fractal.map_leaves Tensor.copy v))
                (Executor.execute pr env)
            in
            let wave_ok =
              List.length seq = List.length par
              && List.for_all2
                   (fun (n1, v1) (n2, v2) ->
                     n1 = n2 && Fractal.equal_exact v1 v2)
                   seq par
            in
            let interp_ok =
              match Oracles.value p par with
              | Some v -> Fractal.equal_exact v out
              | None -> false
            in
            let verdict ok = if ok then "bitwise-matches" else "DIFFERS from" in
            Format.printf
              "compiled: wavefront over %d domain(s) %s sequential@."
              (Domain_pool.num_domains ()) (verdict wave_ok);
            Format.printf "compiled: wavefront output %s the interpreter@."
              (verdict interp_ok);
            List.iter
              (fun (st : Vm.block_stats) ->
                Format.printf
                  "  %-40s %4d points in %3d fronts, max width %3d (%.1fx)@."
                  st.Vm.bs_block st.Vm.bs_points st.Vm.bs_fronts
                  st.Vm.bs_max_width (Vm.parallelism st))
              (Vm.wavefront_stats g);
            if repeat > 1 then begin
              (* the prepared executable is reused across timed runs —
                 steady state, no recompilation, no arena re-layout *)
              let times =
                Array.init repeat (fun _ ->
                    let t0 = Unix.gettimeofday () in
                    ignore (Executor.execute pr env);
                    (Unix.gettimeofday () -. t0) *. 1e3)
              in
              Array.sort compare times;
              let median = times.(repeat / 2) in
              let gflops = Emit.graph_flops g /. (median *. 1e6) in
              Format.printf
                "measured: median %.3f ms over %d run(s), %.2f GFLOP/s@."
                median repeat gflops
            end;
            if not (wave_ok && interp_ok) then exit 1)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Parse, type-check, interpret and compile a .ft program file, then \
          execute it for real on the compiled engine, sequentially and in \
          parallel wavefront order, and check both agree bitwise with each \
          other and the wavefront outputs with the interpreter")
    Term.(
      const run $ Cli_args.ft_file $ Cli_args.domains_arg
      $ Cli_args.seed_arg ~default:7 $ Cli_args.repeat_arg)

let profile_cmd =
  let run path format device domains seed =
    Cli_args.check_domains "profile" domains;
    Domain_pool.set_num_domains domains;
    warn_if_oversubscribed ();
    match Parse.program_file path with
    | exception Parse.Syntax_error { line; col; message } ->
        Format.eprintf "%s:%d:%d: %s@." path line col message;
        exit 1
    | p -> (
        match Typecheck.check_program p with
        | exception Typecheck.Type_error msg ->
            Format.eprintf "%s: type error: %s@." path msg;
            exit 1
        | _ty ->
            let sink = Trace.make () in
            (* plan cache: a hit (in-memory or FT_PLAN_CACHE on disk)
               skips the whole compile — the trace then has no compiler
               spans, only simulation and vm ones.  A tuned config in
               the database (FT_TUNE_DB) is looked up first and shifts
               the cache key, so tuned and default plans coexist.  The
               config selects that plan only; execution below runs
               with the default options. *)
            let src = read_file path in
            let tuned = tuned_tile ~device src in
            let tile = Option.value tuned ~default:Tile.default_config in
            let key = Pipeline.source_key ~tile src in
            let cached = Pipeline.Cache.mem key || Pipeline.Cache.on_disk key in
            let plan =
              if cached then Pipeline.plan_file ~tile path
              else begin
                let t = Pipeline.compile ~trace:sink ~tile p in
                Pipeline.Cache.store key t.Pipeline.p_plan;
                t.Pipeline.p_plan
              end
            in
            ignore (Executor.simulate ~device ~trace:sink plan);
            (* wavefront execution under the same sink: the "vm" track
               records per-block and per-front spans with widths and
               achieved parallelism.  The compiled executor emits the
               same spans as the interpreter, so the trace is engine-
               independent. *)
            let r = Rng.create seed in
            let env =
              List.map (fun (x, t) -> (x, random_value r t)) p.Expr.inputs
            in
            let g = Build.build p in
            let pr = Executor.prepare g in
            Trace.with_sink sink (fun () -> ignore (Executor.execute pr env));
            let prof = Executor.profile ~device plan in
            let tuned_str =
              Option.fold ~none:"none" ~some:Tile.config_to_string tuned
            in
            (match format with
            | `Text ->
                Format.printf "plan cache: %s@."
                  (if cached then "hit" else "miss");
                Format.printf "%s@." (tuned_line tuned);
                print_string (Profile.to_text prof);
                print_newline ();
                print_string (Trace.to_text sink)
            | `Json ->
                print_endline
                  (Jsonw.to_string
                     (Jsonw.Obj
                        [ ("plan_cache",
                           Jsonw.String (if cached then "hit" else "miss"));
                          ("tuned_config", Jsonw.String tuned_str);
                          ("profile", Profile.to_jsonv prof);
                          ("trace", Trace.to_jsonv sink) ]))
            | `Chrome -> print_endline (Trace.to_chrome sink)))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Compile a .ft program with tracing enabled, execute its plan on \
          the simulated device, and report per-pass wall-clock, the \
          simulated kernel timeline, and a per-kernel/per-block roofline \
          profile.  Compiled plans are cached (keyed on source contents; \
          set $(b,FT_PLAN_CACHE) to a directory to persist across \
          processes); the wavefront executor also runs under the trace, \
          contributing a \"vm\" track of per-front spans")
    Term.(
      const run $ Cli_args.ft_file $ Cli_args.trace_format_arg
      $ Cli_args.device_arg $ Cli_args.domains_arg
      $ Cli_args.seed_arg ~default:7)

let lint_cmd =
  let run path format =
    let ds = Lint.file path in
    (* diagnostics belong on stderr; stdout carries only the JSON
       document when one is requested — uniform across subcommands *)
    (match format with
    | `Text -> Format.eprintf "%a" (Diagnostic.pp_list ~path) ds
    | `Json ->
        print_endline (Diagnostic.list_to_json ~path ds);
        if ds <> [] then Format.eprintf "%a" (Diagnostic.pp_list ~path) ds);
    if List.exists Diagnostic.is_error ds then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check a .ft program: syntax, scoping (unused/shadowed \
          bindings), shape and depth inference, and operator-nest \
          composability — without executing anything")
    Term.(const run $ Cli_args.ft_file $ Cli_args.format_arg)

let analyze_cmd =
  let run path format =
    match Analyze.file path with
    | exception Parse.Syntax_error { line; col; message } ->
        Format.eprintf "%s:%d:%d: %s@." path line col message;
        exit 1
    | exception Typecheck.Type_error msg ->
        Format.eprintf "%s: type error: %s@." path msg;
        exit 1
    | r ->
        (match format with
        | `Text -> print_string (Analyze.to_text r)
        | `Json ->
            (* stdout carries only the JSON document; findings go to
               stderr so tooling can pipe stdout straight to a parser *)
            print_endline (Jsonw.to_string (Analyze.to_jsonv r));
            if r.Analyze.rp_diagnostics <> [] then
              Format.eprintf "%a"
                (Diagnostic.pp_list ~path)
                r.Analyze.rp_diagnostics);
        if Analyze.errors r then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static memory-effect analysis of a .ft program: per-block \
          read/write footprints with may/must precision, a race-freedom \
          verdict (proven-disjoint, unproven, or race) for every \
          wavefront anti-chain the VM would execute, dead-store and \
          uninitialized-read findings, buffer live ranges over the block \
          dataflow order, and a proposed arena layout in which buffers \
          with disjoint lifetimes share storage")
    Term.(const run $ Cli_args.ft_file $ Cli_args.format_arg)

let tune_cmd =
  let run path budget device format =
    Cli_args.require_at_least_1 "tune" "budget" budget;
    match Tuner.tune_file ~device ~budget path with
    | exception Parse.Syntax_error { line; col; message } ->
        Format.eprintf "%s:%d:%d: %s@." path line col message;
        exit 1
    | exception Typecheck.Type_error msg ->
        Format.eprintf "%s: type error: %s@." path msg;
        exit 1
    | report -> (
        match format with
        | `Text -> print_string (Tuner.report_to_text report)
        | `Json ->
            print_endline (Jsonw.to_string (Tuner.report_to_jsonv report)))
  in
  let budget =
    Arg.(
      value
      & opt int 32
      & info [ "budget" ] ~docv:"N"
          ~doc:"Maximum number of candidate evaluations (default 32)")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search the simulator-visible knob space of a .ft program (one \
          GEMM tile shape per site) by coordinate descent for the least \
          simulated device time (microseconds: the time $(b,ftc run) and \
          $(b,ftc profile) print for that plan) under an evaluation \
          budget, report the cost trajectory, and record the \
          winner in the tuning database (set $(b,FT_TUNE_DB) to a \
          directory to persist it); subsequent $(b,ftc run) / \
          $(b,ftc profile) of the same file select the simulated plan \
          with it, without re-searching.  Costs are model output, not \
          measurements, and execution never reads a tuned config")
    Term.(
      const run $ Cli_args.ft_file $ budget $ Cli_args.device_arg
      $ Cli_args.format_arg)

(* The two disk-backed stores [ftc cache] reports on and clears.  Only
   the disk says anything here: this process has looked nothing up, so
   its in-memory counters would always read 0. *)
let stores : (string * (module Disk_store.S)) list =
  [ ("plan cache", (module Pipeline.Cache)); ("tune db", (module Tune_db.Db)) ]

let store_stats_jsonv (module S : Disk_store.S) =
  Jsonw.Obj
    [
      ("dir", Option.fold ~none:Jsonw.Null ~some:(fun d -> Jsonw.String d)
                (S.dir ()));
      ("disk_entries", Jsonw.Int (List.length (S.disk_entries ())));
    ]

let print_store_stats (name, (module S : Disk_store.S)) =
  match S.dir () with
  | None -> Format.printf "%-11s %s unset (memory only)@." (name ^ ":") S.env_var
  | Some d ->
      Format.printf "%-11s %d disk entrie(s) under %s@." (name ^ ":")
        (List.length (S.disk_entries ())) d

let cache_cmd =
  let run action disk json =
    match action with
    | `Stats when json ->
        print_endline
          (Jsonw.to_string
             (Jsonw.Obj
                (List.map
                   (fun (name, st) ->
                     ( String.map (function ' ' -> '_' | c -> c) name,
                       store_stats_jsonv st ))
                   stores)))
    | `Stats -> List.iter print_store_stats stores
    | `Clear ->
        (* in-memory state dies with this process anyway; [clear] never
           touches disk — only --disk does *)
        List.iter
          (fun (name, (module S : Disk_store.S)) ->
            S.clear ();
            if disk then
              Format.printf "%s: cleared %d disk entrie(s)@." name
                (S.clear_disk ()))
          stores;
        if not disk then
          Format.printf
            "cleared in-memory caches (disk entries untouched; pass --disk \
             to delete them)@."
  in
  let action =
    Arg.(
      required
      & pos 0 (some (enum [ ("stats", `Stats); ("clear", `Clear) ])) None
      & info [] ~docv:"ACTION" ~doc:"stats or clear")
  in
  let disk =
    Arg.(
      value & flag
      & info [ "disk" ]
          ~doc:
            "With clear: also delete the FT_PLAN_CACHE and FT_TUNE_DB disk \
             entries (by default only in-memory state is dropped and disk \
             entries are left alone)")
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect or clear the compiled-plan cache ($(b,FT_PLAN_CACHE)) \
          and the tuning database ($(b,FT_TUNE_DB))")
    Term.(const run $ action $ disk $ Cli_args.json_flag)

let conform_cmd =
  let run seed budget oracles corpus replay json meta_iters =
    Cli_args.require_at_least_1 "conform" "budget" budget;
    let oracles =
      match oracles with [] -> Oracles.all_oracles | names -> names
    in
    let bad =
      List.filter (fun o -> not (List.mem o Oracles.all_oracles)) oracles
    in
    if bad <> [] then begin
      Format.eprintf "conform: unknown oracle(s) %s; known: %s@."
        (String.concat ", " bad)
        (String.concat ", " Oracles.all_oracles);
      exit 1
    end;
    match replay with
    | Some target ->
        let files =
          if Sys.file_exists target && Sys.is_directory target then
            Corpus.files target
          else [ target ]
        in
        if files = [] then begin
          Format.printf "conform: no corpus files under %s@." target;
          exit 0
        end;
        let results = Conform.replay ~oracles files in
        let failed = List.filter (fun (_, r) -> r <> None) results in
        if json then
          print_endline
            (Jsonw.to_string
               (Jsonw.Obj
                  [
                    ("replayed", Jsonw.Int (List.length results));
                    ("failed", Jsonw.Int (List.length failed));
                    ( "files",
                      Jsonw.List
                        (List.map
                           (fun (f, r) ->
                             Jsonw.Obj
                               [
                                 ("file", Jsonw.String f);
                                 ( "failure",
                                   match r with
                                   | None -> Jsonw.Null
                                   | Some m -> Jsonw.String m );
                               ])
                           results) );
                  ]))
        else
          List.iter
            (fun (f, r) ->
              match r with
              | None -> Format.printf "PASS %s@." f
              | Some m -> Format.eprintf "FAIL %s: %s@." f m)
            results;
        if failed <> [] then exit 1
    | None ->
        let rp =
          Conform.run ~oracles ?corpus_dir:corpus ~meta_iters ~seed ~budget ()
        in
        if json then
          print_endline (Jsonw.to_string (Conform.report_to_jsonv rp))
        else print_string (Conform.report_to_text rp);
        if not (Conform.passed rp) then exit 1
  in
  let budget =
    Arg.(
      value & opt int 100
      & info [ "budget" ] ~docv:"K"
          ~doc:"Number of random programs to generate and cross-check")
  in
  let oracles =
    Arg.(
      value
      & opt (list ~sep:',' string) []
      & info [ "oracles" ] ~docv:"LIST"
          ~doc:
            "Comma-separated oracle subset (default: all).  interp is \
             always included — it defines the reference semantics")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Write each minimized failing program to this directory as a \
             replayable .ft file")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"DIR|FILE.ft"
          ~doc:
            "Replay corpus files instead of generating: parse each file, \
             re-derive its inputs from the recorded seed, and re-run every \
             oracle")
  in
  let meta_iters =
    Arg.(
      value & opt int 3
      & info [ "meta-iters" ] ~docv:"N"
          ~doc:"Random trials per metamorphic law")
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Differential + metamorphic conformance run: seeded random programs \
          executed by every back end (the reference interpreter; the \
          compiled engine in sequential order, in wavefront order at 1, 2 \
          and 4 domains, with and without fusion, with tuned configs and \
          across plan-cache round trips; sharded across 2 and 4 devices) \
          with bitwise comparison, the values-free shadow-memory check of \
          each schedule (oracle $(b,shadow)), the per-stage static \
          verifier (oracle $(b,stages)), shrinking, and a \
          minimized-repro corpus")
    Term.(
      const run
      $ Cli_args.seed_arg ~default:42
      $ budget $ oracles $ corpus $ replay $ Cli_args.json_flag $ meta_iters)

let serve_cmd =
  let run files max_batch tick requests rate seed domains =
    let usage msg =
      Format.eprintf "serve: %s@." msg;
      exit 1
    in
    if requests < 0 then usage "--requests must be at least 0";
    Cli_args.require_at_least_1 "serve" "max-batch" max_batch;
    if not (rate > 0.0) then usage "--rate must be positive";
    Cli_args.check_domains "serve" domains;
    Domain_pool.set_num_domains domains;
    warn_if_oversubscribed ();
    let opts = { Run_opts.default with Run_opts.domains } in
    if files = [] then begin
      Format.eprintf "serve: need a FILE.ft (or builtin: %s)@."
        (String.concat ", " Servable.builtin_names);
      exit 1
    end;
    let bad_total = ref 0 in
    List.iter
      (fun f ->
        match
          Result.bind (Serve.program_of f) (fun p ->
              Result.map (fun sv -> (p, sv)) (Servable.of_program p))
        with
        | Error e ->
            Format.eprintf "serve: %s@." e;
            exit 1
        | Ok (p, sv) ->
            let pl =
              Loadgen.plan ~seed ~n:requests ~rate
                ~len_lo:(max 1 (sv.Servable.sv_seq_len / 2))
                ~len_hi:sv.Servable.sv_seq_len
            in
            let rs = Loadgen.requests sv ~seed pl in
            let o = Serve.run_requests ~opts ~max_batch ?tick_ms:tick sv rs in
            let rs_solo = Loadgen.requests sv ~seed pl in
            let s = Serve.solo ~opts sv rs_solo in
            let bad = Serve.mismatches o.oc_completed s.oc_completed in
            let bad_ref = Serve.reference_mismatches p o.oc_completed in
            bad_total := !bad_total + bad + bad_ref;
            Format.printf "workload %s@." sv.Servable.sv_name;
            Format.printf "%a@." Metrics.pp o.Serve.oc_metrics;
            Format.printf "batched %s solo service (%d request(s))@."
              (if bad = 0 then "bitwise-matches" else "DIFFERS from")
              (List.length o.Serve.oc_completed);
            Format.printf "responses %s the reference interpreter@."
              (if bad_ref = 0 then "bitwise-match" else "DIFFER from"))
      files;
    if !bad_total > 0 then exit 1
  in
  let files =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"Programs to serve: .ft example files or builtin workload names")
  in
  let max_batch =
    Arg.(
      value & opt int 8
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Batch slots (the shared batch dimension's capacity)")
  in
  let tick =
    Arg.(
      value & opt (some float) None
      & info [ "tick" ] ~docv:"MS"
          ~doc:
            "Tick deadline in milliseconds (wall pacing); unset runs in \
             virtual time")
  in
  let requests =
    Arg.(
      value & opt int 32
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per closed-loop run")
  in
  let rate =
    Arg.(
      value & opt float 2.0
      & info [ "rate" ] ~docv:"R" ~doc:"Arrivals per tick (Poisson)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Continuous-batching inference serving over the compiled wavefront \
          engine: requests join and leave the shared batch mid-sequence, \
          every tick is one executor run, and batched service is checked \
          bitwise against serving each request alone")
    Term.(
      const run $ files $ max_batch $ tick $ requests $ rate
      $ Cli_args.seed_arg ~default:2024
      $ Cli_args.domains_arg)

let shard_cmd =
  let run target devices strategy link device seed json =
    Cli_args.require_at_least_1 "shard" "devices" devices;
    let p =
      if Sys.file_exists target then (
        match Parse.program_file target with
        | exception Parse.Syntax_error { line; col; message } ->
            Format.eprintf "%s:%d:%d: %s@." target line col message;
            exit 1
        | p -> p)
      else (find_workload target).w_program ()
    in
    let g = Build.build p in
    (match Ir.validate g with
    | Ok () -> ()
    | Error es ->
        List.iter (Format.eprintf "invariant violated: %s@.") es;
        exit 1);
    let rng = Rng.create seed in
    let inputs =
      List.map (fun (x, t) -> (x, random_value rng t)) p.Expr.inputs
    in
    match Dist.differential ?strategy ~link ~device ~devices g inputs with
    | exception Dist.Illegal_plan diags ->
        Format.eprintf "shard: plan statically refuted:@.%a@."
          (Diagnostic.pp_list ?path:None) diags;
        exit 1
    | rep, bitwise ->
        (* the same run on one device, through the same model, anchors
           the scaling number *)
        let base = Dist.run ~link ~device ~devices:1 g inputs in
        let speedup =
          if rep.Dist.rp_sim.Engine.dm_time_ms > 0.0 then
            base.Dist.rp_sim.Engine.dm_time_ms
            /. rep.Dist.rp_sim.Engine.dm_time_ms
          else 0.0
        in
        if json then begin
          let shard_json (_, sh) =
            Jsonw.Obj
              [
                ("block", Jsonw.String sh.Shard.sh_block);
                ( "strategy",
                  Jsonw.String (Shard.strategy_name sh.Shard.sh_strategy) );
                ("axis", Jsonw.Int sh.Shard.sh_axis);
                ("chunk", Jsonw.Int sh.Shard.sh_chunk);
                ("halo", Jsonw.Int sh.Shard.sh_halo);
              ]
          in
          print_endline
            (Jsonw.to_string
               (Jsonw.Obj
                  [
                    ("program", Jsonw.String p.Expr.name);
                    ("devices", Jsonw.Int devices);
                    ("strategy", Jsonw.String rep.Dist.rp_strategy);
                    ("link", Jsonw.String rep.Dist.rp_link.Device.link_name);
                    ("bitwise_equal", Jsonw.Bool bitwise);
                    ("transfers", Jsonw.Int rep.Dist.rp_xfers);
                    ("device_transfers", Jsonw.Int rep.Dist.rp_device_xfers);
                    ("transfer_gb", Jsonw.Float rep.Dist.rp_xfer_gb);
                    ( "sim_time_ms",
                      Jsonw.Float rep.Dist.rp_sim.Engine.dm_time_ms );
                    ( "sim_time_1dev_ms",
                      Jsonw.Float base.Dist.rp_sim.Engine.dm_time_ms );
                    ("speedup_vs_1dev", Jsonw.Float speedup);
                    ( "fallbacks",
                      Jsonw.Int
                        (List.length rep.Dist.rp_log.Dist_exec.lg_fallbacks)
                    );
                    ( "shards",
                      Jsonw.List
                        (List.map shard_json rep.Dist.rp_plan.Shard.pl_blocks)
                    );
                  ]))
        end
        else begin
          Format.printf "program %s across %d device(s), strategy %s, %s@."
            p.Expr.name devices rep.Dist.rp_strategy
            rep.Dist.rp_link.Device.link_name;
          List.iter
            (fun (_, sh) -> Format.printf "  %a@." Shard.pp_shard sh)
            rep.Dist.rp_plan.Shard.pl_blocks;
          List.iter
            (fun d -> Format.printf "  %a@." (Diagnostic.pp ?path:None) d)
            rep.Dist.rp_diags;
          Format.printf
            "executed: %d transfer(s), %d device-to-device, %.3f MB moved@."
            rep.Dist.rp_xfers rep.Dist.rp_device_xfers
            (rep.Dist.rp_xfer_gb *. 1e3);
          Format.printf "simulated: %a@." Engine.pp_dist_metrics
            rep.Dist.rp_sim;
          Format.printf "speedup vs 1 device: %.2fx (%.3f ms -> %.3f ms)@."
            speedup base.Dist.rp_sim.Engine.dm_time_ms
            rep.Dist.rp_sim.Engine.dm_time_ms;
          Format.printf "%s the single-device compiled engine@."
            (if bitwise then "bitwise-identical to" else "DIFFERS from")
        end;
        if not bitwise then exit 1
  in
  let target =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Program to shard: a .ft file or a builtin workload name")
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Shard the ETDG across simulated devices: partition, statically \
          verify, execute each shard on its own OCaml domain with explicit \
          transfers, check bitwise against the single-device compiled \
          engine, and price the run on the interconnect model")
    Term.(
      const run $ target $ Cli_args.devices_arg $ Cli_args.strategy_arg
      $ Cli_args.link_arg $ Cli_args.device_arg
      $ Cli_args.seed_arg ~default:42
      $ Cli_args.json_flag)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "ftc" ~version:"1.0"
      ~doc:"FractalTensor compiler driver (SOSP 2024 reproduction)"
  in
  (* cmdliner would turn an escaping verifier failure into an internal
     error (exit 125); the one handler prints its findings and exits 1,
     and every other exception still ends as that internal error. *)
  let cmd =
    Cmd.group ~default info
      [ list_cmd; verify_cmd; show_cmd; compile_cmd; simulate_cmd;
        run_cmd; profile_cmd; analyze_cmd; tune_cmd; cache_cmd;
        lint_cmd; conform_cmd; serve_cmd; shard_cmd ]
  in
  exit
    (match Verify.exit_on_failure (fun () -> Cmd.eval ~catch:false cmd) with
    | code -> code
    | exception e ->
        Format.eprintf "ftc: internal error, uncaught exception:@\n%s@\n%s@."
          (Printexc.to_string e)
          (Printexc.get_backtrace ());
        Cmd.Exit.internal_error)
