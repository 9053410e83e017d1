(* execute_suite: steady-state [Executor.execute] of prepared programs
   at two domains, cycling the benchmark's [exec_*.ft] files (stacked
   LSTM and RNN, flash attention, an MLP chain, a fat FFN GEMM, a
   selective scan and a windowed convolution).  Compile is paid once in
   set-up, so kernels, fusion, packing and the wavefront schedule
   dominate.  The suite has an odd number of programs so the pooled
   median falls inside one program's distribution, not between two. *)

open Common

let domains = 2

type prog = {
  p : Expr.program;
  inputs : (string * Fractal.t) list;
  reference : Fractal.t;
  pr : Executor.prepared;
  flops : float;
  prepare_ms : float;
}

let run ctx =
  let sources = load_programs ctx.programs ~prefix:"exec_" in
  let built, setup =
    repeated_setup ctx (fun _ ->
        List.map
          (fun (text, _) ->
            let p = Parse.program text in
            ignore (Typecheck.check_program p);
            let g = Build.build p in
            let pr, prepare_ms = timed (fun () -> Executor.prepare ~opts:(opts ~domains) g) in
            (p, g, pr, prepare_ms))
          sources)
  in
  let checked =
    memo ctx "execute_suite" (fun () ->
        List.mapi
          (fun i (p, _, _, _) ->
            let inputs = Corpus.inputs_for p (ctx.seed + i) in
            (inputs, Interp.run_program p inputs))
          built)
  in
  let progs =
    Array.of_list
      (List.map2
         (fun (p, g, pr, prepare_ms) (inputs, reference) ->
           { p; inputs; reference; pr; flops = Emit.graph_flops g; prepare_ms })
         built checked)
  in
  (* one untimed pass warms caches and finishes lazy set-up *)
  Array.iter (fun pg -> try ignore (Executor.execute pg.pr pg.inputs) with _ -> ()) progs;
  (* minor words are counted on untraced ops, whose spans allocate nothing *)
  let minor_words = ref 0. in
  let lp =
    loop ctx ~n:(Array.length progs) (fun ~tr ~pass:_ ~op k ->
        let pg = progs.(k) in
        let execute ~parent =
          Spans.stage tr ~op ~parent ("executor.execute." ^ pg.p.Expr.name) (fun () ->
              Executor.execute pg.pr pg.inputs)
        in
        let w0 = Gc.minor_words () in
        let outs, ms = op_span tr ~op execute in
        if tr = None then minor_words := !minor_words +. (Gc.minor_words () -. w0);
        (ms, check pg.p ~reference:pg.reference outs))
  in
  let counts = Counts.create () in
  Array.iter (fun pg -> Counts.add_all counts (executor_counts pg.pr)) progs;
  let layers =
    match ctx.trace with
    | None -> []
    | Some tr ->
        let ls = Spans.layers tr in
        let per_program pg =
          let name = "executor.execute." ^ pg.p.Expr.name in
          match List.assoc_opt name ls with
          | Some l when l.Spans.l_count > 0 ->
              let ms = l.Spans.l_total_ms /. float_of_int l.Spans.l_count in
              [ (name ^ ".ms", ms); (name ^ ".gflops", pg.flops /. (ms *. 1e6)) ]
          | _ -> []
        in
        let mean f = Array.fold_left (fun a pg -> a +. f pg) 0. progs /. float_of_int (Array.length progs) in
        traced_layers ctx lp []
        @ List.concat_map per_program (Array.to_list progs)
        @ [
            ("executor.prepare.ms", mean (fun pg -> pg.prepare_ms));
            ("executor.minor_words_per_op", !minor_words /. float_of_int lp.plain_ops);
          ]
  in
  loop_result ctx ~setup lp ~counts:(Counts.to_list counts) ~layers
