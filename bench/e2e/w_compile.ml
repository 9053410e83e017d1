(* compile_corpus: the [ftc run] path from [.ft] text to checked
   outputs, one domain, no plan cache.  The corpus is [Conform.Gen]
   programs from the compiled fragment, unparsed to text, plus the
   benchmark's hand-written [compile_*.ft] files (four small examples
   and the four conformance-corpus repros).  Compile passes are most of
   each op, so the compiler layers dominate here.

   The generated programs are drawn from one fixed generator seed, and
   the run's seed draws every program's inputs, as it does for the
   other workloads' fixed programs: whatever the seed, a run measures
   the same compiler work. *)

open Common

type item = {
  text : string;
  prog : Expr.program;
  inputs : (string * Fractal.t) list;
  reference : Fractal.t;
}

let generator_seed = 1
let generated = 500

let corpus ctx =
  let item i (text, prog) =
    let inputs = Corpus.inputs_for prog (ctx.seed + i) in
    { text; prog; inputs; reference = Interp.run_program prog inputs }
  in
  let fixed = load_programs ctx.programs ~prefix:"compile_" in
  let rng = Rng.create generator_seed in
  let rec draw acc k =
    if k = 0 then List.rev acc
    else
      let sp = Gen.generate rng in
      if Gen.compiled_expected sp then
        let text = Unparse.program (Gen.program sp) in
        draw ((text, Parse.program text) :: acc) (k - 1)
      else draw acc k
  in
  let n_fixed = List.length fixed in
  ( List.mapi item fixed,
    List.mapi (fun i p -> item (n_fixed + i) p) (draw [] (if ctx.tiny then 40 else generated)) )

let stages =
  [
    "parse"; "typecheck"; "build"; "coarsen.group"; "coarsen.merge"; "verify";
    "emit"; "gpusim.simulate"; "executor.prepare"; "executor.execute";
  ]

(* One op: every front door of the compile chain, in [ftc run] order. *)
let compile_and_run tr ~op ~parent it =
  let st name f = Spans.stage tr ~op ~parent name f in
  let p = st "parse" (fun () -> Parse.program it.text) in
  ignore (st "typecheck" (fun () -> Typecheck.check_program p));
  let g = st "build" (fun () -> Build.build p) in
  let grouped = st "coarsen.group" (fun () -> Coarsen.group_regions g) in
  let merged = st "coarsen.merge" (fun () -> Coarsen.merge_only grouped) in
  let diags = st "verify" (fun () -> Verify.graph ~stage:"emit" merged) in
  if List.exists Diagnostic.is_error diags then
    failwith (p.Expr.name ^ ": the verifier rejected the coarsened graph");
  let plan = st "emit" (fun () -> Emit.emit_plan merged) in
  ignore (st "gpusim.simulate" (fun () -> Executor.metrics plan));
  let pr = st "executor.prepare" (fun () -> Executor.prepare ~opts:(opts ~domains:1) g) in
  let outs = st "executor.execute" (fun () -> Executor.execute pr it.inputs) in
  (g, merged, plan, pr, outs)

let blocks (g : Ir.graph) = float_of_int (List.length g.Ir.g_blocks)

let run ctx =
  let fixed, generated = memo ctx "compile_corpus" (fun () -> corpus ctx) in
  let items = Array.of_list (fixed @ generated) in
  (* Nothing is prepared ahead of an op here, so set-up is a pass over
     the hand-written programs: it warms the process and shows any work
     a change moves out of the op into a one-time step. *)
  let (), setup =
    repeated_setup ctx (fun _ ->
        List.iter
          (fun it -> try ignore (compile_and_run None ~op:0 ~parent:(-1) it) with _ -> ())
          fixed)
  in
  let counts = Counts.create () and traced_bytes = ref 0 in
  let lp =
    loop ctx ~n:(Array.length items) (fun ~tr ~pass ~op k ->
        let it = items.(k) in
        let (g, merged, plan, pr, outs), ms = op_span tr ~op (compile_and_run tr ~op it) in
        if tr <> None then traced_bytes := !traced_bytes + String.length it.text;
        if pass = 0 then begin
          Counts.add counts "bench.corpus_programs" 1.;
          Counts.add counts "build.blocks" (blocks g);
          Counts.add counts "coarsen.blocks" (blocks merged);
          Counts.add counts "emit.kernels" (float_of_int (Plan.total_kernels plan));
          Counts.add_all counts (executor_counts pr)
        end;
        (ms, check it.prog ~reference:it.reference outs))
  in
  let layers =
    match traced_layers ctx lp stages with
    | [] -> []
    | layers ->
        let parse_s = List.assoc "parse.ms" layers *. float_of_int lp.traced_ops /. 1e3 in
        ("parse.mb_per_s", float_of_int !traced_bytes /. 1e6 /. parse_s) :: layers
  in
  loop_result ctx ~setup lp ~counts:(Counts.to_list counts) ~layers
