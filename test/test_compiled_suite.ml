(* The compiled executor: for every workload, the straight-line
   closure engine must be *bitwise* identical to the reference
   interpreter and to its own sequential order — with and without
   fusion, at one and several domains — its schedule must record one
   shadow write per point and write edge, and its steady-state execute
   loop must allocate zero minor words. *)

let checkb = Alcotest.(check bool)

(* name, program, bindings — one entry per workload family *)
let programs () =
  [
    ( "stacked_rnn",
      Stacked_rnn.program Stacked_rnn.default,
      Stacked_rnn.bindings
        (Stacked_rnn.gen_inputs (Rng.create 7) Stacked_rnn.default) );
    ( "stacked_lstm",
      Stacked_lstm.program Stacked_lstm.default,
      Stacked_lstm.bindings
        (Stacked_lstm.gen_inputs (Rng.create 7) Stacked_lstm.default) );
    ( "grid_rnn",
      Grid_rnn.program Grid_rnn.default,
      Grid_rnn.bindings (Grid_rnn.gen_inputs (Rng.create 7) Grid_rnn.default)
    );
    ( "dilated_rnn",
      Dilated_rnn.program Dilated_rnn.default,
      Dilated_rnn.bindings
        (Dilated_rnn.gen_inputs (Rng.create 7) Dilated_rnn.default) );
    ( "b2b_gemm",
      B2b_gemm.program B2b_gemm.default,
      B2b_gemm.bindings (B2b_gemm.gen_inputs (Rng.create 7) B2b_gemm.default)
    );
    ( "flash_attention",
      Flash_attention.program Flash_attention.default,
      Flash_attention.bindings
        (Flash_attention.gen_inputs (Rng.create 7) Flash_attention.default) );
    ( "bigbird",
      Bigbird.program Bigbird.default,
      Bigbird.bindings (Bigbird.gen_inputs (Rng.create 7) Bigbird.default) );
    ( "selective_scan",
      Selective_scan.program Selective_scan.default,
      Selective_scan.bindings
        (Selective_scan.gen_inputs (Rng.create 7) Selective_scan.default) );
    ( "retention",
      Retention.program Retention.default,
      Retention.bindings
        (Retention.gen_inputs (Rng.create 7) Retention.default) );
    ( "conv1d",
      Conv1d.program Conv1d.default,
      Conv1d.bindings (Conv1d.gen_inputs (Rng.create 7) Conv1d.default) );
  ]

let workloads () =
  List.map (fun (name, p, binds) -> (name, Build.build p, binds)) (programs ())

let outputs_equal_exact a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> n1 = n2 && Fractal.equal_exact v1 v2)
       a b

let sequential =
  Executor.run
    ~opts:{ Run_opts.default with Run_opts.order = Vm.Sequential;
            domains = Some 1 }

let opts ?domains ?(fuse = true) () =
  { Run_opts.default with Run_opts.domains; fuse }

(* [execute] hands out the executable's own cells; a result kept
   across runs of one prepared value is a copy. *)
let copy outs =
  List.map (fun (n, v) -> (n, Fractal.map_leaves Tensor.copy v)) outs

let compile_exn pr =
  match Executor.compiled pr with
  | Some e -> e
  | None -> Alcotest.fail "should compile"

(* Kernels that read their operands at an offset of the engine's
   padded per-worker slot array: a four-operand [concat_cols], the one
   kernel that reads a whole operand range; a per-point [@T], whose
   transpose lands in per-worker scratch; and a GEMM whose bias and
   [tanh] tails become its epilogue. *)
let padded_programs () =
  List.map
    (fun (name, src) -> (name, Parse.program src))
    [
      ( "concat_cols",
        "program concat_rows\n\
         input xs: [6]f32[4,8]\n\
         input ys: [6]f32[4,8]\n\
         input zs: [6]f32[4,16]\n\
         return zip(xs, ys, zs).map { |x, y, z| concat_cols(x, tanh(y), z, \
         x * y) }\n" );
      ( "matmul_t",
        "program matmul_t_rows\n\
         input qs: [6]f32[4,8]\n\
         input ks: [6]f32[4,8]\n\
         return zip(qs, ks).map { |q, k| q @T k }\n" );
      ( "epilogue",
        "program epilogue_rows\n\
         input xs: [6]f32[4,8]\n\
         input w: f32[8,8]\n\
         return xs.map { |x| tanh(x @ w + full[4,8](0.25)) }\n" );
    ]

let corpus_dir = "corpus"

let compiled_tests =
  [
    Alcotest.test_case "compiled = interpreter bitwise, every workload" `Quick
      (fun () ->
        List.iter
          (fun (name, p, binds) ->
            let g = Build.build p in
            let reference = Interp.run_program p binds in
            let got = Executor.run ~opts:(opts ~domains:1 ()) g binds in
            checkb (name ^ " bitwise") true
              (match Oracles.value p got with
              | Some v -> Fractal.equal_exact v reference
              | None -> false);
            checkb (name ^ " = sequential order") true
              (outputs_equal_exact (sequential g binds) got))
          (programs ()));
    Alcotest.test_case "compiled multi-domain stays bitwise identical" `Quick
      (fun () ->
        List.iter
          (fun (name, g, binds) ->
            let reference = sequential g binds in
            List.iter
              (fun d ->
                let got = Executor.run ~opts:(opts ~domains:d ()) g binds in
                checkb
                  (Printf.sprintf "%s @ %d domains" name d)
                  true
                  (outputs_equal_exact reference got))
              [ 2; 4 ])
          (workloads ()));
    Alcotest.test_case "executable reuse across runs is stable" `Quick
      (fun () ->
        let g = Build.build (Stacked_lstm.program Stacked_lstm.default) in
        let binds =
          Stacked_lstm.bindings
            (Stacked_lstm.gen_inputs (Rng.create 11) Stacked_lstm.default)
        in
        let pr = Executor.prepare ~opts:(opts ~domains:1 ()) g in
        let first = copy (Executor.execute pr binds) in
        let second = copy (Executor.execute pr binds) in
        let third = Executor.execute pr binds in
        checkb "run 2" true (outputs_equal_exact first second);
        checkb "run 3" true (outputs_equal_exact first third));
    Alcotest.test_case "steady-state execute allocates zero minor words"
      `Quick (fun () ->
        (* the LSTM's GEMMs read input-cell weights; flash attention's
           [@T] transposes a per-point operand into worker scratch;
           [concat_cols] reads its operand range of the slot array *)
        let concat = List.assoc "concat_cols" (padded_programs ()) in
        let cases =
          [
            ( "concat_cols",
              Build.build concat,
              Corpus.inputs_for concat 5 );
            ( "stacked_lstm",
              Build.build (Stacked_lstm.program Stacked_lstm.default),
              Stacked_lstm.bindings
                (Stacked_lstm.gen_inputs (Rng.create 5) Stacked_lstm.default) );
            ( "flash_attention",
              Build.build (Flash_attention.program Flash_attention.default),
              Flash_attention.bindings
                (Flash_attention.gen_inputs (Rng.create 5)
                   Flash_attention.default) );
          ]
        in
        (* at 2 domains every front wider than one point forks and
           joins on the pool, so the fork/join must not allocate
           either *)
        List.iter
          (fun (name, g, binds) ->
            List.iter
              (fun domains ->
                let name = Printf.sprintf "%s@%d" name domains in
                let pool =
                  if domains = 1 then None else Some (Domain_pool.sized domains)
                in
                let exe =
                  compile_exn (Executor.prepare ~opts:(opts ~domains ()) g)
                in
                Compiled.load exe binds;
                (* warm-up: fault in any lazy runtime state *)
                Compiled.execute ?pool exe;
                Compiled.execute ?pool exe;
                (* [Gc.minor_words ()] boxes its float result on the minor
                   heap, so bracket an empty section first and subtract
                   that constant. *)
                let a = Gc.minor_words () in
                let b = Gc.minor_words () in
                let overhead = b -. a in
                let c = Gc.minor_words () in
                Compiled.execute ?pool exe;
                let d = Gc.minor_words () in
                let allocated = d -. c -. overhead in
                Alcotest.(check (float 0.0))
                  (name ^ ": minor words per execute")
                  0.0 allocated)
              [ 1; 2 ])
          cases);
    Alcotest.test_case
      "padded operand arrays: concat_cols, @T, an epilogue and the corpus \
       programs bitwise to the interpreter at 1, 2 and 4 workers" `Quick
      (fun () ->
        let corpus =
          List.map
            (fun path ->
              let p, seed = Corpus.load path in
              (Filename.basename path, p, seed))
            (Corpus.files corpus_dir)
        in
        checkb "the corpus is read" true (List.length corpus >= 4);
        List.iter
          (fun (name, p, seed) ->
            let binds = Corpus.inputs_for p seed in
            let reference = Interp.run_program p binds in
            let g = Build.build p in
            List.iter
              (fun d ->
                let pr = Executor.prepare ~opts:(opts ~domains:d ()) g in
                checkb (Printf.sprintf "%s @ %d workers" name d) true
                  (match Oracles.value p (Executor.execute pr binds) with
                  | Some v -> Fractal.equal_exact v reference
                  | None -> false);
                if name = "epilogue" then
                  checkb "the tails are swallowed" true
                    (List.exists
                       (fun s -> s.Compiled.fs_swallowed = 2)
                       (Compiled.fusion_stats (compile_exn pr))))
              [ 1; 2; 4 ])
          (List.map (fun (n, p) -> (n, p, 7)) (padded_programs ()) @ corpus));
    Alcotest.test_case "arena is live: intermediates share one backing"
      `Quick (fun () ->
        let g =
          Build.build (Flash_attention.program Flash_attention.default)
        in
        let exe = compile_exn (Executor.prepare ~opts:(opts ~domains:1 ()) g) in
        checkb "arena sized" true (Compiled.arena_floats exe > 0));
    Alcotest.test_case "fusion off = fusion on, bitwise, every workload"
      `Quick (fun () ->
        List.iter
          (fun (name, g, binds) ->
            let fused = Executor.run ~opts:(opts ~domains:1 ()) g binds in
            let unfused =
              Executor.run ~opts:(opts ~domains:1 ~fuse:false ()) g binds
            in
            checkb name true (outputs_equal_exact fused unfused))
          (workloads ()));
    Alcotest.test_case "fusion stats: ops fuse, tails swallow"
      `Quick (fun () ->
        let stats_of o g =
          match Executor.compiled (Executor.prepare ~opts:o g) with
          | Some exe -> Compiled.fusion_stats exe
          | None -> Alcotest.fail "workload should compile"
        in
        let total f = List.fold_left (fun a s -> a + f s) 0 in
        (* the LSTM coalesces its gate chains; its biases arrive as
           input cells, so epilogue swallowing needs the RNN, whose
           [Lit] bias is a block constant *)
        let lstm = Build.build (Stacked_lstm.program Stacked_lstm.default) in
        let fused = stats_of (opts ~domains:1 ()) lstm in
        checkb "some ops coalesced" true
          (total (fun s -> s.Compiled.fs_fused_ops) fused > 0);
        let rnn = Build.build (Stacked_rnn.program Stacked_rnn.default) in
        checkb "some epilogue tails swallowed" true
          (total
             (fun s -> s.Compiled.fs_swallowed)
             (stats_of (opts ~domains:1 ()) rnn)
          > 0);
        List.iter
          (fun s ->
            checkb (s.Compiled.fs_block ^ " all zeros under fuse:false") true
              (s.Compiled.fs_groups = 0 && s.Compiled.fs_fused_ops = 0
              && s.Compiled.fs_swallowed = 0))
          (stats_of (opts ~domains:1 ~fuse:false ()) lstm));
    Alcotest.test_case
      "the shadow check walks the schedule the engine compiles, and the \
       engine over it is bitwise, fused and unfused, every workload" `Quick
      (fun () ->
        List.iter
          (fun (name, g, binds) ->
            let reference = sequential g binds in
            (* the check's own default schedule *)
            let default = Shadow.check g in
            Alcotest.(check (list string)) (name ^ ": no contradiction") []
              (snd default);
            List.iter
              (fun fuse ->
                (* the engine's default schedule, logged by block *)
                let compiled = ref [] in
                let logged (b : Ir.block) pts =
                  let s = Vm.guarded_schedule g Vm.Wavefront b pts in
                  compiled := (b.Ir.blk_name, (pts, fst s)) :: !compiled;
                  s
                in
                let exe = Compiled.compile ~schedule:logged ~fuse g in
                let replay (b : Ir.block) pts =
                  let pts', s = List.assoc b.Ir.blk_name !compiled in
                  checkb (b.Ir.blk_name ^ ": same points") true (pts = pts');
                  (s, None)
                in
                checkb
                  (Printf.sprintf "%s: the default check is the check of \
                                   the engine's schedule, fuse=%b" name fuse)
                  true
                  (Shadow.check ~schedule:replay g = default);
                List.iter
                  (fun (blk, (pts, s)) ->
                    let b =
                      List.find (fun b -> b.Ir.blk_name = blk)
                        (Ir.dataflow_order g)
                    in
                    checkb
                      (Printf.sprintf "%s/%s: the unreported guard gives \
                                       the engine's schedule" name blk)
                      true
                      (fst (Vm.guard g Vm.Wavefront b pts) = s))
                  !compiled;
                Compiled.load exe binds;
                Compiled.execute exe;
                checkb (Printf.sprintf "%s bitwise, fuse=%b" name fuse) true
                  (outputs_equal_exact reference (Compiled.outputs exe)))
              [ true; false ])
          (workloads ()));
    Alcotest.test_case
      "shadow records each point's live reads and its writes, every \
       workload" `Quick (fun () ->
        List.iter
          (fun (name, g, _) ->
            let summary, _ = Shadow.check g in
            let blocks = Ir.dataflow_order g in
            let writes =
              List.fold_left
                (fun a (b : Ir.block) ->
                  a
                  + List.length (Domain.enumerate b.Ir.blk_domain)
                    * List.length (Ir.writes b))
                0 blocks
            in
            let buf_name id =
              (List.find (fun bf -> bf.Ir.buf_id = id) g.Ir.g_buffers)
                .Ir.buf_name
            in
            let read_buffers =
              List.concat_map
                (fun b ->
                  List.map (fun (e : Ir.edge) -> buf_name e.Ir.e_buffer)
                    (Ir.live_reads b))
                blocks
              |> List.sort_uniq compare
            in
            Alcotest.(check int)
              (name ^ ": one write event per point and write edge")
              writes summary.Shadow.sh_writes;
            Alcotest.(check (list string))
              (name ^ ": the buffers of the live reads")
              read_buffers summary.Shadow.sh_read_buffers)
          (workloads ()));
    Alcotest.test_case
      "execute's outputs are the executable's cells, overwritten by the \
       next run; a copy is not" `Quick (fun () ->
        let g = Build.build (Stacked_rnn.program Stacked_rnn.default) in
        let binds seed =
          Stacked_rnn.bindings
            (Stacked_rnn.gen_inputs (Rng.create seed) Stacked_rnn.default)
        in
        let pr = Executor.prepare ~opts:(opts ~domains:1 ()) g in
        let first = Executor.execute pr (binds 1) in
        let kept = copy first in
        checkb "the copy equals the run" true (outputs_equal_exact kept first);
        let second = Executor.execute pr (binds 2) in
        checkb "the same cells every run" true (first == second);
        checkb "the next run overwrote them" false
          (outputs_equal_exact kept first);
        checkb "they hold the next run's outputs" true
          (outputs_equal_exact first (Executor.run g (binds 2)));
        checkb "the copy is untouched" true
          (outputs_equal_exact kept (Executor.run g (binds 1))));
    Alcotest.test_case
      "a GEMM right operand changed in place is read afresh by the next \
       run (@ and @T, 1 and 2 domains)" `Quick (fun () ->
        List.iter
          (fun op ->
            let p =
              Parse.program
                (Printf.sprintf
                   "program stale\ninput xs: [4]f32[2,8]\ninput w: f32[8,8]\n\
                    return xs.map { |x| x %s w }\n"
                   op)
            in
            let g = Build.build p in
            let r = Rng.create 21 in
            let x () = Fractal.Leaf (Tensor.rand r (Shape.of_array [| 2; 8 |])) in
            let w = Tensor.rand r (Shape.of_array [| 8; 8 |]) in
            let binds =
              [ ("xs", Fractal.Node (Array.init 4 (fun _ -> x ()))); ("w", Fractal.Leaf w) ]
            in
            List.iter
              (fun domains ->
                let label what = Printf.sprintf "%s, %d domain(s): %s" op domains what in
                let pr = Executor.prepare ~opts:(opts ~domains ()) g in
                let first = copy (Executor.execute pr binds) in
                let wb = Tensor.buffer w in
                for i = 0 to Bigarray.Array1.dim wb - 1 do
                  wb.{i} <- 2.0 *. wb.{i}
                done;
                let second = Executor.execute pr binds in
                let fresh = Executor.run ~opts:(opts ~domains ()) g binds in
                checkb (label "the doubled w changed the result") false
                  (outputs_equal_exact first second);
                checkb (label "= a fresh prepare") true (outputs_equal_exact second fresh);
                checkb (label "= Interp") true
                  (match Oracles.value p second with
                  | Some v -> Fractal.equal_exact v (Interp.run_program p binds)
                  | None -> false))
              [ 1; 2 ])
          [ "@"; "@T" ]);
    Alcotest.test_case "missing inputs are reported" `Quick (fun () ->
        let g = Build.build (Stacked_rnn.program Stacked_rnn.default) in
        checkb "raises" true
          (try
             ignore (Executor.run ~opts:(opts ~domains:1 ()) g []);
             false
           with Vm.Execution_error _ -> true));
  ]

let suites = [ ("compiled", compiled_tests) ]
