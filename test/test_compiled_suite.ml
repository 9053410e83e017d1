(* The compiled executor: for every workload, the straight-line
   closure engine must be *bitwise* identical to the reference
   interpreter and to its own sequential order — with and without
   fusion, at one and several domains, under the shadow recorder — and
   its steady-state execute loop must allocate zero minor words. *)

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

let opts ?domains ?(shadow = Run_opts.Shadow_off) ?(fuse = true) () =
  { Run_opts.default with Run_opts.domains; shadow; fuse }

(* [execute] hands out the executable's own cells; a result kept
   across runs of one prepared value is a copy. *)
let copy outs =
  List.map (fun (n, v) -> (n, Fractal.map_leaves Tensor.copy v)) outs

let compile_exn pr =
  match Executor.compiled pr with
  | Some e -> e
  | None -> Alcotest.fail "should compile"

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
           [@T] transposes a per-point operand into worker scratch *)
        let cases =
          [
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
      "shadow recording over the compiled engine is clean, fused and \
       unfused, every workload" `Quick (fun () ->
        List.iter
          (fun (name, g, binds) ->
            let reference = sequential g binds in
            List.iter
              (fun fuse ->
                let got =
                  Executor.run
                    ~opts:(opts ~domains:1 ~shadow:Run_opts.Shadow_on ~fuse ())
                    g binds
                in
                checkb
                  (Printf.sprintf "%s under shadow, fuse=%b" name fuse)
                  true
                  (outputs_equal_exact reference got))
              [ true; false ])
          (workloads ()));
    Alcotest.test_case
      "shadow records each point's live reads and its writes, every \
       workload" `Quick (fun () ->
        List.iter
          (fun (name, g, binds) ->
            let exe =
              compile_exn (Executor.prepare ~opts:(opts ~domains:1 ()) g)
            in
            let sh = Shadow.create g in
            Compiled.load exe binds;
            Compiled.execute ~shadow:sh exe;
            let summary = Shadow.finish sh in
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
                    (Vm.live_reads b))
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
