(* The schedules on values: for every workload the compiled ETDG,
   executed in sequential and wavefront order, must compute the same
   values as the imperative reference — and an illegal order must be
   *detected*, not silently mis-computed. *)

let checkb = Alcotest.(check bool)

(* The compiled engine through the front door in [order]; [domains]
   absent uses the ambient pool, like every other caller. *)
let execute ?domains order g bindings =
  Executor.run ~opts:{ Run_opts.default with Run_opts.order; domains } g
    bindings

let run ?(order = Vm.Wavefront) program bindings =
  execute order (Build.build program) bindings

let vm_tests =
  [
    Alcotest.test_case "stacked RNN: wavefront and sequential agree with ref"
      `Quick (fun () ->
        let cfg = Stacked_rnn.default in
        let inp = Stacked_rnn.gen_inputs (Rng.create 3) cfg in
        let r = Stacked_rnn.reference cfg inp in
        List.iter
          (fun order ->
            let outs =
              run ~order (Stacked_rnn.program cfg) (Stacked_rnn.bindings inp)
            in
            checkb "equal" true
              (Fractal.equal_approx (List.assoc "stacked_rnn" outs) r))
          [ Vm.Sequential; Vm.Wavefront ]);
    Alcotest.test_case "stacked LSTM: full (c, h) history matches" `Quick
      (fun () ->
        let cfg = Stacked_lstm.default in
        let inp = Stacked_lstm.gen_inputs (Rng.create 3) cfg in
        let csss, hsss = Stacked_lstm.reference cfg inp in
        let outs =
          run (Stacked_lstm.program cfg) (Stacked_lstm.bindings inp)
        in
        let comp i = List.assoc (Printf.sprintf "stacked_lstm.%d" i) outs in
        checkb "c" true (Fractal.equal_approx (comp 0) csss);
        checkb "h" true (Fractal.equal_approx (comp 1) hsss));
    Alcotest.test_case "grid RNN: 3-D wavefront executes correctly" `Quick
      (fun () ->
        let cfg = Grid_rnn.default in
        let inp = Grid_rnn.gen_inputs (Rng.create 3) cfg in
        let outs = run (Grid_rnn.program cfg) (Grid_rnn.bindings inp) in
        checkb "equal" true
          (Fractal.equal_approx (List.assoc "grid_rnn" outs)
             (Grid_rnn.reference cfg inp)));
    Alcotest.test_case "dilated RNN through interleaved access maps" `Quick
      (fun () ->
        let cfg = Dilated_rnn.default in
        let inp = Dilated_rnn.gen_inputs (Rng.create 3) cfg in
        let outs = run (Dilated_rnn.program cfg) (Dilated_rnn.bindings inp) in
        checkb "equal" true
          (Fractal.equal_approx
             (Dilated_rnn.flatten_output cfg (List.assoc "dilated_rnn" outs))
             (Dilated_rnn.reference cfg inp)));
    Alcotest.test_case "b2b GEMM with rank-0 operand buffers" `Quick (fun () ->
        let cfg = B2b_gemm.default in
        let inp = B2b_gemm.gen_inputs (Rng.create 3) cfg in
        let outs = run (B2b_gemm.program cfg) (B2b_gemm.bindings inp) in
        checkb "equal" true
          (Fractal.equal_approx (List.assoc "b2b_gemm" outs)
             (B2b_gemm.reference cfg inp)));
    Alcotest.test_case "FlashAttention: register state + normalisation" `Quick
      (fun () ->
        let cfg = Flash_attention.default in
        let inp = Flash_attention.gen_inputs (Rng.create 3) cfg in
        let outs =
          run (Flash_attention.program cfg) (Flash_attention.bindings inp)
        in
        checkb "equal" true
          (Fractal.equal_approx
             (List.assoc "flash_attention" outs)
             (Flash_attention.reference cfg inp)));
    Alcotest.test_case "BigBird: window maps and component blocks" `Quick
      (fun () ->
        let cfg = Bigbird.default in
        let inp = Bigbird.gen_inputs (Rng.create 3) cfg in
        let outs = run (Bigbird.program cfg) (Bigbird.bindings inp) in
        checkb "equal" true
          (Fractal.equal_approx (List.assoc "bigbird" outs)
             (Bigbird.reference cfg inp)));
    Alcotest.test_case "selective scan and retention (§7 extensions)" `Quick
      (fun () ->
        let cfg = Selective_scan.default in
        let inp = Selective_scan.gen_inputs (Rng.create 3) cfg in
        let outs =
          run (Selective_scan.program cfg) (Selective_scan.bindings inp)
        in
        checkb "selective scan" true
          (Fractal.equal_approx
             (List.assoc "selective_scan" outs)
             (Selective_scan.reference cfg inp));
        let cfg = Retention.default in
        let inp = Retention.gen_inputs (Rng.create 3) cfg in
        let outs = run (Retention.program cfg) (Retention.bindings inp) in
        checkb "retention" true
          (Fractal.equal_approx ~eps:1e-4 (List.assoc "retention" outs)
             (Retention.reference cfg inp)));
    Alcotest.test_case "conv1d: final accumulator slice is the convolution"
      `Quick (fun () ->
        let cfg = Conv1d.default in
        let inp = Conv1d.gen_inputs (Rng.create 3) cfg in
        let outs = run (Conv1d.program cfg) (Conv1d.bindings inp) in
        let final =
          Soac.map
            (fun per_n ->
              Soac.map
                (fun per_pos -> Fractal.get per_pos (cfg.Conv1d.taps - 1))
                per_n)
            (List.assoc "conv1d" outs)
        in
        checkb "equal" true (Fractal.equal_approx final (Conv1d.reference cfg inp)));
    Alcotest.test_case "an illegal order is detected, not mis-computed" `Quick
      (fun () ->
        let cfg = Stacked_rnn.default in
        let inp = Stacked_rnn.gen_inputs (Rng.create 3) cfg in
        (* the naive order reversed: every recurrence reads before its
           producer ran *)
        let reversed b pts =
          match Vm.schedule Vm.Sequential b pts with
          | Vm.Ordered ps -> (Vm.Ordered (List.rev ps), None)
          | s -> (s, None)
        in
        let exe =
          Compiled.compile ~schedule:reversed
            (Build.build (Stacked_rnn.program cfg))
        in
        Compiled.load exe (Stacked_rnn.bindings inp);
        checkb "raises" true
          (try
             Compiled.execute exe;
             false
           with Vm.Execution_error _ -> true));
    Alcotest.test_case "missing inputs are reported" `Quick (fun () ->
        checkb "raises" true
          (try
             ignore (run (Stacked_rnn.program Stacked_rnn.default) []);
             false
           with Vm.Execution_error _ -> true));
  ]

let vm_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:10
         ~name:"VM wavefront = reference on random RNN configs"
         QCheck2.Gen.(quad (int_range 1 3) (int_range 1 4) (int_range 1 5)
                        (int_range 1 5))
         (fun (batch, depth, seq_len, hidden) ->
           let cfg = { Stacked_rnn.batch; depth; seq_len; hidden } in
           let inp = Stacked_rnn.gen_inputs (Rng.create (depth * seq_len)) cfg in
           let outs =
             run (Stacked_rnn.program cfg) (Stacked_rnn.bindings inp)
           in
           Fractal.equal_approx (List.assoc "stacked_rnn" outs)
             (Stacked_rnn.reference cfg inp)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:8
         ~name:"VM wavefront = reference on random grid configs"
         QCheck2.Gen.(triple (int_range 1 3) (int_range 1 3) (int_range 1 4))
         (fun (depth, rows, cols) ->
           let cfg = { Grid_rnn.batch = 2; depth; rows; cols; hidden = 4 } in
           let inp = Grid_rnn.gen_inputs (Rng.create (rows * cols)) cfg in
           let outs = run (Grid_rnn.program cfg) (Grid_rnn.bindings inp) in
           Fractal.equal_approx (List.assoc "grid_rnn" outs)
             (Grid_rnn.reference cfg inp)));
  ]

let dot_tests =
  [
    Alcotest.test_case "dot export names every node and edge" `Quick (fun () ->
        let g = Build.build (Stacked_rnn.program Stacked_rnn.default) in
        let dot = Dot.graph g in
        List.iter
          (fun needle ->
            checkb needle true
              (Str.string_match
                 (Str.regexp (".*" ^ Str.quote needle ^ ".*"))
                 (Str.global_replace (Str.regexp "\n") " " dot)
                 0))
          [ "digraph"; "buf0"; "blk0"; "stacked_rnn.region3"; "p = [map,scanl,scanl]" ]);
  ]

(* Differential suite: parallel wavefront execution must be BITWISE
   identical to sequential execution — not approximately equal — for
   every workload.  Each point of an anti-chain writes a disjoint
   cell and its value is independent of its siblings, so domain count
   must not change a single ULP.  check.sh runs this suite under
   FT_NUM_DOMAINS=1 and =4. *)

let diff_case name mk =
  Alcotest.test_case name `Quick (fun () ->
      let program, bindings = mk () in
      let g = Build.build program in
      let seq = execute Vm.Sequential g bindings in
      let par = execute ~domains:4 Vm.Wavefront g bindings in
      checkb "bitwise" true
        (List.length seq = List.length par
        && List.for_all2
             (fun (n1, v1) (n2, v2) -> n1 = n2 && Fractal.equal_exact v1 v2)
             seq par))

let vm_diff_tests =
  [
    diff_case "stacked RNN" (fun () ->
        let cfg = Stacked_rnn.default in
        let inp = Stacked_rnn.gen_inputs (Rng.create 41) cfg in
        (Stacked_rnn.program cfg, Stacked_rnn.bindings inp));
    diff_case "stacked LSTM" (fun () ->
        let cfg = Stacked_lstm.default in
        let inp = Stacked_lstm.gen_inputs (Rng.create 41) cfg in
        (Stacked_lstm.program cfg, Stacked_lstm.bindings inp));
    diff_case "grid RNN" (fun () ->
        let cfg = Grid_rnn.default in
        let inp = Grid_rnn.gen_inputs (Rng.create 41) cfg in
        (Grid_rnn.program cfg, Grid_rnn.bindings inp));
    diff_case "dilated RNN" (fun () ->
        let cfg = Dilated_rnn.default in
        let inp = Dilated_rnn.gen_inputs (Rng.create 41) cfg in
        (Dilated_rnn.program cfg, Dilated_rnn.bindings inp));
    diff_case "b2b GEMM" (fun () ->
        let cfg = B2b_gemm.default in
        let inp = B2b_gemm.gen_inputs (Rng.create 41) cfg in
        (B2b_gemm.program cfg, B2b_gemm.bindings inp));
    diff_case "FlashAttention" (fun () ->
        let cfg = Flash_attention.default in
        let inp = Flash_attention.gen_inputs (Rng.create 41) cfg in
        (Flash_attention.program cfg, Flash_attention.bindings inp));
    diff_case "BigBird" (fun () ->
        let cfg = Bigbird.default in
        let inp = Bigbird.gen_inputs (Rng.create 41) cfg in
        (Bigbird.program cfg, Bigbird.bindings inp));
    diff_case "selective scan" (fun () ->
        let cfg = Selective_scan.default in
        let inp = Selective_scan.gen_inputs (Rng.create 41) cfg in
        (Selective_scan.program cfg, Selective_scan.bindings inp));
    diff_case "retention" (fun () ->
        let cfg = Retention.default in
        let inp = Retention.gen_inputs (Rng.create 41) cfg in
        (Retention.program cfg, Retention.bindings inp));
    Alcotest.test_case "global pool (FT_NUM_DOMAINS path)" `Quick (fun () ->
        (* no explicit domains: Wavefront picks up the shared pool *)
        Domain_pool.set_num_domains (Some 4);
        Fun.protect
          ~finally:(fun () -> Domain_pool.set_num_domains None)
          (fun () ->
            let cfg = Stacked_rnn.default in
            let inp = Stacked_rnn.gen_inputs (Rng.create 41) cfg in
            let g = Build.build (Stacked_rnn.program cfg) in
            let binds = Stacked_rnn.bindings inp in
            let seq = execute Vm.Sequential g binds in
            let par = execute Vm.Wavefront g binds in
            checkb "bitwise" true
              (List.for_all2
                 (fun (n1, v1) (n2, v2) ->
                   n1 = n2 && Fractal.equal_exact v1 v2)
                 seq par)));
  ]

let suites =
  [
    ("vm", vm_tests @ vm_props);
    ("vm-diff", vm_diff_tests);
    ("dot", dot_tests);
  ]
