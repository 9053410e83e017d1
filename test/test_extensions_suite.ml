(* Tests for access-map fusion and cross-system validation of the
   benchmark harness itself. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --------------------- access-map fusion --------------------- *)

(* A hand-built graph with a copy block: src --copy(shift -1)--> tmp,
   consumer reads tmp with a stride-2 map.  After fusion the consumer
   must read src at (stride 2 then shift -1) and the copy disappears. *)
let copy_graph () =
  let buf id name dims role =
    { Ir.buf_id = id; buf_name = name; buf_dims = dims;
      buf_elem = Shape.of_array [| 4 |]; buf_role = role }
  in
  let copy =
    {
      Ir.blk_id = 0;
      blk_name = "copy";
      blk_ops = [| Expr.Map |];
      blk_domain = Domain.of_extents [| 8 |];
      blk_edges =
        [
          { Ir.e_buffer = 0; e_dir = Ir.Read;
            e_access = Access_map.make [| [| 1 |] |] [| 1 |];
            e_label = "src" };
          { Ir.e_buffer = 1; e_dir = Ir.Write;
            e_access = Access_map.identity 1; e_label = "tmp" };
        ];
      blk_children = [];
      blk_body = [];
      blk_results = [];
      blk_consts = [];
    }
  in
  let consumer =
    {
      Ir.blk_id = 1;
      blk_name = "consumer";
      blk_ops = [| Expr.Map |];
      blk_domain = Domain.of_extents [| 4 |];
      blk_edges =
        [
          { Ir.e_buffer = 1; e_dir = Ir.Read;
            e_access = Access_map.make [| [| 2 |] |] [| 0 |];
            e_label = "tmp" };
          { Ir.e_buffer = 2; e_dir = Ir.Write;
            e_access = Access_map.identity 1; e_label = "out" };
        ];
      blk_children = [];
      blk_body =
        [ { Ir.op = Expr.Tanh; operands = [ Ir.O_var "tmp" ];
            operand_shapes = [ Shape.of_array [| 4 |] ];
            result_shape = Shape.of_array [| 4 |] } ];
      blk_results = [ Ir.O_op 0 ];
      blk_consts = [];
    }
  in
  {
    Ir.g_name = "copy-test";
    g_buffers =
      [ buf 0 "src" [| 9 |] Ir.Input; buf 1 "tmp" [| 8 |] Ir.Intermediate;
        buf 2 "out" [| 4 |] Ir.Output ];
    g_blocks = [ copy; consumer ];
  }

let fusion_tests =
  [
    Alcotest.test_case "copy block is eliminated" `Quick (fun () ->
        let g = Coarsen.fuse_access_maps (copy_graph ()) in
        checki "blocks" 1 (List.length g.Ir.g_blocks);
        checki "buffers (tmp dropped)" 2 (List.length g.Ir.g_buffers));
    Alcotest.test_case "consumer map is the composition" `Quick (fun () ->
        let g = Coarsen.fuse_access_maps (copy_graph ()) in
        let consumer = List.hd g.Ir.g_blocks in
        let r = List.hd (Ir.reads consumer) in
        checki "reads src" 0 r.Ir.e_buffer;
        (* src[ (2u) + 1 ]: matrix [2], offset [1] *)
        checkb "matrix" true (r.Ir.e_access.Access_map.matrix = [| [| 2 |] |]);
        checkb "offset" true (r.Ir.e_access.Access_map.offset = [| 1 |]);
        (* semantics: consumer iteration u touches src[2u + 1] *)
        checkb "apply" true (Access_map.apply r.Ir.e_access [| 3 |] = [| 7 |]));
    Alcotest.test_case "copies with other writers are kept" `Quick (fun () ->
        let g = copy_graph () in
        let second_writer =
          {
            (List.hd g.Ir.g_blocks) with
            Ir.blk_id = 7;
            blk_name = "other-writer";
          }
        in
        let g = { g with Ir.g_blocks = second_writer :: g.Ir.g_blocks } in
        let fused = Coarsen.fuse_access_maps g in
        checki "nothing removed" 3 (List.length fused.Ir.g_blocks));
    Alcotest.test_case "fusion preserves traffic destinations" `Quick
      (fun () ->
        (* after fusion the consumer's compulsory read comes from src *)
        let g = Coarsen.fuse_access_maps (copy_graph ()) in
        let consumer = List.hd g.Ir.g_blocks in
        List.iter
          (fun e ->
            if e.Ir.e_dir = Ir.Read then
              checkb "reads the input buffer" true
                ((Ir.buffer g e.Ir.e_buffer).Ir.buf_role = Ir.Input))
          consumer.Ir.blk_edges);
  ]

(* --------------------- cross-system validation --------------------- *)

let flops p = (Executor.metrics p).Engine.total_flops
let dram p = (Executor.metrics p).Engine.dram_gb

(* Every system computes the same mathematics: simulated FLOP counts
   must agree across schedules (fusion changes *where* bytes go, not
   how much arithmetic there is). *)
let cross_tests =
  [
    Alcotest.test_case "all LSTM schedules agree on arithmetic" `Quick
      (fun () ->
        let plans = Suites.stacked_lstm Stacked_lstm.paper in
        let fs = List.map flops plans in
        let mx = List.fold_left Float.max 0.0 fs
        and mn = List.fold_left Float.min infinity fs in
        checkb "within 2%" true (mx /. mn < 1.02));
    Alcotest.test_case "all grid RNN schedules agree on arithmetic" `Quick
      (fun () ->
        let plans = Suites.grid_rnn Grid_rnn.paper in
        let fs = List.map flops plans in
        let mx = List.fold_left Float.max 0.0 fs
        and mn = List.fold_left Float.min infinity fs in
        checkb "within 3%" true (mx /. mn < 1.03));
    Alcotest.test_case "no schedule beats compulsory traffic" `Quick
      (fun () ->
        (* inputs + outputs must reach DRAM at least once for every
           system on the LSTM (weights + tokens + final states) *)
        let cfg = Stacked_lstm.paper in
        let weights =
          float_of_int
            (4 * cfg.Stacked_lstm.depth * 8 * cfg.Stacked_lstm.hidden
           * cfg.Stacked_lstm.hidden)
          /. 1e9
        in
        List.iter
          (fun (p : Plan.t) ->
            checkb (p.Plan.plan_name ^ " >= weights") true (dram p >= weights))
          (Suites.stacked_lstm cfg));
    Alcotest.test_case "emitted plans are deterministic" `Quick (fun () ->
        let mk () =
          Executor.metrics
            (Pipeline.plan_of_graph
               (Build.build (Bigbird.program Bigbird.paper)))
        in
        let a = mk () and b = mk () in
        checkb "equal metrics" true (a = b));
    Alcotest.test_case "suites expose unique system names" `Quick (fun () ->
        List.iter
          (fun plans ->
            let names = List.map (fun (p : Plan.t) -> p.Plan.plan_name) plans in
            checki "unique" (List.length names)
              (List.length (List.sort_uniq compare names)))
          [
            Suites.stacked_rnn Stacked_rnn.default;
            Suites.bigbird Bigbird.default;
            Suites.flash_attention Flash_attention.default;
          ]);
  ]

(* --------------------- retention (the §7 extension) ---------------- *)

let retention_tests =
  [
    Alcotest.test_case "chunkwise retention = token recurrence" `Quick
      (fun () ->
        let cfg = Retention.default in
        let inp = Retention.gen_inputs (Rng.create 31) cfg in
        let out =
          Interp.run_program (Retention.program cfg) (Retention.bindings inp)
        in
        checkb "equal" true
          (Fractal.equal_approx ~eps:1e-4
             (Retention.output_of_interp out)
             (Retention.reference cfg inp)));
    Alcotest.test_case "retention graph validates" `Quick (fun () ->
        match Ir.validate (Build.build (Retention.program Retention.default)) with
        | Ok () -> ()
        | Error es -> Alcotest.failf "%s" (String.concat "; " es));
    Alcotest.test_case "retention decay mask is causal" `Quick (fun () ->
        (* gamma = 1 degenerates to a plain causal linear attention *)
        let cfg = { Retention.default with gamma = 1.0 } in
        let inp = Retention.gen_inputs (Rng.create 32) cfg in
        let out =
          Interp.run_program (Retention.program cfg) (Retention.bindings inp)
        in
        checkb "equal" true
          (Fractal.equal_approx ~eps:1e-4
             (Retention.output_of_interp out)
             (Retention.reference cfg inp)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:10 ~name:"retention correct at random blockings"
         QCheck2.Gen.(triple (int_range 1 4) (int_range 1 5) (int_range 2 6))
         (fun (chunks, chunk, head_dim) ->
           let cfg =
             { Retention.batch = 1; heads = 2; chunks; chunk; head_dim;
               gamma = 0.85 }
           in
           let inp = Retention.gen_inputs (Rng.create (chunks * chunk)) cfg in
           let out =
             Interp.run_program (Retention.program cfg)
               (Retention.bindings inp)
           in
           Fractal.equal_approx ~eps:1e-4
             (Retention.output_of_interp out)
             (Retention.reference cfg inp)));
    Alcotest.test_case "FT reaches the hand-fused kernel's traffic" `Quick
      (fun () ->
        let plans = Suites.retention Retention.large in
        let ft = Suites.find plans "FractalTensor" in
        let triton = Suites.find plans "Triton" in
        let d p = (Executor.metrics p).Engine.dram_gb in
        (* the carried state never reaches HBM: both move only Q,K,V,O *)
        checkb "same compulsory DRAM" true
          (Float.abs (d ft -. d triton) /. d triton < 0.05);
        checkb "FT at least as fast" true
          ((Executor.metrics ft).Engine.time_ms
          <= (Executor.metrics triton).Engine.time_ms *. 1.01));
  ]

(* --------------------- conv1d (window access end to end) ----------- *)

let conv_tests =
  [
    Alcotest.test_case "conv1d = direct convolution" `Quick (fun () ->
        let cfg = Conv1d.default in
        let inp = Conv1d.gen_inputs (Rng.create 41) cfg in
        let out =
          Interp.run_program (Conv1d.program cfg) (Conv1d.bindings inp)
        in
        checkb "equal" true (Fractal.equal_approx out (Conv1d.reference cfg inp)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:15 ~name:"conv1d correct for random shapes"
         QCheck2.Gen.(quad (int_range 1 3) (int_range 3 10) (int_range 1 3)
                        (int_range 1 6))
         (fun (batch, seq_len, taps, channels) ->
           QCheck2.assume (taps <= seq_len);
           let cfg = { Conv1d.batch; seq_len; taps; channels; filters = 4 } in
           let inp = Conv1d.gen_inputs (Rng.create (seq_len * taps)) cfg in
           let out =
             Interp.run_program (Conv1d.program cfg) (Conv1d.bindings inp)
           in
           Fractal.equal_approx out (Conv1d.reference cfg inp)));
    Alcotest.test_case "conv1d window access maps span two dims" `Quick
      (fun () ->
        let g = Build.build (Conv1d.program Conv1d.default) in
        let b = List.hd g.Ir.g_blocks in
        let x =
          List.find (fun e -> e.Ir.e_label = "x") b.Ir.blk_edges
        in
        (* time = window position + tap: the row [0; 1; 1] *)
        checkb "two-term row" true
          (Array.exists
             (fun row -> row = [| 0; 1; 1 |])
             x.Ir.e_access.Access_map.matrix));
    Alcotest.test_case "conv1d graph validates and compiles" `Quick (fun () ->
        let g = Build.build (Conv1d.program Conv1d.large) in
        checkb "valid" true (Ir.validate g = Ok ());
        let m = Executor.metrics (Pipeline.plan_of_graph g) in
        checkb "flops close to the closed form" true
          (let expected = float_of_int (Conv1d.flops Conv1d.large) in
           m.Engine.total_flops > expected *. 0.9
           && m.Engine.total_flops < expected *. 1.1));
  ]

(* ------------- parallel aggregate execution (§4.2 claim) ----------- *)

let leafv v = Fractal.Leaf (Tensor.scalar v)
let of_floats vs = Fractal.node (List.map leafv vs)
let addl a b = Fractal.Leaf (Tensor.add (Fractal.as_leaf a) (Fractal.as_leaf b))

let parallel_scan_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"tree reduce = sequential reduce (associative op)"
         QCheck2.Gen.(list_size (int_range 1 40) (float_bound_inclusive 5.0))
         (fun vs ->
           let t = of_floats vs in
           Fractal.equal_approx ~eps:1e-6 (Soac.reduce_tree addl t)
             (Soac.reduce addl t)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"tree scan = sequential scan (associative op)"
         QCheck2.Gen.(list_size (int_range 1 40) (float_bound_inclusive 5.0))
         (fun vs ->
           let t = of_floats vs in
           Fractal.equal_approx ~eps:1e-5 (Soac.scanl_tree addl t)
             (Soac.scanl1 addl t)));
    Alcotest.test_case "selective scan: program = tree-parallel = reference"
      `Quick (fun () ->
        let cfg = Selective_scan.default in
        let inp = Selective_scan.gen_inputs (Rng.create 51) cfg in
        let out =
          Interp.run_program
            (Selective_scan.program cfg)
            (Selective_scan.bindings inp)
        in
        let r = Selective_scan.reference cfg inp in
        checkb "program" true (Fractal.equal_approx out r);
        checkb "tree" true
          (Fractal.equal_approx ~eps:1e-4
             (Selective_scan.parallel_form cfg inp)
             r));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:15
         ~name:"selective scan agrees at random lengths"
         QCheck2.Gen.(pair (int_range 1 33) (int_range 1 6))
         (fun (seq_len, hidden) ->
           let cfg = { Selective_scan.batch = 2; seq_len; hidden } in
           let inp = Selective_scan.gen_inputs (Rng.create seq_len) cfg in
           Fractal.equal_approx ~eps:1e-4
             (Selective_scan.parallel_form cfg inp)
             (Selective_scan.reference cfg inp)));
    Alcotest.test_case "selective scan graph validates" `Quick (fun () ->
        checkb "valid" true
          (Ir.validate (Build.build (Selective_scan.program Selective_scan.default))
          = Ok ()));
  ]

(* ------------- emitter / full-pass odds and ends ------------------- *)

let pipeline_tests =
  [
    Alcotest.test_case "full coarsen pass runs on every workload" `Quick
      (fun () ->
        List.iter
          (fun g ->
            let c = Coarsen.coarsen g in
            checkb (g.Ir.g_name ^ " depth grows by lowering") true
              (Ir.depth c >= Ir.depth g))
          [
            Build.build (Stacked_rnn.program Stacked_rnn.default);
            Build.build (Stacked_lstm.program Stacked_lstm.default);
            Build.build (Bigbird.program Bigbird.default);
          ]);
    Alcotest.test_case "reuse-collapse ablation only increases traffic" `Quick
      (fun () ->
        List.iter
          (fun g ->
            let full = Executor.metrics (Pipeline.plan_of_graph g) in
            let off =
              Executor.metrics (Pipeline.plan_of_graph ~collapse_reuse:false g)
            in
            checkb (g.Ir.g_name ^ " dram") true
              (off.Engine.dram_gb >= full.Engine.dram_gb);
            checkb (g.Ir.g_name ^ " time") true
              (off.Engine.time_ms >= full.Engine.time_ms))
          [
            Build.build (Stacked_lstm.program Stacked_lstm.paper);
            Build.build (Bigbird.program Bigbird.paper);
          ]);
    Alcotest.test_case "plans port across device models sensibly" `Quick
      (fun () ->
        let plan =
          Pipeline.plan_of_graph
            (Build.build (Stacked_lstm.program Stacked_lstm.paper))
        in
        let t d = (Executor.metrics ~device:d plan).Engine.time_ms in
        checkb "H100 faster than A100" true (t Device.h100 < t Device.a100);
        checkb "A100 faster than V100" true (t Device.a100 < t Device.v100));
    Alcotest.test_case "tree scan handles non-power-of-two lengths" `Quick
      (fun () ->
        List.iter
          (fun n ->
            let t = of_floats (List.init n (fun i -> float_of_int (i + 1))) in
            checkb
              (Printf.sprintf "n=%d" n)
              true
              (Fractal.equal_approx ~eps:1e-6 (Soac.scanl_tree addl t)
                 (Soac.scanl1 addl t)))
          [ 1; 2; 3; 5; 7; 12; 13; 31 ]);
    Alcotest.test_case "unparse prints parse-stable numbers" `Quick (fun () ->
        List.iter
          (fun v ->
            let e = Expr.Lit (Tensor.scalar v) in
            match Parse.expr (Unparse.expr e) with
            | Expr.Lit t ->
                checkb (string_of_float v) true (Tensor.get1 t 0 = v)
            | _ -> Alcotest.fail "not a literal")
          [ 0.0; 1.0; -3.0; 0.5; -1e30; 3.14159265358979; 1e-9 ]);
  ]

let suites =
  [
    ("access-map-fusion", fusion_tests);
    ("cross-validation", cross_tests);
    ("retention", retention_tests);
    ("conv1d", conv_tests);
    ("parallel-aggregates", parallel_scan_tests);
    ("pipeline", pipeline_tests);
  ]
