(* Tests for the GPU simulator, plan executor, code emitter and the
   baseline scheduling models — including the paper's evaluation-level
   claims as assertions (who wins, roughly by how much). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let dev = Device.a100

(* ----------------------- device / kernels ----------------------- *)

let kernel ?(flops = 1e9) ?(dram = 0.0) ?(tasks = 1000) () =
  Kernel.make ~name:"k" ~flops ~parallel_tasks:tasks ~dram_read:dram ()

let gpusim_tests =
  [
    Alcotest.test_case "occupancy saturates at 1" `Quick (fun () ->
        checkb "cap" true (Device.occupancy dev 10_000 = 1.0);
        checkb "partial" true (Device.occupancy dev 108 < 1.0));
    Alcotest.test_case "compute roofline" `Quick (fun () ->
        (* 19.5 GFLOP at full occupancy on 19.5 TFLOP/s = 1 ms *)
        let k = kernel ~flops:19.5e9 ~tasks:100_000 () in
        let t = Kernel.exec_time_us dev k in
        checkb "about 1000 us" true (Float.abs (t -. 1000.0) < 1.0));
    Alcotest.test_case "memory roofline dominates when bandwidth-bound" `Quick
      (fun () ->
        let k = kernel ~flops:1.0 ~dram:1.555e9 ~tasks:100_000 () in
        let t = Kernel.exec_time_us dev k in
        checkb "about 1000 us" true (Float.abs (t -. 1000.0) < 1.0));
    Alcotest.test_case "tensor cores speed up compute-bound kernels" `Quick
      (fun () ->
        let k = kernel ~tasks:100_000 () in
        let tc =
          Kernel.make ~name:"k" ~flops:1e9 ~parallel_tasks:100_000
            ~uses_tensor_core:true ()
        in
        checkb "faster" true
          (Kernel.exec_time_us dev tc < Kernel.exec_time_us dev k));
    Alcotest.test_case "launch-free kernels skip overheads" `Quick (fun () ->
        let k = kernel () in
        let free = { k with Kernel.launch_free = true } in
        checkb "cheaper" true
          (Kernel.total_time_us dev free < Kernel.total_time_us dev k));
    Alcotest.test_case "host overhead dominates tiny kernels" `Quick (fun () ->
        let k =
          Kernel.make ~name:"k" ~flops:1e3 ~parallel_tasks:1
            ~host_overhead_us:25.0 ()
        in
        checkb "at least host" true (Kernel.total_time_us dev k >= 25.0));
    Alcotest.test_case "engine aggregates counters" `Quick (fun () ->
        let ks = [ kernel ~dram:1e9 (); kernel ~dram:2e9 () ] in
        let m = Engine.run dev ks in
        checki "kernels" 2 m.Engine.kernels;
        checkb "dram" true (Float.abs (m.Engine.dram_gb -. 3.0) < 1e-6));
  ]

let gpusim_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"more flops never runs faster"
         QCheck2.Gen.(pair (float_bound_exclusive 1e12) (float_bound_exclusive 1e12))
         (fun (f1, f2) ->
           let lo = Float.min f1 f2 and hi = Float.max f1 f2 in
           Kernel.exec_time_us dev (kernel ~flops:lo ())
           <= Kernel.exec_time_us dev (kernel ~flops:hi ())));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"more parallelism never runs slower"
         QCheck2.Gen.(pair (int_range 1 100000) (int_range 1 100000))
         (fun (t1, t2) ->
           let lo = Stdlib.min t1 t2 and hi = Stdlib.max t1 t2 in
           Kernel.exec_time_us dev (kernel ~tasks:hi ())
           <= Kernel.exec_time_us dev (kernel ~tasks:lo ())));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"more traffic never runs faster"
         QCheck2.Gen.(pair (float_bound_exclusive 1e10) (float_bound_exclusive 1e10))
         (fun (b1, b2) ->
           let lo = Float.min b1 b2 and hi = Float.max b1 b2 in
           Kernel.exec_time_us dev (kernel ~dram:lo ())
           <= Kernel.exec_time_us dev (kernel ~dram:hi ())));
  ]

(* ----------------------- executor / L2 model ----------------------- *)

let exec_tests =
  [
    Alcotest.test_case "repeated small reads hit L2" `Quick (fun () ->
        let p =
          {
            Plan.plan_name = "p";
            kernels =
              List.init 4 (fun i ->
                  Plan.kernel ~name:(string_of_int i) ~flops:1.0 ~tasks:1
                    [ Plan.read "w" 1e6 ]);
          }
        in
        let m = Executor.metrics p in
        (* only the first read misses *)
        checkb "dram" true (Float.abs (m.Engine.dram_gb -. 1e-3) < 1e-9);
        checkb "l2 saw all" true (Float.abs (m.Engine.l2_gb -. 4e-3) < 1e-9));
    Alcotest.test_case "oversized buffers never become resident" `Quick
      (fun () ->
        let big = 2.0 *. float_of_int dev.Device.l2_bytes in
        let p =
          {
            Plan.plan_name = "p";
            kernels =
              List.init 2 (fun i ->
                  Plan.kernel ~name:(string_of_int i) ~flops:1.0 ~tasks:1
                    [ Plan.read "huge" big ]);
          }
        in
        let m = Executor.metrics p in
        checkb "both miss" true
          (Float.abs (m.Engine.dram_gb -. (2.0 *. big /. 1e9)) < 1e-9));
    Alcotest.test_case "eviction under capacity pressure" `Quick (fun () ->
        let half = 0.6 *. float_of_int dev.Device.l2_bytes in
        let p =
          {
            Plan.plan_name = "p";
            kernels =
              [
                Plan.kernel ~name:"a" ~flops:1.0 ~tasks:1 [ Plan.read "a" half ];
                Plan.kernel ~name:"b" ~flops:1.0 ~tasks:1 [ Plan.read "b" half ];
                (* a was evicted by b *)
                Plan.kernel ~name:"a2" ~flops:1.0 ~tasks:1 [ Plan.read "a" half ];
              ];
          }
        in
        let m = Executor.metrics p in
        checkb "three misses" true
          (Float.abs (m.Engine.dram_gb -. (3.0 *. half /. 1e9)) < 1e-9));
    Alcotest.test_case "placement hints are honoured" `Quick (fun () ->
        let p =
          {
            Plan.plan_name = "p";
            kernels =
              [
                Plan.kernel ~name:"k" ~flops:1.0 ~tasks:1
                  [
                    Plan.read ~hint:Plan.Dram "x" 1e6;
                    Plan.read ~hint:Plan.L2_only "y" 2e6;
                    Plan.read ~hint:Plan.L1_only "z" 4e6;
                  ];
              ];
          }
        in
        let m = Executor.metrics p in
        checkb "dram" true (Float.abs (m.Engine.dram_gb -. 1e-3) < 1e-9);
        checkb "l2" true (Float.abs (m.Engine.l2_gb -. 3e-3) < 1e-9);
        checkb "l1 includes pinned" true (m.Engine.l1_gb >= 4e-3));
    Alcotest.test_case "plan helpers" `Quick (fun () ->
        let k = Plan.kernel ~name:"k" ~flops:1.0 ~tasks:1 [] in
        let p = { Plan.plan_name = "p"; kernels = [ k ] } in
        checki "repeat" 3 (Plan.total_kernels (Plan.repeat 3 p));
        checki "concat" 2 (Plan.total_kernels (Plan.concat "c" [ p; p ])));
  ]

(* ----------------------- emitter ----------------------- *)

let emit_tests =
  [
    Alcotest.test_case "wavefront kernel count = hull steps" `Quick (fun () ->
        let cfg = { Stacked_rnn.default with depth = 3; seq_len = 4 } in
        let g = Build.build (Stacked_rnn.program cfg) in
        let plan = Pipeline.plan_of_graph g in
        (* grouped regions: one persistent kernel chain of D+L-1 steps *)
        checki "kernels" (3 + 4 - 1) (Plan.total_kernels plan));
    Alcotest.test_case "only the first wavefront step pays a launch" `Quick
      (fun () ->
        let g = Build.build (Stacked_rnn.program Stacked_rnn.default) in
        let plan = Pipeline.plan_of_graph g in
        match plan.Plan.kernels with
        | first :: rest ->
            checkb "first pays" true (not first.Plan.ks_launch_free);
            checkb "rest free" true
              (List.for_all (fun k -> k.Plan.ks_launch_free) rest)
        | [] -> Alcotest.fail "empty plan");
    Alcotest.test_case "flops match the workload's arithmetic" `Quick (fun () ->
        let cfg = Flash_attention.default in
        let g = Build.build (Flash_attention.program cfg) in
        let m = Executor.metrics (Pipeline.plan_of_graph g) in
        let expected = float_of_int (Flash_attention.flops cfg) in
        (* emitted flops include the final normalisation and the
           online-softmax state updates, so somewhat more at this tiny
           block size (at paper scale the overhead is ~2%) *)
        checkb "within 35%" true
          (m.Engine.total_flops >= expected
          && m.Engine.total_flops < expected *. 1.35));
    Alcotest.test_case "compulsory traffic covers inputs and outputs" `Quick
      (fun () ->
        let cfg = Stacked_rnn.paper in
        let g = Build.build (Stacked_rnn.program cfg) in
        let m = Executor.metrics (Pipeline.plan_of_graph g) in
        let input_bytes =
          float_of_int
            (4 * cfg.Stacked_rnn.batch * cfg.Stacked_rnn.seq_len
           * cfg.Stacked_rnn.hidden)
        in
        checkb "at least the inputs" true (m.Engine.dram_gb *. 1e9 > input_bytes));
    Alcotest.test_case "register-resident accumulators move no memory" `Quick
      (fun () ->
        (* FlashAttention's (m,s,o) state must not appear as per-step
           DRAM traffic: total DRAM is close to Q+K+V+O compulsory *)
        let cfg = Flash_attention.paper in
        let g = Build.build (Flash_attention.program cfg) in
        let m = Executor.metrics (Pipeline.plan_of_graph g) in
        let compulsory =
          let bh = cfg.Flash_attention.batch * cfg.Flash_attention.heads in
          let tile = cfg.Flash_attention.block * cfg.Flash_attention.head_dim in
          float_of_int
            (4 * bh * tile
            * (cfg.Flash_attention.q_blocks + (2 * cfg.Flash_attention.kv_blocks)
             + cfg.Flash_attention.q_blocks))
          /. 1e9
        in
        checkb "within 1.2x of compulsory" true
          (m.Engine.dram_gb < compulsory *. 1.2));
  ]

(* ----------------------- evaluation-level claims ----------------------- *)

let time p = (Executor.metrics p).Engine.time_ms
let dram p = (Executor.metrics p).Engine.dram_gb
let find = Suites.find

let claims_tests =
  [
    Alcotest.test_case "Fig 2: DAG frameworks scale linearly, FT does not"
      `Quick (fun () ->
        let at depth =
          Suites.stacked_rnn
            { Stacked_rnn.batch = 256; depth; seq_len = 64; hidden = 256 }
        in
        let shallow = at 4 and deep = at 32 in
        let growth name =
          time (find deep name) /. time (find shallow name)
        in
        checkb "PyTorch grows ~8x with 8x depth" true (growth "PyTorch" > 7.5);
        checkb "FT grows sublinearly" true
          (growth "FractalTensor" < growth "PyTorch");
        checkb "cuDNN grows only slightly" true (growth "cuDNN" < 2.0);
        checkb "FT at depth 32 is far ahead of the DAG stacks" true
          (time (find deep "FractalTensor") *. 20.0 < time (find deep "PyTorch"));
        checkb "FT beats everything" true
          (List.for_all
             (fun (p : Plan.t) ->
               p.Plan.plan_name = "FractalTensor"
               || time p >= time (find deep "FractalTensor"))
             deep));
    Alcotest.test_case "Fig 7: FractalTensor wins every workload family" `Quick
      (fun () ->
        let fastest plans =
          List.for_all
            (fun (p : Plan.t) ->
              p.Plan.plan_name = "FractalTensor"
              || time p >= time (find plans "FractalTensor"))
            plans
        in
        checkb "lstm" true (fastest (Suites.stacked_lstm Stacked_lstm.paper));
        checkb "dilated" true (fastest (Suites.dilated_rnn Dilated_rnn.paper));
        checkb "grid" true (fastest (Suites.grid_rnn Grid_rnn.paper));
        checkb "flash" true
          (fastest (Suites.flash_attention Flash_attention.paper));
        checkb "bigbird" true (fastest (Suites.bigbird Bigbird.paper)));
    Alcotest.test_case "Fig 7: cuDNN is the best LSTM baseline" `Quick
      (fun () ->
        let plans = Suites.stacked_lstm Stacked_lstm.paper in
        let cudnn = time (find plans "cuDNN") in
        checkb "beats the DAG stacks" true
          (List.for_all
             (fun (p : Plan.t) ->
               p.Plan.plan_name = "FractalTensor"
               || p.Plan.plan_name = "cuDNN"
               || time p >= cudnn)
             plans));
    Alcotest.test_case "Fig 7: FT vs cuDNN within the paper's 3.75x bound"
      `Quick (fun () ->
        let plans = Suites.stacked_lstm Stacked_lstm.paper in
        let ratio =
          time (find plans "cuDNN") /. time (find plans "FractalTensor")
        in
        checkb "1x..4x" true (ratio > 1.0 && ratio < 4.0));
    Alcotest.test_case "Fig 7: FT vs FlashAttention-2 around 1.07x" `Quick
      (fun () ->
        let plans = Suites.flash_attention Flash_attention.paper in
        let ratio =
          time (find plans "FlashAttention-2") /. time (find plans "FractalTensor")
        in
        checkb "1x..1.3x" true (ratio > 1.0 && ratio < 1.3));
    Alcotest.test_case "Fig 7: FT vs cuBLAS around 1.21x on b2b GEMM" `Quick
      (fun () ->
        let plans = Suites.b2b_gemm B2b_gemm.paper in
        let ratio =
          time (find plans "cuBLAS") /. time (find plans "FractalTensor")
        in
        checkb "1x..1.6x" true (ratio > 1.0 && ratio < 1.6));
    Alcotest.test_case "Table 7(2): BigBird DRAM ordering FT < Triton < PT < TVM"
      `Quick (fun () ->
        let plans = Suites.bigbird Bigbird.paper in
        let d n = dram (find plans n) in
        checkb "FT < Triton" true (d "FractalTensor" < d "Triton");
        checkb "Triton < PyTorch" true (d "Triton" < d "PyTorch");
        checkb "PyTorch < TVM" true (d "PyTorch" < d "TVM"));
    Alcotest.test_case "Table 7(2): FT cuts DRAM to about 44% of Triton" `Quick
      (fun () ->
        let plans = Suites.bigbird Bigbird.paper in
        let r = dram (find plans "FractalTensor") /. dram (find plans "Triton") in
        checkb "0.35..0.6" true (r > 0.35 && r < 0.6));
    Alcotest.test_case "Table 7(1): CUTLASS L1 traffic dwarfs the rest" `Quick
      (fun () ->
        let plans = Suites.flash_attention Flash_attention.paper in
        let l1 n = (Executor.metrics (find plans n)).Engine.l1_gb in
        checkb "CUTLASS worst" true
          (l1 "CUTLASS" > 3.0 *. l1 "FractalTensor");
        checkb "FT below FA-2" true (l1 "FractalTensor" < l1 "FlashAttention-2"));
    Alcotest.test_case "Table 7(1): DRAM is near-compulsory for all contenders"
      `Quick (fun () ->
        let plans = Suites.flash_attention Flash_attention.paper in
        let ds = List.map dram plans in
        let mx = List.fold_left Float.max 0.0 ds
        and mn = List.fold_left Float.min infinity ds in
        checkb "within 20%" true (mx /. mn < 1.2));
  ]

let suites =
  [
    ("gpusim", gpusim_tests @ gpusim_props);
    ("exec", exec_tests);
    ("emit", emit_tests);
    ("claims", claims_tests);
  ]
