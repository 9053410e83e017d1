(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§6) on the simulated A100, plus wall-clock
   measurements of the compiled engine, its kernels, the serving layer
   and the sharded executor, and Bechamel micro-benchmarks of the
   compiler and the reference executor themselves.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig2       -- one experiment
     (fig2 | fig7 | fig8 | table7 | ablation | devices | vm | kernels |
      tuned | serve | dist | micro)

   Flags: --json OUT      write every record to OUT (Schema's shape)
          --repeat N      timed rounds per wall-clock measurement (median)
          --warmup N      untimed rounds before timing (default 1)
          --domains 1,2,4 pool sizes the vm experiment sweeps
          --devices 1,2,4,8  device counts the dist experiment sweeps
          --requests N    closed-loop requests per serve workload

   The vm, kernels, serve and dist experiments gate their own records
   (Schema's gates): one ok/FAIL line per row, exit 1 on any failure,
   after the records are written. *)

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let json_path : string option ref = ref None
let records : Schema.t list ref = ref []

(* Table cells are measured across the domain pool, so appends race;
   the globals below the mutex are only written between experiments. *)
let records_m = Mutex.create ()
let cur_experiment = ref ""
let cur_seed : int option ref = ref None
let cur_title = ref ""
let set_title t = cur_title := t
let repeat = ref 5
let warmup = ref 1

(* The one record writer.  Method defaults to the wall-clock rounds
   (--repeat/--warmup, interleaved); environment to the ambient pool. *)
let record ~workload ~layer ~metric ~unit_ ?(source = Schema.Measured)
    ~statistic ?(repeat = !repeat) ?(warmup = !warmup) ?(interleaved = true)
    ?(domains = Domain_pool.num_domains ()) ?(bitwise = true) value =
  let r =
    {
      Schema.experiment = !cur_experiment;
      workload;
      layer;
      metric;
      unit_;
      value;
      source;
      repeat;
      warmup;
      interleaved;
      statistic;
      domains;
      seed = !cur_seed;
      bitwise;
    }
  in
  Mutex.protect records_m (fun () -> records := r :: !records)

let start experiment seed =
  cur_experiment := experiment;
  cur_seed := seed

(* [title] must be passed explicitly from parallel cells — the
   [cur_title] global is only meaningful on the sequential path. *)
let measure ?(device = Device.a100) ?title (p : Plan.t) =
  let m = Executor.metrics ~device p in
  let workload = match title with Some t -> t | None -> !cur_title in
  let layer = p.Plan.plan_name ^ " on " ^ device.Device.name in
  List.iter
    (fun (metric, unit_, v) ->
      record ~workload ~layer ~metric ~unit_ ~source:Schema.Simulated
        ~statistic:"model" ~repeat:1 ~warmup:0 ~interleaved:false v)
    [
      ("time_ms", "ms", m.Engine.time_ms);
      ("dram_gb", "GB", m.Engine.dram_gb);
      ("l2_gb", "GB", m.Engine.l2_gb);
      ("l1_gb", "GB", m.Engine.l1_gb);
      ("kernels", "count", float_of_int m.Engine.kernels);
      ("total_flops", "flop", m.Engine.total_flops);
    ];
  m

let time_of ?title plan = (measure ?title plan).Engine.time_ms

let print_row label values =
  Format.printf "%-28s" label;
  List.iter (fun v -> Format.printf " %10s" v) values;
  Format.printf "@."

let ms v = Printf.sprintf "%.3f" v

(* ------------------------------------------------------------------ *)
(* Figure 2: stacked RNN execution time vs stack depth                 *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  start "fig2" None;
  section "Figure 2: stacked RNN time (ms) vs depth (batch 256, hidden 256, len 64)";
  let depths = [ 1; 4; 8; 12; 16; 20; 24; 28; 32 ] in
  let header = List.map string_of_int depths in
  print_row "depth" header;
  let names =
    [ "FractalTensor"; "cuDNN"; "Triton"; "PyTorch JIT"; "PyTorch"; "TVM";
      "TensorFlow" ]
  in
  (* suites (graph construction) build sequentially — Build.build is
     not re-entrant — then the independent table cells are simulated
     across the domain pool *)
  let columns =
    List.map
      (fun d ->
        let cfg =
          { Stacked_rnn.batch = 256; depth = d; seq_len = 64; hidden = 256 }
        in
        (d, Suites.stacked_rnn cfg))
      depths
  in
  let cells =
    Array.of_list
      (List.concat_map
         (fun name ->
           List.map
             (fun (d, plans) ->
               (Printf.sprintf "stacked RNN depth %d" d, Suites.find plans name))
             columns)
         names)
  in
  let times =
    Domain_pool.map_array (Domain_pool.get ())
      (fun (title, plan) -> time_of ~title plan)
      cells
  in
  let ncols = List.length columns in
  List.iteri
    (fun i name ->
      print_row name
        (List.init ncols (fun j -> ms times.((i * ncols) + j))))
    names

(* ------------------------------------------------------------------ *)
(* Figure 7: end-to-end time per workload and shape                    *)
(* ------------------------------------------------------------------ *)

let run_suite label plans =
  set_title label;
  Format.printf "@.%s@." label;
  let best_baseline =
    List.fold_left
      (fun acc (p : Plan.t) ->
        if p.Plan.plan_name = "FractalTensor" then acc
        else Float.min acc (time_of p))
      infinity plans
  in
  List.iter
    (fun (p : Plan.t) ->
      let t = time_of p in
      let note =
        if p.Plan.plan_name = "FractalTensor" then
          Printf.sprintf "  (speedup vs best baseline: %.2fx)"
            (best_baseline /. t)
        else ""
      in
      Format.printf "  %-18s %10.3f ms%s@." p.Plan.plan_name t note)
    plans

let fig7 () =
  start "fig7" None;
  section "Figure 7: end-to-end execution time per DNN workload";
  run_suite "stacked LSTM (batch 256, depth 32, len 64, hidden 256)"
    (Suites.stacked_lstm Stacked_lstm.paper);
  run_suite "stacked LSTM (batch 256, depth 32, len 64, hidden 1024)"
    (Suites.stacked_lstm { Stacked_lstm.paper with hidden = 1024 });
  run_suite "stacked dilated RNN (batch 256, 6 layers, dilation 1..32, hidden 256)"
    (Suites.dilated_rnn Dilated_rnn.paper);
  run_suite "stacked dilated RNN (hidden 1024)"
    (Suites.dilated_rnn { Dilated_rnn.paper with hidden = 1024 });
  run_suite "stacked grid RNN (batch 256, depth 32, 8x8, hidden 256)"
    (Suites.grid_rnn Grid_rnn.paper);
  run_suite "stacked grid RNN (hidden 1024)"
    (Suites.grid_rnn { Grid_rnn.paper with hidden = 1024 });
  run_suite "back-to-back GEMMs (M 8192, K 64, P 64)"
    (Suites.b2b_gemm B2b_gemm.paper);
  run_suite "back-to-back GEMMs (M 16384)"
    (Suites.b2b_gemm { B2b_gemm.paper with m_blocks = 128 });
  run_suite "FlashAttention (batch 16, heads 16, 2048 q, 4096 kv, dim 128)"
    (Suites.flash_attention Flash_attention.paper);
  run_suite "FlashAttention (4096 q)"
    (Suites.flash_attention { Flash_attention.paper with q_blocks = 128 });
  run_suite "BigBird (batch 16, 64 blocks x 32, dim 512, window 3)"
    (Suites.bigbird Bigbird.paper);
  run_suite "BigBird (128 blocks)"
    (Suites.bigbird { Bigbird.paper with blocks = 128 })

(* ------------------------------------------------------------------ *)
(* Figure 8: RNN scaling with depth and sequence length                *)
(* ------------------------------------------------------------------ *)

let fig8_sweep name axis mk_suite points =
  Format.printf "@.%s — time (ms) vs %s@." name axis;
  print_row axis (List.map string_of_int points);
  let columns = List.map (fun p -> (p, mk_suite p)) points in
  let names =
    List.map (fun (p : Plan.t) -> p.Plan.plan_name) (snd (List.hd columns))
  in
  let cells =
    Array.of_list
      (List.concat_map
         (fun n ->
           List.map
             (fun (pt, plans) ->
               (Printf.sprintf "%s, %s %d" name axis pt, Suites.find plans n))
             columns)
         names)
  in
  let times =
    Domain_pool.map_array (Domain_pool.get ())
      (fun (title, plan) -> time_of ~title plan)
      cells
  in
  let ncols = List.length columns in
  List.iteri
    (fun i n ->
      print_row n (List.init ncols (fun j -> ms times.((i * ncols) + j))))
    names

let fig8_model name mk_suite depths = fig8_sweep name "depth" mk_suite depths
let fig8_seq name mk_suite lens = fig8_sweep name "seq len" mk_suite lens

let fig8 () =
  start "fig8" None;
  section "Figure 8: RNN scaling (middle = batch 256 hidden 256; large = hidden 1024)";
  let depths = [ 4; 8; 12; 16; 20; 24; 28; 32 ] in
  List.iter
    (fun (tag, hidden) ->
      fig8_model
        (Printf.sprintf "stacked LSTM (%s)" tag)
        (fun d ->
          Suites.stacked_lstm
            { Stacked_lstm.batch = 256; depth = d; seq_len = 64; hidden })
        depths;
      fig8_model
        (Printf.sprintf "grid RNN (%s)" tag)
        (fun d ->
          Suites.grid_rnn
            { Grid_rnn.batch = 256; depth = d; rows = 8; cols = 8; hidden })
        depths;
      fig8_model
        (Printf.sprintf "dilated RNN (%s, layers 1..6)" tag)
        (fun d ->
          Suites.dilated_rnn
            { Dilated_rnn.batch = 256; layers = d; seq_len = 64; hidden })
        [ 1; 2; 3; 4; 5; 6 ];
      fig8_seq
        (Printf.sprintf "stacked LSTM (%s, depth 32)" tag)
        (fun l ->
          Suites.stacked_lstm
            { Stacked_lstm.batch = 256; depth = 32; seq_len = l; hidden })
        [ 32; 64; 128 ])
    [ ("middle", 256); ("large", 1024) ]

(* ------------------------------------------------------------------ *)
(* Table 7: memory traffic profile                                     *)
(* ------------------------------------------------------------------ *)

let table7_block title plans =
  set_title title;
  Format.printf "@.%s@." title;
  print_row "methodology" [ "DRAM (GB)"; "L1 (GB)"; "L2 (GB)" ];
  List.iter
    (fun (p : Plan.t) ->
      let m = measure p in
      print_row p.Plan.plan_name
        [
          Printf.sprintf "%.2f" m.Engine.dram_gb;
          Printf.sprintf "%.2f" m.Engine.l1_gb;
          Printf.sprintf "%.2f" m.Engine.l2_gb;
        ])
    plans

let table7 () =
  start "table7" None;
  section "Table 7: bytes of access to GPU DRAM / L1 / L2";
  table7_block "(1) FlashAttention"
    (Suites.flash_attention Flash_attention.paper);
  table7_block "(2) BigBird" (Suites.bigbird Bigbird.paper)

(* ------------------------------------------------------------------ *)
(* Ablation: what each compiler stage buys (DESIGN.md)                 *)
(* ------------------------------------------------------------------ *)

let ablation () =
  start "ablation" None;
  section "Ablation: what the coarsening pass buys (DESIGN.md)";
  let show title g =
    set_title title;
    Format.printf "@.%s@." title;
    let full = Pipeline.plan_of_graph g in
    (* no region grouping / width-wise merging: emit each parsed block
       separately — intermediates materialise, regions re-read inputs *)
    let unmerged =
      {
        Plan.plan_name = "no coarsening";
        kernels =
          List.concat_map (fun b -> Emit.block_plan g b) (Ir.dataflow_order g);
      }
    in
    let no_reuse = Pipeline.plan_of_graph ~collapse_reuse:false g in
    List.iter
      (fun (label, p) ->
        let m = measure p in
        Format.printf "  %-24s %a@." label Engine.pp_metrics m)
      [ ("full pipeline", full); ("without coarsening", unmerged);
        ("without reuse collapse", { no_reuse with Plan.plan_name = "nr" }) ]
  in
  show "stacked LSTM (regions fuse into one persistent kernel chain)"
    (Build.build (Stacked_lstm.program Stacked_lstm.paper));
  show "BigBird (component blocks fuse; window reads deduplicate)"
    (Build.build (Bigbird.program Bigbird.paper));
  show "FlashAttention (normalisation absorbs into the reduce)"
    (Build.build (Flash_attention.program Flash_attention.paper));
  Format.printf
    "@.  (the reordering pass cannot be disabled independently: without it@.";
  Format.printf
    "   a dependence-carrying block has no legal parallel schedule)@."

(* ------------------------------------------------------------------ *)
(* Portability: the same plans retargeted to other device models       *)
(* ------------------------------------------------------------------ *)

let devices () =
  start "devices" None;
  section "Portability: FractalTensor plans across device models (§7)";
  let targets = [ Device.v100; Device.a100; Device.h100 ] in
  Format.printf "%-18s" "workload";
  List.iter (fun d -> Format.printf " %16s" d.Device.name) targets;
  Format.printf "   (time, ms)@.";
  let row name plan =
    set_title name;
    Format.printf "%-18s" name;
    List.iter
      (fun d -> Format.printf " %16.3f" (measure ~device:d plan).Engine.time_ms)
      targets;
    Format.printf "@."
  in
  (* plan_cached: recompiles nothing when another experiment already
     compiled the same program this run *)
  row "stacked LSTM"
    (Pipeline.plan_cached (Stacked_lstm.program Stacked_lstm.paper));
  row "flash attention"
    (Pipeline.plan_cached (Flash_attention.program Flash_attention.paper));
  row "bigbird" (Pipeline.plan_cached (Bigbird.program Bigbird.paper));
  row "retention" (Pipeline.plan_cached (Retention.program Retention.large));
  row "conv1d" (Pipeline.plan_cached (Conv1d.program Conv1d.large))

(* ------------------------------------------------------------------ *)
(* VM: real wall clock of the parallel wavefront executor              *)
(* ------------------------------------------------------------------ *)

let domain_counts = ref [ 1; 2; 4 ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let wall_ms f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  (Unix.gettimeofday () -. t0) *. 1e3

(* Interleaved rounds: [!warmup] untimed samples of each config, then
   [!repeat] rounds that take one sample of each config in turn, so
   slow machine drift (thermal throttling, cgroup contention over a
   long CI run — it flipped thin margins by ±10% when configs were
   timed back-to-back) hits every side of a ratio alike.  Each sampler
   returns its own sample; the result is each config's median. *)
let interleaved_medians samplers =
  List.iter
    (fun s ->
      for _ = 1 to !warmup do
        ignore (s () : float)
      done)
    samplers;
  let samples = Array.make (List.length samplers) [] in
  for _round = 1 to Stdlib.max 1 !repeat do
    List.iteri (fun i s -> samples.(i) <- s () :: samples.(i)) samplers
  done;
  Array.map median samples

let warm_median_ms f = (interleaved_medians [ (fun () -> wall_ms f) ]).(0)

let vm () =
  start "vm" (Some 11);
  section "VM: wavefront wall clock vs domain count (real multicore execution)";
  let hw = Stdlib.Domain.recommended_domain_count () in
  Format.printf "hardware cores available: %d@." hw;
  (* oversubscribed pools measure scheduling contention, not speedup —
     say so up front, and tag the records *)
  List.iter
    (fun d ->
      if d > hw then
        Format.eprintf
          "warning: --domains %d exceeds the %d hardware core(s) detected — \
           wavefront timings at that size include scheduling contention@."
          d hw)
    !domain_counts;
  let workloads =
    [
      ( "stacked LSTM (batch 4, depth 4, len 24, hidden 96)",
        fun () ->
          let cfg =
            { Stacked_lstm.batch = 4; depth = 4; seq_len = 24; hidden = 96 }
          in
          let inp = Stacked_lstm.gen_inputs (Rng.create 11) cfg in
          (Stacked_lstm.program cfg, Stacked_lstm.bindings inp) );
      ( "flash attention (default)",
        fun () ->
          let cfg = Flash_attention.default in
          let inp = Flash_attention.gen_inputs (Rng.create 11) cfg in
          (Flash_attention.program cfg, Flash_attention.bindings inp) );
    ]
  in
  List.iter
    (fun (wname, mk) ->
      let program, binds = mk () in
      let g = Build.build program in
      Format.printf "@.%s@." wname;
      List.iter
        (fun (st : Vm.block_stats) ->
          Format.printf
            "  block %-28s points %4d  fronts %3d  max width %3d  parallelism %.1fx@."
            st.Vm.bs_block st.Vm.bs_points st.Vm.bs_fronts st.Vm.bs_max_width
            (Vm.parallelism st))
        (Vm.wavefront_stats g);
      (* Idle OCaml 5 domains join every stop-the-world minor
         collection, so a live multi-domain pool taxes the
         allocation-heavy interpreter baseline (measured 65 → 111 ms
         with six idle workers).  So the pool-free configs — the
         sequential interpreter and the compiled executor at one
         domain, the pair the vm gate compares — are timed, interleaved,
         before any pool exists, then the pooled domain counts, then
         [Domain_pool.reset] so the next workload starts clean.

         The last round's outputs feed the bitwise check, in the
         interpreter's view ([Oracles.value], untimed).  The sequential
         baseline is the reference interpreter ([Interp.run_program]);
         the wavefront rows run the compiled executor through the
         unified front door — prepared once per domain count and
         reused, so the timed loop sees only the steady state. *)
      let time_rounds execs =
        let outs = Array.make (List.length execs) (fun () -> None) in
        let mss =
          interleaved_medians
            (List.mapi (fun i e () -> wall_ms (fun () -> outs.(i) <- e ())) execs)
        in
        (mss, outs)
      in
      (* each run returns its value in the interpreter's view, projected
         only when asked, outside the timed region *)
      let interp () =
        let v = Interp.run_program program binds in
        fun () -> Some v
      in
      let compiled pr () =
        let outs =
          List.map
            (fun (n, v) -> (n, Fractal.map_leaves Tensor.copy v))
            (Executor.execute pr binds)
        in
        fun () -> Oracles.value program outs
      in
      let record_cfg ?interleaved ~layer ~domains ~bitwise med speedup =
        record ~workload:wname ~layer ~metric:"time_ms" ~unit_:"ms"
          ~statistic:"median" ?interleaved ~domains ~bitwise med;
        record ~workload:wname ~layer ~metric:"speedup_vs_interp" ~unit_:"x"
          ~statistic:"ratio" ?interleaved ~domains ~bitwise speedup
      in
      let prep ?(fuse = true) d =
        let opts =
          { Run_opts.default with Run_opts.domains = Some d; fuse }
        in
        Executor.prepare ~opts g
      in
      let singles, pooled = List.partition (fun d -> d <= 1) !domain_counts in
      let single_cfgs = List.map (fun d -> (d, prep d)) singles in
      (* fusion ablation rides along at one domain: same engine, same
         schedule, epilogue fusion and aligned B copies switched off — the
         pair the vm gate's fusion row compares *)
      let nofuse_pr = prep ~fuse:false 1 in
      let mss, outss =
        time_rounds
          ((interp :: List.map (fun (_, pr) -> compiled pr) single_cfgs)
          @ [ compiled nofuse_pr ])
      in
      let seq_ms = mss.(0) in
      let reference = outss.(0) () in
      Format.printf "  %-34s %10.3f ms@." "interpreter (baseline)" seq_ms;
      record_cfg ~layer:"sequential/interp" ~domains:1 ~bitwise:true seq_ms 1.0;
      let report ?(engine = "compiled") ?interleaved d med value =
        let bitwise =
          match (value (), reference) with
          | Some v, Some r -> Fractal.equal_exact v r
          | _ -> false
        in
        let speedup = seq_ms /. med in
        Format.printf
          "  wavefront, %d domain%s %-18s %10.3f ms  (%.2fx vs interpreter%s)@."
          d
          (if d = 1 then " " else "s")
          engine med speedup
          (if bitwise then ", bitwise equal" else ", OUTPUTS DIFFER");
        if not bitwise then
          Format.printf
            "  WARNING: compiled output differs from the interpreter@.";
        record_cfg ?interleaved ~layer:("wavefront/" ^ engine) ~domains:d
          ~bitwise med speedup
      in
      List.iteri
        (fun i (d, _) -> report d mss.(i + 1) outss.(i + 1))
        single_cfgs;
      let last = List.length single_cfgs + 1 in
      report ~engine:"compiled-nofuse" 1 mss.(last) outss.(last);
      List.iter
        (fun d ->
          let mss, outss = time_rounds [ compiled (prep d) ] in
          report ~interleaved:false d mss.(0) outss.(0))
        pooled;
      Domain_pool.reset ())
    workloads

(* ------------------------------------------------------------------ *)
(* Kernels: native GEMM tier vs the OCaml reference loops              *)
(* ------------------------------------------------------------------ *)

(* ns per element of the native elementwise tier against the
   Tensor.Reference loops, at the cell-tail shapes the workloads run:
   an RNN step's [1,64] and [1,128], a batched [16,128], and flash
   attention's [32,32] score tile.  Each sample runs [iters] calls,
   about 2e5 elements; operands are uniform in [-3,3), so tanh takes
   both of its ranges.  The bias+tanh row is the GEMM epilogue
   (add_bias_act_into with a [1,n] bias, in place), timed with the copy
   that restores its operand before every call on both sides.  Each
   candidate is checked bitwise against its baseline. *)
let elementwise rng =
  section "Kernels: native elementwise vs Tensor.Reference (wall clock, ns per element)";
  print_row "kernel / shape" [ "baseline"; "candidate"; "speedup"; "bitwise" ];
  let shapes = [ (1, 64); (1, 128); (16, 128); (32, 32) ] in
  List.iter
    (fun (m, n) ->
      let shape = Printf.sprintf "[%d,%d]" m n in
      let sh = Shape.of_array [| m; n |] in
      let a = Tensor.scale 3.0 (Tensor.rand rng sh) in
      let b = Tensor.scale 3.0 (Tensor.rand rng sh) in
      let bias = Tensor.rand rng (Shape.of_array [| 1; n |]) in
      let numel = m * n in
      let iters = Stdlib.max 1 (200_000 / numel) in
      let binop op ~reference dst =
        if reference then Tensor.Reference.binop_into op a b ~dst
        else Tensor.binop_into op a b ~dst
      in
      let unop op ~reference dst =
        if reference then Tensor.Reference.unop_into op a ~dst
        else Tensor.unop_into op a ~dst
      in
      let bias_tanh ~reference dst =
        Tensor.copy_into a ~dst;
        if reference then
          Tensor.Reference.add_bias_act_into ~bias ~act:Tensor.Utanh ~dst
        else Tensor.add_bias_act_into ~bias ~act:Tensor.Utanh ~dst
      in
      List.iter
        (fun (kernel, run) ->
          let d0 = Tensor.uninit sh and d1 = Tensor.uninit sh in
          let sample reference dst () =
            wall_ms (fun () ->
                for _ = 1 to iters do
                  run ~reference dst
                done)
          in
          let mss = interleaved_medians [ sample true d0; sample false d1 ] in
          run ~reference:true d0;
          run ~reference:false d1;
          let bitwise = Tensor.equal_bits d1 d0 in
          let ns ms = ms *. 1e6 /. float_of_int (iters * numel) in
          let speedup = mss.(0) /. mss.(1) in
          print_row
            (Printf.sprintf "%s %s" kernel shape)
            [
              Printf.sprintf "%.2f ns/el" (ns mss.(0));
              Printf.sprintf "%.2f ns/el" (ns mss.(1));
              Printf.sprintf "%.2fx" speedup;
              (if bitwise then "equal" else "DIFFER");
            ];
          List.iter
            (fun (variant, ms, vs_base) ->
              let rk ?(statistic = "median") metric unit_ v =
                record ~workload:shape ~layer:(kernel ^ "/" ^ variant) ~metric
                  ~unit_ ~domains:1 ~bitwise ~statistic v
              in
              rk "time_ms" "ms" ms;
              rk "ns_per_elem" "ns" (ns ms);
              rk ~statistic:"ratio" "speedup_vs_baseline" "x" vs_base;
              rk ~statistic:"config" "iters" "count" (float_of_int iters))
            [ ("baseline", mss.(0), 1.0); ("candidate", mss.(1), speedup) ])
        [
          ("ew-add", binop Tensor.Badd);
          ("ew-mul", binop Tensor.Bmul);
          ("ew-tanh", unop Tensor.Utanh);
          ("ew-sigmoid", unop Tensor.Usigmoid);
          ("ew-exp", unop Tensor.Uexp);
          ("ew-bias-tanh", bias_tanh);
        ])
    shapes

(* Wall-clock GFLOP/s of the native GEMM tier against the OCaml
   reference loops it must match bit for bit, at the per-cell shapes the
   workloads actually run.  Every candidate's baseline is the OCaml
   reference: the native GEMM ([gemm-native]) and the native GEMM with
   a fused bias+tanh epilogue ([gemm-bias-tanh], against the reference
   GEMM followed by separate bias and tanh passes).  Operands are
   ordinary tensors, born 64-byte aligned.  Each timed sample
   executes the kernel [iters] times so that tiny shapes (an LSTM gate
   GEMM is 73 Kflop) rise above clock granularity; rounds interleave
   every variant of a shape so machine drift hits both sides of every
   ratio equally.  Every candidate is also checked bitwise — a kernel
   variant that wins by changing results is a bug, not a speedup.  The
   elementwise rows above follow. *)
let kernels () =
  start "kernels" (Some 17);
  section "Kernels: native GEMM vs the OCaml reference (wall clock, GFLOP/s)";
  let rng = Rng.create 17 in
  let shapes =
    [
      ("LSTM gate (4x96 @ 96x96)", 4, 96, 96);
      ("RNN cell (256x256 @ 256x256)", 256, 256, 256);
      ("FFN block (256x512 @ 512x512)", 256, 512, 512);
      ("b2b GEMM (8192x64 @ 64x64)", 8192, 64, 64);
    ]
  in
  Format.printf "median of %d rounds, %d warmup@." (Stdlib.max 1 !repeat)
    !warmup;
  print_row "kernel / shape"
    [ "baseline"; "candidate"; "speedup"; "bitwise" ];
  (* one timed sample = [iters] executions of each variant, >= ~20 Mflop *)
  let timed ~flops variants =
    let iters =
      Stdlib.max 1 (int_of_float (2e7 /. Stdlib.max 1.0 flops))
    in
    let run f () =
      wall_ms (fun () ->
          for _ = 1 to iters do
            f ()
          done)
    in
    (iters, interleaved_medians (List.map run variants))
  in
  let report ~shape ~kernel ~flops ~iters ~bitwise mb mc =
    let gf ms = flops *. float_of_int iters /. (ms *. 1e6) in
    let speedup = mb /. mc in
    print_row
      (Printf.sprintf "%s %s" kernel shape)
      [
        Printf.sprintf "%.2f GF/s" (gf mb);
        Printf.sprintf "%.2f GF/s" (gf mc);
        Printf.sprintf "%.2fx" speedup;
        (if bitwise then "equal" else "DIFFER");
      ];
    List.iter
      (fun (variant, ms, vs_base) ->
        let layer = kernel ^ "/" ^ variant in
        let rk ?statistic metric unit_ v =
          record ~workload:shape ~layer ~metric ~unit_ ~domains:1 ~bitwise
            ~statistic:(Option.value statistic ~default:"median") v
        in
        rk "time_ms" "ms" ms;
        rk "gflops" "GFLOP/s" (gf ms);
        rk ~statistic:"ratio" "speedup_vs_baseline" "x" vs_base;
        rk ~statistic:"config" "iters" "count" (float_of_int iters))
      [ ("baseline", mb, 1.0); ("candidate", mc, speedup) ]
  in
  List.iter
    (fun (shape, m, k, n) ->
      let a = Tensor.rand rng (Shape.of_array [| m; k |]) in
      let b = Tensor.rand rng (Shape.of_array [| k; n |]) in
      let bias = Tensor.rand rng (Shape.of_array [| 1; n |]) in
      let dst () = Tensor.zeros (Shape.of_array [| m; n |]) in
      let d0 = dst () and d1 = dst () and d2 = dst () in
      let flops = 2.0 *. float_of_int (m * k * n) in
      let reference () = Tensor.Reference.matmul_into ~beta:0.0 ~dst:d0 a b in
      let native () = Tensor.matmul_into ~beta:0.0 ~dst:d1 a b in
      let iters, mss = timed ~flops [ reference; native ] in
      reference ();
      native ();
      report ~shape ~kernel:"gemm-native" ~flops ~iters
        ~bitwise:(Tensor.equal_bits d1 d0) mss.(0) mss.(1);
      (* fused epilogue vs the reference three-kernel chain *)
      let ep = Tensor.epilogue ~bias ~act:Tensor.Utanh () in
      let chain () =
        reference ();
        Tensor.Reference.binop_into Tensor.Badd d0 bias ~dst:d0;
        Tensor.Reference.unop_into Tensor.Utanh d0 ~dst:d0
      in
      let fused () = Tensor.matmul_into ~beta:0.0 ~epilogue:ep ~dst:d2 a b in
      let iters, mss = timed ~flops [ chain; fused ] in
      chain ();
      fused ();
      report ~shape ~kernel:"gemm-bias-tanh" ~flops ~iters
        ~bitwise:(Tensor.equal_bits d2 d0) mss.(0) mss.(1))
    shapes;
  elementwise rng

(* ------------------------------------------------------------------ *)
(* Tuned: default vs auto-tuned configuration per workload             *)
(* ------------------------------------------------------------------ *)

(* One search per workload — analytical oracle, coordinate descent,
   fixed budget — then both configs through the full simulator.
   Everything here is deterministic: rerunning the experiment
   reproduces the exact trajectory and winner. *)
let tuned () =
  let budget = 32 in
  start "tuned" None;
  section "Tuned: default vs auto-tuned configs (analytical oracle, coordinate descent)";
  let cases =
    [
      ( "fig2",
        "stacked RNN (batch 256, depth 8, len 64, hidden 256)",
        Stacked_rnn.program
          { Stacked_rnn.batch = 256; depth = 8; seq_len = 64; hidden = 256 } );
      ( "fig7",
        "stacked LSTM (batch 256, depth 32, len 64, hidden 256)",
        Stacked_lstm.program Stacked_lstm.paper );
      ( "fig7",
        "FlashAttention (batch 16, heads 16, 2048 q, 4096 kv, dim 128)",
        Flash_attention.program Flash_attention.paper );
      ( "fig8",
        "dilated RNN (batch 256, 6 layers, hidden 256)",
        Dilated_rnn.program Dilated_rnn.paper );
      ( "fig7",
        "back-to-back GEMMs (M 8192, K 64, P 64)",
        B2b_gemm.program B2b_gemm.paper );
      (* the recurrent workloads carry vector-sized per-cell GEMMs the
         tile model rightly leaves alone; this one has a fat per-cell
         GEMM where cache tiling genuinely wins *)
      ( "demo",
        "blockwise FFN (4 blocks of 256x512 @ 512x512)",
        Parse.program
          "program ffn_block\n\
           input xs: [4]f32[256,512]\n\
           input w: f32[512,512]\n\
           return xs.map { |x| x @ w }\n" );
    ]
  in
  Format.printf "budget %d evaluations per workload@.@." budget;
  print_row "workload"
    [ "default"; "tuned"; "speedup"; "sim default"; "sim tuned" ];
  List.iter
    (fun (fig, title, p) ->
      let rep = Tuner.tune_program ~budget p in
      let res = rep.Tuner.rp_result in
      let dflt = res.Search.r_default.Search.e_cost in
      let best = res.Search.r_best.Search.e_cost in
      let cfg = res.Search.r_best.Search.e_candidate in
      let sim_default = Executor.time_ms (Pipeline.plan p) in
      let sim_tuned = Executor.time_ms (Pipeline.plan ~tile:cfg p) in
      let speedup = if best > 0. then dflt /. best else 1. in
      print_row title
        [
          Printf.sprintf "%.1f us" dflt;
          Printf.sprintf "%.1f us" best;
          Printf.sprintf "%.2fx" speedup;
          ms sim_default;
          ms sim_tuned;
        ];
      Format.printf "    config: %s@." (Knobs.to_string cfg);
      let tuned = "tuned " ^ Knobs.to_string cfg in
      List.iter
        (fun (config, metric, unit_, statistic, v) ->
          record ~workload:title
            ~layer:(Printf.sprintf "%s/sim %s" fig config)
            ~metric ~unit_ ~source:Schema.Simulated ~statistic ~repeat:1
            ~warmup:0 ~interleaved:false v)
        [
          ("default", "cost_us", "us", "model", dflt);
          ("default", "sim_time_ms", "ms", "model", sim_default);
          (tuned, "cost_us", "us", "model", best);
          (tuned, "sim_time_ms", "ms", "model", sim_tuned);
          (tuned, "speedup_vs_default", "x", "ratio", speedup);
          ( tuned, "evaluations", "count", "count",
            float_of_int (List.length res.Search.r_evals) );
          (tuned, "budget", "count", "config", float_of_int budget);
        ])
    cases

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (real wall clock of this implementation)  *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (wall clock of the OCaml implementation)";
  let open Bechamel in
  let rng = Rng.create 5 in
  let a = Tensor.rand rng (Shape.of_array [| 128; 128 |]) in
  let b = Tensor.rand rng (Shape.of_array [| 128; 128 |]) in
  let rnn_cfg = Stacked_rnn.default in
  let rnn_prog = Stacked_rnn.program rnn_cfg in
  let rnn_inp = Stacked_rnn.gen_inputs rng rnn_cfg in
  let rnn_bind = Stacked_rnn.bindings rnn_inp in
  let g = Build.build rnn_prog in
  let region3 =
    List.find (fun blk -> blk.Ir.blk_name = "stacked_rnn.region3") g.Ir.g_blocks
  in
  let tests =
    Test.make_grouped ~name:"fractaltensor"
      [
        Test.make ~name:"tensor.matmul-128"
          (Staged.stage (fun () -> ignore (Tensor.matmul a b)));
        Test.make ~name:"interp.stacked-rnn"
          (Staged.stage (fun () ->
               ignore (Interp.run_program rnn_prog rnn_bind)));
        Test.make ~name:"compile.build-etdg"
          (Staged.stage (fun () -> ignore (Build.build rnn_prog)));
        Test.make ~name:"compile.reorder"
          (Staged.stage (fun () -> ignore (Reorder.apply region3)));
        Test.make ~name:"compile.emit-plan"
          (Staged.stage (fun () -> ignore (Pipeline.plan_of_graph g)));
        Test.make ~name:"simulate.exec-plan"
          (Staged.stage (fun () ->
               ignore (Executor.simulate (Pipeline.plan_of_graph g))));
      ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances tests in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let results = benchmark () in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Format.printf "  %-32s %12.1f ns/run@." name est
      | _ -> Format.printf "  %-32s (no estimate)@." name)
    results

(* ------------------------------------------------------------------ *)
(* Serve: continuous batching vs one request at a time                 *)
(* ------------------------------------------------------------------ *)

(* Per builtin servable: closed-loop saturation throughput batched vs
   solo, interleaved and compared by median, with the bitwise
   differential on the last round's results; then one open-loop run of
   seeded Poisson arrivals through the bounded admission queue for
   latency percentiles under backpressure.  The open loop deliberately
   overloads: [rate] arrivals per tick at mean length ~3/4 seq_len
   offer more tokens per tick than [max_batch] rows serve, so the queue
   must fill and the door must shed — the regime the serve gate reads. *)

let requests = ref 32

let serve () =
  let seed = 2024 and max_batch = 8 and queue = 4 and rate = 2.0 in
  let tick_ms = 0.2 and domains = Domain_pool.num_domains () in
  start "serve" (Some seed);
  section "Serve: continuous batching vs solo, open-loop latency under backpressure";
  print_row "workload"
    [ "speedup"; "batched t/s"; "solo t/s"; "occupancy"; "mismatches"; "p99 ms" ];
  List.iter
    (fun name ->
      let sv =
        match Serve.servable_of_file name with
        | Ok sv -> sv
        | Error e -> failwith ("serve: " ^ e)
      in
      let plan seed n rate =
        Loadgen.plan ~seed ~n ~rate
          ~len_lo:(Stdlib.max 1 (sv.Servable.sv_seq_len / 2))
          ~len_hi:sv.Servable.sv_seq_len
      in
      (* arrival ticks collapse to 0 at rate 1e9: a saturated queue *)
      let closed = plan seed !requests 1e9 in
      let last = Array.make 2 None in
      let sample i serve_all () =
        let o = serve_all (Loadgen.requests sv ~seed closed) in
        last.(i) <- Some o;
        o.Serve.oc_wall_s
      in
      let walls =
        interleaved_medians
          [
            sample 0 (Serve.run_requests ~max_batch sv);
            sample 1 (Serve.solo sv);
          ]
      in
      let b = Option.get last.(0) and s = Option.get last.(1) in
      let bad = Serve.mismatches b.Serve.oc_completed s.Serve.oc_completed in
      let o =
        Serve.run_open_loop ~max_batch ~queue ~tick_ms sv
          (Loadgen.requests sv ~seed:(seed + 1)
             (plan (seed + 1) (!requests * 2) rate))
      in
      let m = o.Serve.oc_metrics in
      let speedup = walls.(1) /. Float.max 1e-9 walls.(0) in
      print_row sv.Servable.sv_name
        [
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%.0f" (Metrics.tokens_per_s b.Serve.oc_metrics);
          Printf.sprintf "%.0f" (Metrics.tokens_per_s s.Serve.oc_metrics);
          Printf.sprintf "%.2f" (Metrics.mean_occupancy b.Serve.oc_metrics);
          string_of_int bad;
          Printf.sprintf "%.2f" (Metrics.percentile m 99.);
        ];
      let put ?repeat ?warmup ?interleaved ?bitwise layer rows =
        List.iter
          (fun (metric, unit_, statistic, v) ->
            record ~workload:sv.Servable.sv_name
              ~layer:("compiled/" ^ layer)
              ~metric ~unit_ ~statistic ?repeat ?warmup ?interleaved ~domains
              ?bitwise v)
          rows
      in
      let fi = float_of_int in
      put "closed/batched" ~bitwise:(bad = 0)
        [
          ("requests", "count", "config", fi !requests);
          ("max_batch", "count", "config", fi max_batch);
          ("seq_len", "tokens", "config", fi sv.Servable.sv_seq_len);
          ("wall_s", "s", "median", walls.(0));
          ("speedup_vs_solo", "x", "ratio", speedup);
          ("tokens_per_s", "1/s", "last round", Metrics.tokens_per_s b.Serve.oc_metrics);
          ("mean_occupancy", "rows", "last round", Metrics.mean_occupancy b.Serve.oc_metrics);
          ("bitwise_mismatches", "count", "count", fi bad);
        ];
      put "closed/solo" ~bitwise:(bad = 0)
        [
          ("wall_s", "s", "median", walls.(1));
          ("tokens_per_s", "1/s", "last round", Metrics.tokens_per_s s.Serve.oc_metrics);
        ];
      put "open" ~repeat:1 ~warmup:0 ~interleaved:false
        ([
           ("max_batch", "count", "config", fi max_batch);
           ("queue", "count", "config", fi queue);
           ("rate_per_tick", "1/tick", "config", rate);
           ("tick_ms", "ms", "config", tick_ms);
           ("offered", "count", "config", fi (!requests * 2));
           ("shed", "count", "count", fi o.Serve.oc_shed);
           ("completed", "count", "count", fi (Metrics.completed m));
           ("ticks", "count", "count", fi (Metrics.ticks m));
           ("tokens", "count", "count", fi (Metrics.tokens m));
           ("wall_s", "s", "single run", Metrics.wall_s m);
           ("exec_ms", "ms", "single run", Metrics.exec_ms m);
           ("latency_p50_ms", "ms", "p50", Metrics.percentile m 50.);
           ("latency_p95_ms", "ms", "p95", Metrics.percentile m 95.);
           ("latency_p99_ms", "ms", "p99", Metrics.percentile m 99.);
           ("throughput_rps", "1/s", "single run", Metrics.throughput_rps m);
           ("tokens_per_s", "1/s", "single run", Metrics.tokens_per_s m);
           ("mean_occupancy", "rows", "single run", Metrics.mean_occupancy m);
         ]
        @ List.map
            (fun (occ, ticks) ->
              (Printf.sprintf "ticks_at_occupancy_%d" occ, "count", "count", fi ticks))
            (Metrics.occupancy_histogram m)))
    Servable.builtin_names

(* ------------------------------------------------------------------ *)
(* Dist: sharded execution across simulated devices                    *)
(* ------------------------------------------------------------------ *)

(* Each row is one sharded configuration: the graph auto-partitioned
   across N simulated devices, executed functionally on N real OCaml
   domains and bitwise-checked against the single-device compiled
   engine, and the same event log priced on the interconnect model.
   The curve and the checked values come from one run, not two
   stories.  Rows where the transfers dominate are honest about losing:
   speedup_vs_1dev < 1 (simulated).  wall_ms is measured: the median of
   warm Dist.run calls on the prepared entry, next to the same graph on
   the 1-device compiled engine (layer "compiled 1-device").  The
   1-device Dist.run and the compiled engine are timed in interleaved
   rounds, so their ratio (the cost of the sharded runner itself) is
   read free of drift; the other device counts are timed one after
   another.  Each device runs on its own domain, so a row's device
   count is its environment's domain count. *)

let device_counts = ref [ 1; 2; 4; 8 ]

let dist () =
  start "dist" (Some 23);
  section
    "Dist: sharded execution across simulated devices (every row \
     bitwise-checked vs the 1-device compiled engine)";
  (* medium configs: big enough that compute can amortise the
     exchanges, small enough that 10 workloads x 4 device counts of
     real functional execution stay interactive *)
  let workloads =
    [
      ( "stacked_rnn",
        fun rng ->
          let cfg =
            { Stacked_rnn.batch = 16; depth = 4; seq_len = 16; hidden = 256 }
          in
          ( Build.build (Stacked_rnn.program cfg),
            Stacked_rnn.bindings (Stacked_rnn.gen_inputs rng cfg) ) );
      ( "stacked_lstm",
        fun rng ->
          let cfg =
            { Stacked_lstm.batch = 16; depth = 4; seq_len = 24; hidden = 128 }
          in
          ( Build.build (Stacked_lstm.program cfg),
            Stacked_lstm.bindings (Stacked_lstm.gen_inputs rng cfg) ) );
      ( "dilated_rnn",
        fun rng ->
          let cfg =
            { Dilated_rnn.batch = 16; layers = 4; seq_len = 32; hidden = 64 }
          in
          ( Build.build (Dilated_rnn.program cfg),
            Dilated_rnn.bindings (Dilated_rnn.gen_inputs rng cfg) ) );
      ( "grid_rnn",
        fun rng ->
          let cfg =
            { Grid_rnn.batch = 8; depth = 2; rows = 8; cols = 8; hidden = 64 }
          in
          ( Build.build (Grid_rnn.program cfg),
            Grid_rnn.bindings (Grid_rnn.gen_inputs rng cfg) ) );
      ( "b2b_gemm",
        fun rng ->
          let cfg =
            { B2b_gemm.m_blocks = 8; block_m = 128; k = 64; n = 64; p = 64 }
          in
          ( Build.build (B2b_gemm.program cfg),
            B2b_gemm.bindings (B2b_gemm.gen_inputs rng cfg) ) );
      ( "flash_attention",
        fun rng ->
          let cfg =
            { Flash_attention.batch = 2; heads = 8; q_blocks = 8;
              kv_blocks = 8; block = 16; head_dim = 64 }
          in
          ( Build.build (Flash_attention.program cfg),
            Flash_attention.bindings (Flash_attention.gen_inputs rng cfg) ) );
      ( "conv1d",
        fun rng ->
          let cfg =
            { Conv1d.batch = 16; seq_len = 128; taps = 9; channels = 64;
              filters = 64 }
          in
          ( Build.build (Conv1d.program cfg),
            Conv1d.bindings (Conv1d.gen_inputs rng cfg) ) );
      ( "selective_scan",
        fun rng ->
          let cfg = { Selective_scan.batch = 16; seq_len = 64; hidden = 64 } in
          ( Build.build (Selective_scan.program cfg),
            Selective_scan.bindings (Selective_scan.gen_inputs rng cfg) ) );
      ( "retention",
        fun rng ->
          let cfg =
            { Retention.batch = 8; heads = 8; chunks = 8; chunk = 16;
              head_dim = 64; gamma = 0.9 }
          in
          ( Build.build (Retention.program cfg),
            Retention.bindings (Retention.gen_inputs rng cfg) ) );
      ( "bigbird",
        fun rng ->
          let cfg =
            { Bigbird.batch = 4; blocks = 8; block = 16; dim = 128; window = 3 }
          in
          ( Build.build (Bigbird.program cfg),
            Bigbird.bindings (Bigbird.gen_inputs rng cfg) ) );
    ]
  in
  (* speedups are quoted against the 1-device row of the same model, so
     it must exist, and run first, under any --devices list *)
  let counts = List.sort_uniq compare (1 :: !device_counts) in
  Format.printf
    "sim: simulated A100s on NVLink (model output); wall: measured median \
     of %d warm Dist.run calls after %d warm-up, %d hardware core(s)@."
    (Stdlib.max 1 !repeat) !warmup
    (Stdlib.Domain.recommended_domain_count ());
  List.iter
    (fun (wname, mk) ->
      let g, binds = mk (Rng.create 23) in
      Format.printf "@.%s@." wname;
      (* the cold call prepares the entry and is checked bitwise; the
         timed calls reuse it *)
      let one_dev = Dist.differential ~devices:1 g binds in
      let compiled_1dev_ms, dist_1dev_ms =
        let pr =
          Executor.prepare
            ~opts:{ Run_opts.default with Run_opts.domains = Some 1 }
            g
        in
        let mss =
          interleaved_medians
            [
              (fun () -> wall_ms (fun () -> Executor.execute pr binds));
              (fun () -> wall_ms (fun () -> Dist.run ~devices:1 g binds));
            ]
        in
        (mss.(0), mss.(1))
      in
      Format.printf "  1-device compiled engine: wall %9.3f ms@."
        compiled_1dev_ms;
      record ~workload:wname ~layer:"compiled 1-device" ~metric:"wall_ms"
        ~unit_:"ms" ~statistic:"median" ~interleaved:true ~domains:1
        compiled_1dev_ms;
      let sim_1dev = ref nan in
      List.iter
        (fun n ->
          let (rp, bitwise), wall_ms =
            if n = 1 then (one_dev, dist_1dev_ms)
            else
              ( Dist.differential ~devices:n g binds,
                warm_median_ms (fun () -> Dist.run ~devices:n g binds) )
          in
          let sim_ms = rp.Dist.rp_sim.Engine.dm_time_ms in
          if n = 1 then sim_1dev := sim_ms;
          Format.printf
            "  %d device%s %-9s sim %9.3f ms  (%.2fx vs 1 device)  \
             transfers %4d (%.6f GB)  wall %9.3f ms (%.2fx the 1-device \
             compiled engine)%s@."
            n
            (if n = 1 then " " else "s")
            rp.Dist.rp_strategy sim_ms (!sim_1dev /. sim_ms) rp.Dist.rp_xfers
            rp.Dist.rp_xfer_gb wall_ms (wall_ms /. compiled_1dev_ms)
            (if bitwise then "  bitwise equal" else "  OUTPUTS DIFFER");
          if not bitwise then
            Format.printf
              "  WARNING: sharded output differs from the 1-device engine@.";
          List.iter
            (fun (metric, unit_, source, statistic, v) ->
              record ~workload:wname
                ~layer:(rp.Dist.rp_strategy ^ "/nvlink")
                ~metric ~unit_ ~source ~statistic
                ~interleaved:(n = 1 && metric = "wall_ms")
                ~domains:n ~bitwise v)
            [
              ("sim_time_ms", "ms", Schema.Simulated, "model", sim_ms);
              ( "speedup_vs_1dev", "x", Schema.Simulated, "ratio",
                !sim_1dev /. sim_ms );
              ( "transfers", "count", Schema.Measured, "count",
                float_of_int rp.Dist.rp_xfers );
              ( "device_transfers", "count", Schema.Measured, "count",
                float_of_int rp.Dist.rp_device_xfers );
              ("transfer_gb", "GB", Schema.Measured, "count", rp.Dist.rp_xfer_gb);
              ("wall_ms", "ms", Schema.Measured, "median", wall_ms);
            ])
        counts;
      Domain_pool.reset ())
    workloads

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig2", fig2, None);
    ("fig7", fig7, None);
    ("fig8", fig8, None);
    ("table7", table7, None);
    ("ablation", ablation, None);
    ("devices", devices, None);
    ("vm", vm, Some Schema.vm);
    ("kernels", kernels, Some (fun rs -> Schema.kernels rs @ Schema.gemm_epilogue rs));
    ("tuned", tuned, None);
    ("serve", serve, Some Schema.serve);
    ("dist", dist, Some Schema.dist);
    ("micro", micro, None);
  ]

(* An experiment's gate over its own records: one ok/FAIL line per row. *)
let gate name check =
  Format.printf "@.gate %s@." name;
  let rows =
    check (List.filter (fun r -> r.Schema.experiment = name) (List.rev !records))
  in
  List.iter
    (fun (ok, line) -> Format.printf "  %s %s@." (if ok then "ok" else "FAIL") line)
    rows;
  List.for_all fst rows

let () =
  (* argv: flags and [EXPERIMENT] in any order *)
  let which = ref "all" in
  let int_flag name v k rest parse =
    match int_of_string_opt v with
    | Some n when n > 0 ->
        k n;
        parse rest
    | _ ->
        prerr_endline (name ^ " requires a positive integer");
        exit 1
  in
  let counts_flag name v counts rest parse =
    let positive s =
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> raise Exit
    in
    match List.map positive (String.split_on_char ',' v) with
    | ns ->
        counts := ns;
        parse rest
    | exception Exit ->
        prerr_endline
          (name ^ " requires a comma-separated list of positive integers");
        exit 1
  in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | "--repeat" :: v :: rest ->
        int_flag "--repeat" v (fun n -> repeat := n) rest parse
    | "--requests" :: v :: rest ->
        int_flag "--requests" v (fun n -> requests := n) rest parse
    | "--warmup" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 0 ->
            warmup := n;
            parse rest
        | _ ->
            prerr_endline "--warmup requires a non-negative integer";
            exit 1)
    | "--domains" :: v :: rest -> counts_flag "--domains" v domain_counts rest parse
    | "--devices" :: v :: rest -> counts_flag "--devices" v device_counts rest parse
    | ( "--json" | "--repeat" | "--requests" | "--warmup" | "--domains"
      | "--devices" )
      :: [] ->
        prerr_endline "flag requires an argument";
        exit 1
    | arg :: rest ->
        which := arg;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    if !which = "all" then experiments
    else List.filter (fun (name, _, _) -> name = !which) experiments
  in
  if selected = [] then begin
    Format.printf "unknown experiment %s (%s|all)@." !which
      (String.concat "|" (List.map (fun (name, _, _) -> name) experiments));
    exit 1
  end;
  Format.printf
    "FractalTensor reproduction benchmarks (simulated %s)@."
    Device.a100.Device.name;
  let passed =
    List.fold_left
      (fun passed (name, run, check) ->
        run ();
        match check with Some c -> gate name c && passed | None -> passed)
      true selected
  in
  (match !json_path with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Jsonw.to_string (Schema.document (List.rev !records)));
          output_char oc '\n');
      Format.printf "wrote %d records to %s@." (List.length !records) path);
  Format.printf "@.";
  if not passed then begin
    prerr_endline "bench: a gate failed (FAIL rows above)";
    exit 1
  end
