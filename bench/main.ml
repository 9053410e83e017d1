(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§6) on the simulated A100, plus wall-clock
   micro-benchmarks (Bechamel) of the compiler and the reference
   executor themselves.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig2       -- one experiment
     (fig2 | fig7 | fig8 | table7 | ablation | devices | vm | kernels |
      tuned | micro)

   Flags: --json OUT      dump every measurement as a JSON array
          --repeat N      timed runs per vm/dist measurement (median-of-N)
          --warmup N      untimed runs before timing (default 1)
          --domains 1,2,4 pool sizes the vm experiment sweeps          *)

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

(* --json OUT: every measurement that feeds a printed table is also
   recorded and dumped as a JSON array at exit, one record per
   (experiment, workload, plan, device) with the full metrics. *)
let json_path : string option ref = ref None
let records : Jsonw.t list ref = ref []

(* Table cells are measured across the domain pool, so appends race;
   the globals below the mutex are only written between experiments. *)
let records_m = Mutex.create ()

let push_record r =
  if !json_path <> None then
    Mutex.protect records_m (fun () -> records := r :: !records)

let cur_experiment = ref ""
let cur_title = ref ""
let set_title t = cur_title := t

(* [title] must be passed explicitly from parallel cells — the
   [cur_title] global is only meaningful on the sequential path. *)
let record ?title device (p : Plan.t) (m : Engine.metrics) =
  let title = match title with Some t -> t | None -> !cur_title in
  push_record
    (Jsonw.Obj
       [
         ("experiment", Jsonw.String !cur_experiment);
         ("workload", Jsonw.String title);
         ("plan", Jsonw.String p.Plan.plan_name);
         ("device", Jsonw.String device.Device.name);
         ("time_ms", Jsonw.Float m.Engine.time_ms);
         ("dram_gb", Jsonw.Float m.Engine.dram_gb);
         ("l2_gb", Jsonw.Float m.Engine.l2_gb);
         ("l1_gb", Jsonw.Float m.Engine.l1_gb);
         ("kernels", Jsonw.Int m.Engine.kernels);
         ("total_flops", Jsonw.Float m.Engine.total_flops);
       ])

let measure ?(device = Device.a100) ?title plan =
  let m = Executor.metrics ~device plan in
  record ?title device plan m;
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
  cur_experiment := "fig2";
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
  cur_experiment := "fig7";
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
  cur_experiment := "fig8";
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
  cur_experiment := "table7";
  section "Table 7: bytes of access to GPU DRAM / L1 / L2";
  table7_block "(1) FlashAttention"
    (Suites.flash_attention Flash_attention.paper);
  table7_block "(2) BigBird" (Suites.bigbird Bigbird.paper)

(* ------------------------------------------------------------------ *)
(* Ablation: what each compiler stage buys (DESIGN.md)                 *)
(* ------------------------------------------------------------------ *)

let ablation () =
  cur_experiment := "ablation";
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
  cur_experiment := "devices";
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

let repeat = ref 5
let warmup = ref 1
let domain_counts = ref [ 1; 2; 4 ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let record_vm ~workload ~order ~engine ~domains ~time_ms ~speedup ~bitwise =
  let hw = Stdlib.Domain.recommended_domain_count () in
  push_record
    (Jsonw.Obj
       [
         ("experiment", Jsonw.String "vm");
         ("workload", Jsonw.String workload);
         ("order", Jsonw.String order);
         ("engine", Jsonw.String engine);
         ("domains", Jsonw.Int domains);
         ("time_ms", Jsonw.Float time_ms);
         ("repeats", Jsonw.Int !repeat);
         ("warmup", Jsonw.Int !warmup);
         ("speedup_vs_interp", Jsonw.Float speedup);
         ("bitwise_equal", Jsonw.Bool bitwise);
         ("hw_cores", Jsonw.Int hw);
         ("domains_oversubscribed", Jsonw.Bool (domains > hw));
       ])

let vm () =
  cur_experiment := "vm";
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
      (* Measurement design, shaped by two failure modes seen on a
         1-core container:

         - Slow drift (thermal throttling, cgroup contention over a
           long CI run) flipped thin margins by ±10% when baseline and
           candidate were timed back-to-back.  Fix: interleave — each
           round times every config once, medians are taken per config
           across rounds, so drift hits both sides of a ratio equally.
         - Idle OCaml 5 domains join every stop-the-world minor
           collection, so a live multi-domain pool taxes the
           allocation-heavy interpreter baseline (measured 65 → 111 ms
           with six idle workers).  Fix: time the pool-free configs —
           the sequential interpreter and the compiled executor at one
           domain, the pair the check.sh gate compares — before any
           pool exists, then the pooled domain counts, then
           [Domain_pool.reset] so the next workload starts clean.

         The last round's outputs feed the bitwise check, in the
         interpreter's view ([Oracles.value], untimed).  The sequential
         baseline is the reference interpreter ([Interp.run_program]);
         the wavefront rows run the compiled executor through the
         unified front door — prepared once per domain count and
         reused, so the timed loop sees only the steady state. *)
      let repeat = Stdlib.max 1 !repeat in
      let time_rounds execs =
        List.iter
          (fun e ->
            for _ = 1 to !warmup do
              ignore (e () : unit -> Fractal.t option)
            done)
          execs;
        let n = List.length execs in
        let samples = Array.make n [] in
        let outs = Array.make n (fun () -> None) in
        for _round = 1 to repeat do
          List.iteri
            (fun i e ->
              let t0 = Unix.gettimeofday () in
              outs.(i) <- e ();
              samples.(i) <-
                ((Unix.gettimeofday () -. t0) *. 1e3) :: samples.(i))
            execs
        done;
        (Array.map median samples, outs)
      in
      (* each run returns its value in the interpreter's view, projected
         only when asked, outside the timed region *)
      let interp () =
        let v = Interp.run_program program binds in
        fun () -> Some v
      in
      let compiled pr () =
        let outs = Executor.execute pr binds in
        fun () -> Oracles.value program outs
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
         schedule, epilogue fusion and panel packing switched off — the
         pair the check.sh fusion gate compares *)
      let nofuse_pr = prep ~fuse:false 1 in
      let mss, outss =
        time_rounds
          ((interp :: List.map (fun (_, pr) -> compiled pr) single_cfgs)
          @ [ compiled nofuse_pr ])
      in
      let seq_ms = mss.(0) in
      let reference = outss.(0) () in
      Format.printf "  %-34s %10.3f ms@." "interpreter (baseline)" seq_ms;
      record_vm ~workload:wname ~order:"sequential" ~engine:"interp"
        ~domains:1 ~time_ms:seq_ms ~speedup:1.0 ~bitwise:true;
      let report ?(engine = "compiled") d med value =
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
        record_vm ~workload:wname ~order:"wavefront" ~engine ~domains:d
          ~time_ms:med ~speedup ~bitwise
      in
      List.iteri
        (fun i (d, _) -> report d mss.(i + 1) outss.(i + 1))
        single_cfgs;
      let last = List.length single_cfgs + 1 in
      report ~engine:"compiled-nofuse" 1 mss.(last) outss.(last);
      List.iter
        (fun d ->
          let mss, outss = time_rounds [ compiled (prep d) ] in
          report d mss.(0) outss.(0))
        pooled;
      Domain_pool.reset ())
    workloads

(* ------------------------------------------------------------------ *)
(* Kernels: packed vs naive GEMM, fused vs unfused epilogues           *)
(* ------------------------------------------------------------------ *)

(* Wall-clock GFLOP/s of the two kernel-level optimisations the fused
   compiled engine is built on, at the per-cell shapes the workloads
   actually run.  Each timed sample executes the kernel [iters] times
   so that tiny shapes (an LSTM gate GEMM is 73 Kflop) rise above
   clock granularity; rounds interleave baseline and candidate so
   machine drift hits both sides of every ratio equally.  Every pair
   is also checked bitwise — a kernel variant that wins by changing
   results is a bug, not a speedup. *)

let record_kernel ~shape ~kernel ~variant ~iters ~time_ms ~gflops ~speedup
    ~bitwise =
  push_record
    (Jsonw.Obj
       [
         ("experiment", Jsonw.String "kernels");
         ("shape", Jsonw.String shape);
         ("kernel", Jsonw.String kernel);
         ("variant", Jsonw.String variant);
         ("iters", Jsonw.Int iters);
         ("time_ms", Jsonw.Float time_ms);
         ("gflops", Jsonw.Float gflops);
         ("repeats", Jsonw.Int !repeat);
         ("warmup", Jsonw.Int !warmup);
         ("speedup_vs_baseline", Jsonw.Float speedup);
         ("bitwise_equal", Jsonw.Bool bitwise);
       ])

let kernels () =
  cur_experiment := "kernels";
  section "Kernels: packed GEMM + fused epilogues (wall clock, GFLOP/s)";
  let rng = Rng.create 17 in
  let shapes =
    [
      ("LSTM gate (4x96 @ 96x96)", 4, 96, 96);
      ("RNN cell (256x256 @ 256x256)", 256, 256, 256);
      ("FFN block (256x512 @ 512x512)", 256, 512, 512);
      ("b2b GEMM (8192x64 @ 64x64)", 8192, 64, 64);
    ]
  in
  let repeat = Stdlib.max 1 !repeat in
  Format.printf "median of %d rounds, %d warmup@." repeat !warmup;
  print_row "kernel / shape"
    [ "baseline"; "candidate"; "speedup"; "bitwise" ];
  let bench ~shape ~kernel ~flops ~check base cand =
    (* one timed sample = [iters] kernel executions, >= ~2 ms each *)
    let iters =
      Stdlib.max 1 (int_of_float (2e6 /. Stdlib.max 1.0 flops))
    in
    let run f =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        f ()
      done;
      (Unix.gettimeofday () -. t0) *. 1e3
    in
    for _ = 1 to !warmup do
      ignore (run base);
      ignore (run cand)
    done;
    let sb = ref [] and sc = ref [] in
    for _round = 1 to repeat do
      sb := run base :: !sb;
      sc := run cand :: !sc
    done;
    let mb = median !sb and mc = median !sc in
    let gf ms = flops *. float_of_int iters /. (ms *. 1e6) in
    let bitwise = check () in
    let speedup = mb /. mc in
    print_row
      (Printf.sprintf "%s %s" kernel shape)
      [
        Printf.sprintf "%.2f GF/s" (gf mb);
        Printf.sprintf "%.2f GF/s" (gf mc);
        Printf.sprintf "%.2fx" speedup;
        (if bitwise then "equal" else "DIFFER");
      ];
    let rec_v variant ms other =
      record_kernel ~shape ~kernel ~variant ~iters ~time_ms:ms
        ~gflops:(gf ms) ~speedup:other ~bitwise
    in
    rec_v "baseline" mb 1.0;
    rec_v "candidate" mc speedup
  in
  List.iter
    (fun (shape, m, k, n) ->
      let a = Tensor.rand rng (Shape.of_array [| m; k |]) in
      let b = Tensor.rand rng (Shape.of_array [| k; n |]) in
      let bias = Tensor.rand rng (Shape.of_array [| 1; n |]) in
      let d1 = Tensor.zeros (Shape.of_array [| m; n |]) in
      let d2 = Tensor.zeros (Shape.of_array [| m; n |]) in
      let flops = 2.0 *. float_of_int (m * k * n) in
      (* packed vs naive GEMM: pack once outside the timed region —
         that is the reuse the fused engine gets across a front *)
      let pb = Tensor.pack_b b in
      bench ~shape ~kernel:"gemm-packed" ~flops
        ~check:(fun () ->
          Tensor.matmul_into ~beta:0.0 ~dst:d1 a b;
          Tensor.matmul_packed_into ~beta:0.0 ~dst:d2 a pb;
          Tensor.data d1 = Tensor.data d2)
        (fun () -> Tensor.matmul_into ~beta:0.0 ~dst:d1 a b)
        (fun () -> Tensor.matmul_packed_into ~beta:0.0 ~dst:d2 a pb);
      (* fused epilogue vs the three-kernel chain it replaces *)
      let ep = Tensor.epilogue ~bias ~act:Tensor.Utanh () in
      let chain () =
        Tensor.matmul_into ~beta:0.0 ~dst:d1 a b;
        Tensor.binop_into Tensor.Badd d1 bias ~dst:d1;
        Tensor.unop_into Tensor.Utanh d1 ~dst:d1
      in
      let fused () =
        Tensor.matmul_packed_into ~beta:0.0 ~epilogue:ep ~dst:d2 a pb
      in
      bench ~shape ~kernel:"gemm-bias-tanh" ~flops
        ~check:(fun () ->
          chain ();
          fused ();
          Tensor.data d1 = Tensor.data d2)
        chain fused)
    shapes

(* ------------------------------------------------------------------ *)
(* Tuned: default vs auto-tuned configuration per workload             *)
(* ------------------------------------------------------------------ *)

(* One search per workload — analytical oracle, fixed seed, fixed
   budget — then both configs through the full simulator.  Everything
   here is deterministic: rerunning the experiment reproduces the
   exact trajectory and winner. *)
let tuned () =
  cur_experiment := "tuned";
  section "Tuned: default vs auto-tuned configs (analytical oracle, greedy, seed 2024)";
  let budget = 32 and seed = 2024 in
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
  Format.printf "budget %d evaluations per workload, seed %d@.@." budget seed;
  print_row "workload"
    [ "default"; "tuned"; "speedup"; "sim default"; "sim tuned" ];
  List.iter
    (fun (fig, title, p) ->
      let rep =
        Tuner.tune_program ~seed ~strategy:Search.Greedy ~budget ~oracle:Tuner.Sim p
      in
      let res = rep.Tuner.rp_result in
      let dflt = res.Search.r_default.Search.e_cost in
      let best = res.Search.r_best.Search.e_cost in
      let cfg = res.Search.r_best.Search.e_candidate in
      let sim_default = Executor.time_ms (Pipeline.plan p) in
      let sim_tuned =
        Executor.time_ms
          (Pipeline.plan ~collapse_reuse:cfg.Knobs.c_collapse
             ~tile:cfg.Knobs.c_tile p)
      in
      print_row title
        [
          Printf.sprintf "%.1f us" dflt;
          Printf.sprintf "%.1f us" best;
          Printf.sprintf "%.2fx" (if best > 0. then dflt /. best else 1.);
          ms sim_default;
          ms sim_tuned;
        ];
      Format.printf "    config: %s@." (Knobs.to_string cfg);
      push_record
        (Jsonw.Obj
           [
             ("experiment", Jsonw.String "tuned");
             ("figure", Jsonw.String fig);
             ("workload", Jsonw.String title);
             ("strategy", Jsonw.String (Search.strategy_name res.Search.r_strategy));
             ("oracle", Jsonw.String "sim");
             ("budget", Jsonw.Int budget);
             ("seed", Jsonw.Int seed);
             ("evaluations", Jsonw.Int (List.length res.Search.r_evals));
             ("default_cost_us", Jsonw.Float dflt);
             ("tuned_cost_us", Jsonw.Float best);
             ( "speedup",
               Jsonw.Float (if best > 0. then dflt /. best else 1.) );
             ("config", Jsonw.String (Knobs.to_string cfg));
             ("sim_default_ms", Jsonw.Float sim_default);
             ("sim_tuned_ms", Jsonw.Float sim_tuned);
           ]))
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
(* Dist: sharded execution across simulated devices                    *)
(* ------------------------------------------------------------------ *)

(* Each row is one sharded configuration: the graph auto-partitioned
   across N simulated devices, executed functionally on N real OCaml
   domains and bitwise-checked against the single-device compiled
   engine, and the same event log priced on the interconnect model.
   The curve and the checked values come from one run, not two
   stories.  Rows where the transfers dominate are honest about losing:
   speedup_vs_1dev < 1 (simulated).  wall_ms is measured: the median of
   warm Dist.run calls on the prepared entry, next to compiled_1dev_ms,
   the same graph on the 1-device compiled engine, timed the same way. *)

let device_counts = ref [ 1; 2; 4; 8 ]

let record_dist ~workload ~devices ~strategy ~sim_ms ~sim_1dev_ms ~xfers
    ~device_xfers ~xfer_gb ~wall_ms ~compiled_1dev_ms ~bitwise =
  push_record
    (Jsonw.Obj
       [
         ("experiment", Jsonw.String "dist");
         ("workload", Jsonw.String workload);
         ("devices", Jsonw.Int devices);
         ("strategy", Jsonw.String strategy);
         ("link", Jsonw.String "nvlink");
         ("sim_time_ms", Jsonw.Float sim_ms);
         ("speedup_vs_1dev", Jsonw.Float (sim_1dev_ms /. sim_ms));
         ("transfers", Jsonw.Int xfers);
         ("device_transfers", Jsonw.Int device_xfers);
         ("transfer_gb", Jsonw.Float xfer_gb);
         ("wall_ms", Jsonw.Float wall_ms);
         ("compiled_1dev_ms", Jsonw.Float compiled_1dev_ms);
         ("repeats", Jsonw.Int !repeat);
         ("warmup", Jsonw.Int !warmup);
         ("statistic", Jsonw.String "median");
         ("hw_cores", Jsonw.Int (Stdlib.Domain.recommended_domain_count ()));
         ( "source",
           Jsonw.Obj
             [
               ("sim_time_ms", Jsonw.String "simulated");
               ("speedup_vs_1dev", Jsonw.String "simulated");
               ("wall_ms", Jsonw.String "measured");
               ("compiled_1dev_ms", Jsonw.String "measured");
             ] );
         ("bitwise_equal", Jsonw.Bool bitwise);
       ])

(* Median wall time in ms of [!repeat] calls after [!warmup] untimed
   ones. *)
let warm_median_ms f =
  for _ = 1 to !warmup do
    ignore (f ())
  done;
  median
    (List.init (Stdlib.max 1 !repeat) (fun _ ->
         let t0 = Unix.gettimeofday () in
         ignore (f ());
         (Unix.gettimeofday () -. t0) *. 1e3))

let dist () =
  cur_experiment := "dist";
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
     make sure it exists even under a custom --devices list *)
  let counts =
    if List.mem 1 !device_counts then !device_counts
    else 1 :: !device_counts
  in
  Format.printf
    "sim: simulated A100s on NVLink (model output); wall: measured median \
     of %d warm Dist.run calls after %d warm-up, %d hardware core(s)@."
    (Stdlib.max 1 !repeat) !warmup
    (Stdlib.Domain.recommended_domain_count ());
  List.iter
    (fun (wname, mk) ->
      let g, binds = mk (Rng.create 23) in
      Format.printf "@.%s@." wname;
      let compiled_1dev_ms =
        let pr =
          Executor.prepare
            ~opts:{ Run_opts.default with Run_opts.domains = Some 1 }
            g
        in
        warm_median_ms (fun () -> Executor.execute pr binds)
      in
      Format.printf "  1-device compiled engine: wall %9.3f ms@."
        compiled_1dev_ms;
      let sim_1dev = ref nan in
      List.iter
        (fun n ->
          (* the cold call prepares the entry and is checked bitwise;
             the timed calls reuse it *)
          let rp, bitwise = Dist.differential ~devices:n g binds in
          let wall_ms = warm_median_ms (fun () -> Dist.run ~devices:n g binds) in
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
          record_dist ~workload:wname ~devices:n ~strategy:rp.Dist.rp_strategy
            ~sim_ms ~sim_1dev_ms:!sim_1dev ~xfers:rp.Dist.rp_xfers
            ~device_xfers:rp.Dist.rp_device_xfers
            ~xfer_gb:rp.Dist.rp_xfer_gb ~wall_ms ~compiled_1dev_ms ~bitwise)
        counts;
      Domain_pool.reset ())
    workloads

(* ------------------------------------------------------------------ *)

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
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | "--repeat" :: v :: rest ->
        int_flag "--repeat" v (fun n -> repeat := n) rest parse
    | "--warmup" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 0 ->
            warmup := n;
            parse rest
        | _ ->
            prerr_endline "--warmup requires a non-negative integer";
            exit 1)
    | "--domains" :: v :: rest -> (
        let parts = String.split_on_char ',' v in
        match
          List.map
            (fun s ->
              match int_of_string_opt (String.trim s) with
              | Some n when n > 0 -> n
              | _ -> raise Exit)
            parts
        with
        | ds when ds <> [] ->
            domain_counts := ds;
            parse rest
        | _ | (exception Exit) ->
            prerr_endline "--domains requires a comma-separated list of positive integers";
            exit 1)
    | "--devices" :: v :: rest -> (
        let parts = String.split_on_char ',' v in
        match
          List.map
            (fun s ->
              match int_of_string_opt (String.trim s) with
              | Some n when n > 0 -> n
              | _ -> raise Exit)
            parts
        with
        | ds when ds <> [] ->
            device_counts := ds;
            parse rest
        | _ | (exception Exit) ->
            prerr_endline "--devices requires a comma-separated list of positive integers";
            exit 1)
    | ("--json" | "--repeat" | "--warmup" | "--domains" | "--devices") :: [] ->
        prerr_endline "flag requires an argument";
        exit 1
    | arg :: rest ->
        which := arg;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  Format.printf
    "FractalTensor reproduction benchmarks (simulated %s)@."
    Device.a100.Device.name;
  (match !which with
  | "fig2" -> fig2 ()
  | "fig7" -> fig7 ()
  | "fig8" -> fig8 ()
  | "table7" -> table7 ()
  | "ablation" -> ablation ()
  | "devices" -> devices ()
  | "vm" -> vm ()
  | "kernels" -> kernels ()
  | "tuned" -> tuned ()
  | "dist" -> dist ()
  | "micro" -> micro ()
  | "all" ->
      fig2 ();
      fig7 ();
      fig8 ();
      table7 ();
      ablation ();
      devices ();
      vm ();
      kernels ();
      tuned ();
      dist ();
      micro ()
  | other ->
      Format.printf "unknown experiment %s (fig2|fig7|fig8|table7|ablation|devices|vm|kernels|tuned|dist|micro|all)@." other;
      exit 1);
  (match !json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Jsonw.to_string (Jsonw.List (List.rev !records)));
      output_char oc '\n';
      close_out oc;
      Format.printf "wrote %d records to %s@." (List.length !records) path);
  Format.printf "@."
