(* FlashAttention as a FractalTensor program (paper Listing 3).

     dune exec examples/attention.exe

   FlashAttention is a parallel algorithm for attention over blocked
   data: a reduce over key/value blocks carries the online-softmax
   state (m, s, o).  Expressed with a nested map/reduce, the compiler
   recovers the handcrafted kernel's schedule: the accumulator lives in
   registers, score tiles never materialise, and HBM traffic is the
   compulsory Q+K+V+O. *)

let () =
  (* correctness at a small size against the quadratic reference *)
  let cfg = Flash_attention.default in
  let rng = Rng.create 42 in
  let inputs = Flash_attention.gen_inputs rng cfg in
  let program = Flash_attention.program cfg in
  let out = Interp.run_program program (Flash_attention.bindings inputs) in
  Format.printf "online softmax == exact attention: %b@."
    (Fractal.equal_approx out (Flash_attention.reference cfg inputs));

  (* performance at the paper's scale against the baselines *)
  let cfg = Flash_attention.paper in
  Format.printf
    "@.shape: batch %d, heads %d, %d query rows, %d kv rows, head dim %d@."
    cfg.batch cfg.heads
    (cfg.q_blocks * cfg.block)
    (cfg.kv_blocks * cfg.block)
    cfg.head_dim;
  Format.printf "%-18s %10s %10s %10s %10s@." "system" "time(ms)" "DRAM(GB)"
    "L1(GB)" "L2(GB)";
  List.iter
    (fun (p : Plan.t) ->
      let m = Executor.metrics p in
      Format.printf "%-18s %10.3f %10.2f %10.2f %10.2f@." p.Plan.plan_name
        m.Engine.time_ms m.Engine.dram_gb m.Engine.l1_gb m.Engine.l2_gb)
    (Suites.flash_attention cfg);
  Format.printf
    "@.the compiled schedule keeps the (m, s, o) accumulator in registers;@.";
  Format.printf
    "CUTLASS materialises score tiles in shared memory — its L1 traffic@.";
  Format.printf "carries the full score matrix several times (paper Table 7).@."
