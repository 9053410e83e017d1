(* BigBird blocked sparse attention (paper Listing 4).

     dune exec examples/sparse_attention.exe

   The windowed attention component reads overlapping neighbourhoods of
   key/value blocks.  A DAG framework must gather those neighbourhoods
   into dense tensors first — pure data movement.  FractalTensor keeps
   the window as an access-map annotation and defers materialisation to
   the GEMM tile loader, so each block travels once. *)

let () =
  let cfg = Bigbird.default in
  let rng = Rng.create 9 in
  let inputs = Bigbird.gen_inputs rng cfg in
  let out = Interp.run_program (Bigbird.program cfg) (Bigbird.bindings inputs) in
  Format.printf "blocked sparse attention matches the direct computation: %b@."
    (Fractal.equal_approx out (Bigbird.reference cfg inputs));

  let cfg = Bigbird.paper in
  Format.printf
    "@.shape: batch %d, %d blocks of %d rows, dim %d, window %d (+2 global)@."
    cfg.batch cfg.blocks cfg.block cfg.dim cfg.window;
  Format.printf "%-18s %10s %10s %10s %10s@." "system" "time(ms)" "DRAM(GB)"
    "L1(GB)" "L2(GB)";
  List.iter
    (fun (p : Plan.t) ->
      let m = Executor.metrics p in
      Format.printf "%-18s %10.3f %10.2f %10.2f %10.2f@." p.Plan.plan_name
        m.Engine.time_ms m.Engine.dram_gb m.Engine.l1_gb m.Engine.l2_gb)
    (Suites.bigbird cfg);

  (* where FractalTensor's saving comes from: the parsed ETDG reads the
     key buffer through three offset-shifted copies of one access
     matrix — deferred materialisation fetches the union once *)
  let g = Build.build (Bigbird.program cfg) in
  let wqk =
    List.find (fun b -> b.Ir.blk_name = "wqk.region0") g.Ir.g_blocks
  in
  Format.printf "@.window reads of the key buffer (one per member):@.";
  List.iter
    (fun e ->
      if e.Ir.e_dir = Ir.Read && (Ir.buffer g e.Ir.e_buffer).Ir.buf_name = "kss"
      then Format.printf "%a@." Access_map.pp e.Ir.e_access)
    wqk.Ir.blk_edges
