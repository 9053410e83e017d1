(* Compiler tour: the paper's running example, end to end.

     dune exec examples/compiler_tour.exe

   Walks Listing 1 (stacked RNN) through every stage the paper
   illustrates: parsing into regions (Fig 4), operation-node lowering
   (Fig 5), dependence analysis (Table 4), the reordering transform
   (Fig 6), the transformed access maps (Table 5), and finally the
   emitted wavefront plan on the simulated A100. *)

let hr title = Format.printf "@.--- %s ---@." title

let () =
  let cfg = Stacked_rnn.default in
  let program = Stacked_rnn.program cfg in
  Format.printf "Listing 1, N=%d D=%d L=%d H=%d@." cfg.batch cfg.depth
    cfg.seq_len cfg.hidden;

  hr "parsed ETDG (Fig 4: four regions over the ysss buffer)";
  let g = Build.build program in
  Format.printf "%a" Ir.pp g;
  (match Ir.validate g with
  | Ok () -> Format.printf "invariants: ok@."
  | Error es -> List.iter (Format.printf "invariant violated: %s@.") es);

  hr "after operation-node lowering (Fig 5)";
  let lowered =
    match
      Pipeline.stage_graph
        (Pipeline.compile ~verify:false ~stages:[ Pipeline.Lower ] program)
        Pipeline.Lower
    with
    | Some g -> g
    | None -> assert false
  in
  Format.printf "depth %d -> %d, dimension %d -> %d@." (Ir.depth g)
    (Ir.depth lowered) (Ir.dimension g) (Ir.dimension lowered);
  let r3 =
    List.find
      (fun b -> b.Ir.blk_name = "stacked_rnn.region3")
      lowered.Ir.g_blocks
  in
  Format.printf "region3: p = [%s], %d contraction child@."
    (String.concat ","
       (Array.to_list (Array.map Expr.soac_kind_name r3.Ir.blk_ops)))
    (List.length r3.Ir.blk_children);

  hr "dependence distance vectors (Table 4)";
  List.iter
    (fun dv ->
      Format.printf "  [%s]@."
        (String.concat ";" (Array.to_list (Array.map string_of_int dv))))
    (Dependence.block_distance_vectors r3);

  hr "reordering transformation (Fig 6)";
  let r = Reorder.apply r3 in
  Format.printf "%a" Linalg.pp_mat r.Reorder.transform;
  Format.printf "dependence dims: %s; reuse dims: %s; wavefront steps: %d@."
    (String.concat "," (List.map string_of_int r.Reorder.dep_dims))
    (String.concat "," (List.map string_of_int r.Reorder.reuse_dims))
    (Reorder.sequential_steps r);

  hr "transformed access maps (Table 5)";
  List.iter
    (fun e ->
      Format.printf "%s (%s):@.%a@."
        (match e.Ir.e_dir with Ir.Read -> "read" | Ir.Write -> "write")
        e.Ir.e_label Access_map.pp e.Ir.e_access)
    r.Reorder.block.Ir.blk_edges;

  hr "schedule legality: the wavefront order computes the same values";
  let rng = Rng.create 11 in
  let inputs = Stacked_rnn.gen_inputs rng cfg in
  Format.printf "wavefront = reference: %b@."
    (Fractal.equal_approx
       (Stacked_rnn.wavefront cfg inputs)
       (Stacked_rnn.reference cfg inputs));

  hr "emitted plan on the simulated A100";
  let plan = Pipeline.plan_of_graph g in
  Format.printf "%d kernels (one persistent chain of %d wavefront steps)@."
    (Plan.total_kernels plan)
    (cfg.depth + cfg.seq_len - 1);
  Format.printf "%a@." Engine.pp_metrics (Executor.metrics plan)
