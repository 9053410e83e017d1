(* Quickstart: the FractalTensor programming model in five minutes.

     dune exec examples/quickstart.exe

   1. FractalTensors are nested lists of statically-shaped tensors.
   2. You iterate them only through compute operators (map/reduce/
      fold/scan) and access operators (slice/window/zip/...).
   3. A program written against the Expr frontend can be type-checked,
      interpreted, compiled to an ETDG and scheduled. *)

let () =
  let rng = Rng.create 7 in

  (* --- 1. values ------------------------------------------------- *)
  (* a "sentence batch": 4 sentences x 6 tokens, each token a [1,8] row *)
  let token = Shape.of_array [| 1; 8 |] in
  let xss = Fractal.rand rng ~dims:[ 4; 6 ] ~elem:token in
  Format.printf "xss: depth %d, extents [%s], %d scalars@."
    (Fractal.depth xss)
    (String.concat ";" (List.map string_of_int (Fractal.extents xss)))
    (Fractal.numel xss);

  (* --- 2. direct combinators ------------------------------------ *)
  (* prefix-sum every sentence: map over the batch, scan over tokens *)
  let add a b = Fractal.Leaf (Tensor.add (Fractal.as_leaf a) (Fractal.as_leaf b)) in
  let sums =
    Soac.map
      (fun xs -> Soac.scanl ~init:(Fractal.Leaf (Tensor.zeros token)) add xs)
      xss
  in
  Format.printf "prefix sums computed: %b@." (Fractal.depth sums = 2);

  (* sliding windows of 3 tokens (the access operators never compute) *)
  let windows = Soac.map (fun xs -> Access.window xs ~size:3 ()) xss in
  Format.printf "windows per sentence: %d@."
    (Fractal.length (Fractal.get windows 0));

  (* --- 3. a compiled program ------------------------------------ *)
  (* the paper's running example: a 3-layer stacked RNN (Listing 1) *)
  let cfg = { Stacked_rnn.batch = 4; depth = 3; seq_len = 6; hidden = 8 } in
  let program = Stacked_rnn.program cfg in
  Format.printf "@.program type: %s@."
    (Expr.ty_to_string (Typecheck.check_program program));

  let inputs = Stacked_rnn.gen_inputs rng cfg in
  let out = Interp.run_program program (Stacked_rnn.bindings inputs) in
  let reference = Stacked_rnn.reference cfg inputs in
  Format.printf "interpreter matches the imperative reference: %b@."
    (Fractal.equal_approx out reference);

  (* extract the ETDG and compile it to an execution plan *)
  let graph = Build.build program in
  Format.printf "ETDG: %d block nodes, depth %d, dimension %d@."
    (List.length graph.Ir.g_blocks)
    (Ir.depth graph) (Ir.dimension graph);

  let plan = Pipeline.plan_of_graph graph in
  let report = Executor.simulate plan in
  Format.printf "simulated on %s: %a@." Device.a100.Device.name
    Engine.pp_metrics report.Exec.r_metrics
