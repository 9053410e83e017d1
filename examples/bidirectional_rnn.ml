(* Bidirectional RNN from the library combinators.

     dune exec examples/bidirectional_rnn.exe

   A model the paper does not evaluate but that its operator set covers
   directly: a forward scanl, a backward scanr, and an elementwise
   combination.  Built here straight from the Soac/Access combinators
   and checked against an imperative reference — showing the public API
   works for new models without touching the compiler. *)

let () =
  let rng = Rng.create 123 in
  let batch = 3 and len = 7 and hidden = 8 in
  let token = Shape.of_array [| 1; hidden |] in
  let weight = Shape.of_array [| hidden; hidden |] in
  let scale = Tensor.scale (0.5 /. float_of_int hidden) in
  let wf = scale (Tensor.rand rng weight) and uf = scale (Tensor.rand rng weight) in
  let wb = scale (Tensor.rand rng weight) and ub = scale (Tensor.rand rng weight) in
  let xss = Fractal.rand rng ~dims:[ batch; len ] ~elem:token in

  let cell w u h x =
    Fractal.Leaf
      (Tensor.tanh
         (Tensor.add
            (Tensor.matmul (Fractal.as_leaf x) w)
            (Tensor.matmul (Fractal.as_leaf h) u)))
  in
  let zero = Fractal.Leaf (Tensor.zeros token) in

  (* forward and backward passes as scans; fusion by zip + map *)
  let bidir xs =
    let fwd = Soac.scanl ~init:zero (cell wf uf) xs in
    let bwd = Soac.scanr ~init:zero (cell wb ub) xs in
    Soac.map2
      (fun f b ->
        Fractal.Leaf (Tensor.add (Fractal.as_leaf f) (Fractal.as_leaf b)))
      fwd bwd
  in
  let out = Soac.map bidir xss in

  (* imperative reference *)
  let reference =
    Soac.map
      (fun xs ->
        let n = Fractal.length xs in
        let f = Array.make n (Tensor.zeros token) in
        let b = Array.make n (Tensor.zeros token) in
        for l = 0 to n - 1 do
          let h = if l = 0 then Tensor.zeros token else f.(l - 1) in
          f.(l) <-
            Tensor.tanh
              (Tensor.add
                 (Tensor.matmul (Fractal.as_leaf (Fractal.get xs l)) wf)
                 (Tensor.matmul h uf))
        done;
        for l = n - 1 downto 0 do
          let h = if l = n - 1 then Tensor.zeros token else b.(l + 1) in
          b.(l) <-
            Tensor.tanh
              (Tensor.add
                 (Tensor.matmul (Fractal.as_leaf (Fractal.get xs l)) wb)
                 (Tensor.matmul h ub))
        done;
        Fractal.tabulate n (fun l -> Fractal.Leaf (Tensor.add f.(l) b.(l))))
      xss
  in
  Format.printf "bidirectional RNN matches the reference: %b@."
    (Fractal.equal_approx out reference);

  (* the forward and backward scans cannot merge into one dimension:
     Table 3 marks scanl x scanr as a composition conflict *)
  Format.printf "scanl . scanr composition (Table 3): %s@."
    (match Coarsen.compose_ops Expr.Scanl Expr.Scanr with
    | None -> "conflict, kept as separate block nodes"
    | Some op -> Expr.soac_kind_name op)

(* The same model as a compiled program: the forward scanl and the
   backward scanr become separate block nodes (their dimensions cannot
   merge — Table 3 marks scanl x scanr as a conflict) and the compiler
   schedules one left-to-right and the other right-to-left.  The
   functional executor must still reproduce the combinator semantics. *)
let () =
  let batch = 3 and len = 7 and hidden = 8 in
  let token = Shape.of_array [| 1; hidden |] in
  let weight = Shape.of_array [| hidden; hidden |] in
  let open Expr in
  let cell w u = Tanh @@@ [ Add @@@ [ Matmul @@@ [ Var "x"; Var w ]; Matmul @@@ [ Var "h"; Var u ] ] ] in
  let program =
    {
      name = "bidirectional";
      inputs =
        [
          ("xss", List_ty (batch, List_ty (len, Tensor_ty token)));
          ("wf", Tensor_ty weight); ("uf", Tensor_ty weight);
          ("wb", Tensor_ty weight); ("ub", Tensor_ty weight);
        ];
      body =
        map_e ~params:[ "xs" ]
          ~body:
            (Let
               ( "fwd",
                 scanl_e ~init:(Lit (Tensor.zeros token))
                   ~params:[ "h"; "x" ] ~body:(cell "wf" "uf") (Var "xs"),
                 Let
                   ( "bwd",
                     scanr_e ~init:(Lit (Tensor.zeros token))
                       ~params:[ "h"; "x" ] ~body:(cell "wb" "ub") (Var "xs"),
                     map_e ~params:[ "f"; "b" ]
                       ~body:(Add @@@ [ Var "f"; Var "b" ])
                       (Zip [ Var "fwd"; Var "bwd" ]) ) ))
          (Var "xss");
    }
  in
  let rng = Rng.create 123 in
  let scale t = Tensor.scale (0.5 /. float_of_int hidden) t in
  let inputs =
    [
      ("xss", Fractal.rand rng ~dims:[ batch; len ] ~elem:token);
      ("wf", Fractal.Leaf (scale (Tensor.rand rng weight)));
      ("uf", Fractal.Leaf (scale (Tensor.rand rng weight)));
      ("wb", Fractal.Leaf (scale (Tensor.rand rng weight)));
      ("ub", Fractal.Leaf (scale (Tensor.rand rng weight)));
    ]
  in
  let interp = Interp.run_program program inputs in
  let g = Build.build program in
  let outs = Executor.run g inputs in
  Format.printf
    "compiled bidirectional program: %d block nodes; compiled = \
     interpreter: %b@."
    (List.length g.Ir.g_blocks)
    (Fractal.equal_approx (List.assoc "bidirectional" outs) interp)
