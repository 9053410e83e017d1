exception Unsupported of string

let unsup fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

let normalize_col n i = if i < 0 then n + i else i

(* Every kernel below mirrors the interpreter's primitive evaluation
   exactly — same Tensor loops, same order — through the
   opcode-dispatch [_into] variants, so a compiled run is bitwise
   identical to the interpreter while allocating nothing per point.
   Work before the factory's [()] is shared by every worker; a kernel
   that keeps no scratch is one closure for all of them, and one that
   does takes it from {!Tensor.uninit_exclusive}, so two workers'
   scratch never shares a cache line.  A kernel [fun args o dst] reads
   its [nargs] operands at [args.(o) .. args.(o + nargs - 1)]: the
   engine keeps every operand of a block in one array per worker. *)
let kernel ?epilogue ?fixed_b (p : Expr.prim) ~operand_shapes ~result_shape =
  ignore result_shape;
  let nargs = List.length operand_shapes in
  let expect n =
    if nargs <> n then
      unsup "%s: expected %d operand(s), lowering saw %d" (Expr.prim_name p) n
        nargs
  in
  let shared k () = k in
  let binop op =
    expect 2;
    shared (fun (args : Tensor.t array) o dst ->
        Tensor.binop_into op args.(o) args.(o + 1) ~dst)
  in
  let unop op =
    expect 1;
    shared (fun (args : Tensor.t array) o dst ->
        Tensor.unop_into op args.(o) ~dst)
  in
  match p with
  | Expr.Matmul ->
      expect 2;
      shared (fun (args : Tensor.t array) o dst ->
          Tensor.matmul_into ~beta:0.0 ?epilogue ~dst args.(o) args.(o + 1))
  | Expr.Matmul_t -> (
      expect 2;
      (* The interpreter materialises bᵀ and runs the plain k-blocked
         GEMM (Interp: [matmul a (transpose b)]).  The fused
         [~transpose_b:true] path would change the accumulation order
         and the zero-skip behaviour, so bᵀ is materialised here too:
         once, for a block constant, else per call into a per-worker
         scratch. *)
      let b_shape = List.nth operand_shapes 1 in
      if Shape.rank b_shape <> 2 then
        unsup "matmul_t: operand b has rank %d" (Shape.rank b_shape);
      match fixed_b with
      | Some b ->
          let bt = Tensor.transpose b in
          shared (fun (args : Tensor.t array) o dst ->
              Tensor.matmul_into ~beta:0.0 ?epilogue ~dst args.(o) bt)
      | None ->
          let bt_shape =
            Shape.of_array [| Shape.dim b_shape 1; Shape.dim b_shape 0 |]
          in
          fun () ->
            let bt = Tensor.uninit_exclusive bt_shape in
            fun (args : Tensor.t array) o dst ->
              Tensor.transpose_into args.(o + 1) ~dst:bt;
              Tensor.matmul_into ~beta:0.0 ?epilogue ~dst args.(o) bt)
  | Expr.Add -> binop Tensor.Badd
  | Expr.Sub -> binop Tensor.Bsub
  | Expr.Mul -> binop Tensor.Bmul
  | Expr.Div -> binop Tensor.Bdiv
  | Expr.Maximum -> binop Tensor.Bmax
  | Expr.Tanh -> unop Tensor.Utanh
  | Expr.Sigmoid -> unop Tensor.Usigmoid
  | Expr.Exp -> unop Tensor.Uexp
  | Expr.Neg -> unop Tensor.Uneg
  | Expr.Relu -> unop Tensor.Urelu
  | Expr.Scale k -> unop (Tensor.Uscale k)
  | Expr.Softmax ->
      expect 1;
      shared (fun args o dst -> Tensor.softmax_into args.(o) ~dst)
  | Expr.Row_max ->
      expect 1;
      shared (fun args o dst -> Tensor.row_max_into args.(o) ~dst)
  | Expr.Row_sum ->
      expect 1;
      shared (fun args o dst -> Tensor.row_sum_into args.(o) ~dst)
  | Expr.Transpose ->
      expect 1;
      shared (fun args o dst -> Tensor.transpose_into args.(o) ~dst)
  | Expr.Cols (lo, hi) ->
      expect 1;
      let a_shape = List.hd operand_shapes in
      if Shape.rank a_shape <> 2 then
        unsup "cols: operand has rank %d" (Shape.rank a_shape);
      let n = Shape.dim a_shape 1 in
      let lo = normalize_col n lo and hi = normalize_col n hi in
      if lo < 0 || hi > n || lo >= hi then
        unsup "cols: [%d,%d) out of %d columns" lo hi n;
      shared (fun args o dst -> Tensor.slice_cols_into args.(o) lo hi ~dst)
  | Expr.Concat_cols ->
      if nargs = 0 then unsup "concat_cols: no operands";
      shared (fun args o dst ->
          Tensor.concat_cols_into args ~pos:o ~n:nargs ~dst)
