let rows t = Shape.dim (Tensor.shape t) 0
let cols t = Shape.dim (Tensor.shape t) 1

(* dst <- x@w + h@u + b, accumulated in place: the only allocations a
   cell step makes are the tensors it returns. [b] may be a [1,n] row
   vector against an [m,n] pre-activation. *)
let preact_into ~dst ~x ~w ~h ~u ~b =
  Tensor.matmul_into ~beta:0.0 ~dst x w;
  Tensor.matmul_into ~beta:1.0 ~dst h u;
  Tensor.add_into dst b ~dst

(* dst <- act (x@w + h@u + b): the bias add and the activation run as
   one fused pass over dst (the GEMM-epilogue path) instead of two.
   Bitwise-identical to [preact_into] + [unop_into]: the fused pass
   computes the same per-element value chain, and elementwise passes
   have no cross-element dependence. *)
let preact_act_into ~dst ~x ~w ~h ~u ~b ~act =
  Tensor.matmul_into ~beta:0.0 ~dst x w;
  Tensor.matmul_into ~beta:1.0 ~dst h u;
  Tensor.add_bias_act_into ~bias:b ~act ~dst

let gemm ?(alpha = 1.0) ?(beta = 1.0) ~c a b =
  if
    Shape.rank (Tensor.shape c) = 2
    && rows c = rows a
    && cols c = cols b
  then begin
    (* out starts as beta*c, then accumulates alpha*a@b — one
       allocation for the whole kernel. *)
    let out =
      if beta = 0.0 then Tensor.zeros (Tensor.shape c)
      else if beta = 1.0 then Tensor.copy c
      else Tensor.scale beta c
    in
    Tensor.matmul_into ~alpha ~beta:1.0 ~dst:out a b;
    out
  end
  else begin
    (* c broadcasts against a@b (scalar / row / column): fall back to
       the pure composition. *)
    let ab = Tensor.matmul a b in
    let scaled = if alpha = 1.0 then ab else Tensor.scale alpha ab in
    if beta = 0.0 then scaled else Tensor.add scaled (Tensor.scale beta c)
  end

let linear x w b =
  let out = Tensor.uninit (Shape.of_array [| rows x; cols w |]) in
  Tensor.matmul_into ~beta:0.0 ~dst:out x w;
  Tensor.add_into out b ~dst:out;
  out

let rnn_cell ~x ~h ~w ~u ~b =
  let out = Tensor.uninit (Shape.of_array [| rows x; cols w |]) in
  preact_into ~dst:out ~x ~w ~h ~u ~b;
  Tensor.tanh_inplace out;
  out

let check_gates name ws us bs =
  if Array.length ws <> 4 || Array.length us <> 4 || Array.length bs <> 4 then
    invalid_arg (name ^ ": expected 4 weight sets")

let lstm_gates ~x ~h ~ws ~us ~bs =
  check_gates "Kernels.lstm_gates" ws us bs;
  Array.init 4 (fun g ->
      let pre = Tensor.uninit (Shape.of_array [| rows x; cols ws.(g) |]) in
      preact_into ~dst:pre ~x ~w:ws.(g) ~h ~u:us.(g) ~b:bs.(g);
      pre)

(* Gate order i, f, o, c~.  Every gate computes through the fused
   GEMM-epilogue path (bias + activation in one pass over the
   pre-activation), and the cell allocates only the (c', h') pair it
   returns — the previous version cycled a third scratch tensor and
   ran separate bias/activation/tanh passes.  The per-element value
   chain is unchanged, so results stay bitwise identical. *)
let lstm_cell ~x ~h ~c ~ws ~us ~bs =
  check_gates "Kernels.lstm_cell" ws us bs;
  let out_shape = Shape.of_array [| rows x; cols ws.(0) |] in
  let c' = Tensor.uninit out_shape in
  let h' = Tensor.uninit out_shape in
  let gate g act ~dst =
    preact_act_into ~dst ~x ~w:ws.(g) ~h ~u:us.(g) ~b:bs.(g) ~act
  in
  gate 3 Tensor.Utanh ~dst:h';
  (* c~ *)
  gate 0 Tensor.Usigmoid ~dst:c';
  (* i *)
  Tensor.mul_into c' h' ~dst:c';
  (* c' = i ⊙ c~ *)
  gate 1 Tensor.Usigmoid ~dst:h';
  (* f *)
  Tensor.mul_into h' c ~dst:h';
  Tensor.add_into c' h' ~dst:c';
  (* c' += f ⊙ c *)
  gate 2 Tensor.Usigmoid ~dst:h';
  (* o *)
  Tensor.mul_tanh_into h' c' ~dst:h';
  (* h' = o ⊙ tanh c' *)
  (c', h')

let attention_scores ~q ~k =
  let s = Tensor.uninit (Shape.of_array [| rows q; rows k |]) in
  Tensor.matmul_into ~beta:0.0 ~transpose_b:true ~dst:s q k;
  s

let attention ~q ~k ~v =
  let s = attention_scores ~q ~k in
  Tensor.softmax_inplace s;
  let out = Tensor.uninit (Shape.of_array [| rows q; cols v |]) in
  Tensor.matmul_into ~beta:0.0 ~dst:out s v;
  out

let matmul_flops ~m ~n ~k = 2 * m * n * k
