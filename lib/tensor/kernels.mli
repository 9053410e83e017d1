(** DNN math kernels over {!Tensor} plus their arithmetic cost.

    The functional side ([gemm], [lstm_cell], …) defines what every
    workload computes.  The cost side ([matmul_flops], …) is shared by
    the GPU simulator's roofline model: every scheduling policy — ours
    and every baseline — charges the same arithmetic for the same math,
    so simulated differences come only from schedule structure.

    The cell functions are destination-passing internally: gate
    pre-activations accumulate in place through {!Tensor.matmul_into}
    and bias/activation tails run as fused epilogue passes
    ({!Tensor.add_bias_act_into}), so a step allocates only the
    tensors it returns — not an intermediate per
    matmul/add/activation.  Results are unchanged (the per-element
    value chain, including addition order, is preserved). *)

(** {1 Functional kernels} *)

val gemm : ?alpha:float -> ?beta:float -> c:Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t
(** [gemm ~alpha ~beta ~c a b = alpha * a@b + beta * c].
    Defaults: [alpha = 1.], [beta = 1.]. *)

val linear : Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t
(** [linear x w b = x@w + b]. *)

val preact_act_into :
  dst:Tensor.t ->
  x:Tensor.t ->
  w:Tensor.t ->
  h:Tensor.t ->
  u:Tensor.t ->
  b:Tensor.t ->
  act:Tensor.un_op ->
  unit
(** [dst <- act (x@w + h@u + b)] with the bias add and activation fused
    into a single epilogue pass over [dst]; allocation-free and
    bitwise-identical to the separate passes. *)

val rnn_cell : x:Tensor.t -> h:Tensor.t -> w:Tensor.t -> u:Tensor.t -> b:Tensor.t -> Tensor.t
(** Vanilla tanh RNN cell: [tanh (x@w + h@u + b)]. *)

val lstm_gates :
  x:Tensor.t -> h:Tensor.t ->
  ws:Tensor.t array -> us:Tensor.t array -> bs:Tensor.t array ->
  Tensor.t array
(** The four pre-activation gate values [x@w_g + h@u_g + b_g] for
    [g = i, f, o, c] (paper Listing 2 computes these with a nested map). *)

val lstm_cell :
  x:Tensor.t -> h:Tensor.t -> c:Tensor.t ->
  ws:Tensor.t array -> us:Tensor.t array -> bs:Tensor.t array ->
  Tensor.t * Tensor.t
(** Standard LSTM cell; returns [(c', h')].  Gate order in the weight
    arrays is [i, f, o, c~]. *)

val attention_scores : q:Tensor.t -> k:Tensor.t -> Tensor.t
(** [q @ k^T], the unnormalised attention logits. *)

val attention : q:Tensor.t -> k:Tensor.t -> v:Tensor.t -> Tensor.t
(** Full softmax attention [softmax (q k^T) v] — the memory-hungry
    reference against which FlashAttention is checked. *)

(** {1 Arithmetic cost (FLOPs)} *)

val matmul_flops : m:int -> n:int -> k:int -> int
(** [2*m*n*k]. *)
