(** Dense, row-major, float64 tensors with static shapes, backed by
    [Bigarray].

    These are the leaf elements of a FractalTensor (paper §4.1): math
    operations are defined only on these statically-shaped values.  The
    payload is a C-layout [Bigarray.Array1] of float64, so tensor
    contents are invisible to the GC and shareable across domains; the
    destination-passing variants ([matmul_into], [add_into], …) let
    the hot cell functions ({!Kernels}) run without allocating
    per-intermediate temporaries.  Numerical semantics are unchanged
    from the [float array] backend: the same loops in the same order.

    Every payload this module allocates comes from {!Aligned.create}:
    from [Aligned.floor] (64) elements on, it starts on a 64-byte
    boundary, so the native kernels read whole cache lines from any
    tensor built here.  {!of_buffer} wraps whatever it is given. *)

type t

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The underlying storage type. *)

(** {1 Owned math}

    The repository's own [exp], [tanh] and sigmoid, which every
    elementwise kernel of both tiers uses.  Each is a fixed sequence of
    IEEE double [+ - * /], compares, table lookups and exact powers of
    two — no libm call, no fused multiply-add — so its result is the
    same on every host.  The native elementwise kernels evaluate the same sequence per
    element, which keeps them bit for bit equal to {!Reference}.  A NaN
    argument is returned unchanged (same payload and sign).

    Measured against glibc over the accuracy sweep in
    [test/test_tensor_suite.ml]: [exp] is within 1 ulp, [tanh] and
    [sigmoid] within 2 ulp (of the same sigmoid formula over glibc's
    [exp]); special values agree exactly. *)

module Fmath : sig
  val exp : float -> float
  (** Reduction by ln2/128, a 128-entry table of 2^(j/128) and a
      degree-5 polynomial; [+inf] above 709.78..., [0.] below
      -745.13.... *)

  val tanh : float -> float
  (** [x] below [|x| = 2^-28]; Cephes' rational approximation below
      0.625; then [1 - 2 / (exp 2|x| + 1)] with the sign of [x]; [+-1.]
      above 22. *)

  val sigmoid : float -> float
  (** [e / (1 + e)] for [x < 0], else [1 / (1 + e)], with
      [e = exp (-|x|)]. *)
end

(** {1 Construction} *)

val create : Shape.t -> float array -> t
(** [create shape data] copies [data] into a fresh buffer.
    @raise Invalid_argument if [Array.length data <> Shape.numel shape]. *)

val of_buffer : Shape.t -> buffer -> t
(** Wraps an existing buffer (not copied).
    @raise Invalid_argument on an element-count mismatch. *)

val zeros : Shape.t -> t
val ones : Shape.t -> t
val full : Shape.t -> float -> t
val scalar : float -> t

val uninit : Shape.t -> t
(** An {e uninitialised} tensor: every cell must be written before it
    is read.  For scratch space in destination-passing kernels. *)

val uninit_exclusive : Shape.t -> t
(** {!uninit} on {!Aligned.exclusive}: the payload shares no cache line
    with any other, so per-worker scratch written by two domains at
    once never false-shares, whatever its size. *)

val init : Shape.t -> (int array -> float) -> t
(** [init shape f] fills each multi-index [idx] with [f idx]. *)

val rand : Rng.t -> Shape.t -> t
(** I.i.d. uniform values in [-1, 1), drawn from the given stream. *)

(** {1 Observation} *)

val shape : t -> Shape.t
val numel : t -> int

val buffer : t -> buffer
(** The underlying buffer (not a copy); callers must not mutate it. *)

val data : t -> float array
(** The contents as a fresh [float array] (a copy — mutating it does
    not affect the tensor). *)

val get : t -> int array -> float
val get1 : t -> int -> float
(** Flat row-major access. *)

val is_aligned : t -> bool
(** Whether the payload starts on a 64-byte boundary. *)

val to_scalar : t -> float
(** @raise Invalid_argument unless the tensor holds exactly one element. *)

(** {1 Elementwise} *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
(** Pointwise combination with limited broadcasting: shapes must be
    equal, or one side a scalar, or — for 2-D operands — one side an
    [[m,1]] column vector or a [[1,n]] row vector against an [[m,n]]
    tensor.  @raise Invalid_argument otherwise. *)

val maximum : t -> t -> t
(** Elementwise maximum (same broadcasting as {!map2}). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val scale : float -> t -> t
val neg : t -> t
val exp : t -> t
val tanh : t -> t
val sigmoid : t -> t
(** {!Fmath}'s [exp], [tanh] and [sigmoid], elementwise. *)

val relu : t -> t

(** {1 In-place / destination-passing}

    The allocation-free mirrors of the pure operations above.  [dst]
    carries the full (non-broadcast) result shape.  [dst] may alias
    the {e same-shape} operand of an elementwise op (each index is
    read before it is written); it must never alias a broadcast
    operand or a [matmul_into] input. *)

val fill : t -> float -> unit

val copy_into : t -> dst:t -> unit
(** Blit the contents of a same-shape tensor into [dst]. *)

val map_into : (float -> float) -> t -> dst:t -> unit

val map2_into : (float -> float -> float) -> t -> t -> dst:t -> unit
(** Same broadcasting as {!map2}; [dst] must have the result shape. *)

val add_into : t -> t -> dst:t -> unit
val mul_into : t -> t -> dst:t -> unit

(** {2 Opcode-dispatch kernels}

    The compiled engine must not allocate in its steady state, but calling
    a closure per element ([map2_into f]) boxes every float argument on
    this compiler.  These variants take the operator as a constant
    constructor instead; broadcast dispatch mirrors {!map2_into} case
    for case ([Bmax] restates [Float.max]'s exact body, NaN and
    signed-zero rules included).

    They run in native code: vectorized C loops, cloned for AVX-512F,
    AVX2 and baseline x86-64, that compute each element's value with
    the float sequence of the same-named {!Reference} loop and never
    fuse a multiply and an add, so results are bitwise equal to it.
    The two could differ only where a binary op meets two NaNs (operand
    order picks the payload), so a binary kernel that finds such a pair
    writes nothing and runs the {!Reference} loop instead (softmax from
    the first row holding a NaN on; [row_sum_into] re-runs when a sum
    is NaN).  exp, tanh and sigmoid are {!Fmath}'s.  [dst] must be
    either the full-shape operand itself or disjoint from every
    operand. *)

type bin_op = Badd | Bsub | Bmul | Bdiv | Bmax
type un_op = Utanh | Usigmoid | Uexp | Uneg | Urelu | Uscale of float

val binop_into : bin_op -> t -> t -> dst:t -> unit
(** Same broadcasting and aliasing rules as {!map2_into}; allocation-free. *)

val unop_into : un_op -> t -> dst:t -> unit
(** Elementwise unary op into a same-shape [dst] (which may alias the
    source); allocation-free. *)

val softmax_into : t -> dst:t -> unit
(** Row-wise softmax of a 2-D tensor into a same-shape [dst] (which may
    alias the source); allocation-free, bitwise identical to {!softmax}. *)

val row_max_into : t -> dst:t -> unit
(** {!row_max} into a preallocated [[m,1]] destination; allocation-free. *)

val row_sum_into : t -> dst:t -> unit
(** {!row_sum} into a preallocated [[m,1]] destination; allocation-free. *)

val transpose_into : t -> dst:t -> unit
(** {!transpose} into a preallocated [[n,m]] destination; allocation-free.
    A copy in 8x8 blocks in native code, so bitwise equal to
    {!transpose}.
    @raise Invalid_argument on a shape mismatch or if [dst] is the
    source. *)

val slice_cols_into : t -> int -> int -> dst:t -> unit
(** {!slice_cols} into a preallocated [[m,hi-lo]] destination;
    allocation-free (plain element loops, no sub-views). *)

val concat_cols_into : t array -> pos:int -> n:int -> dst:t -> unit
(** {!concat_cols} of the [n] operands [ts.(pos) .. ts.(pos + n - 1)]
    into a preallocated destination whose column count is their sum;
    allocation-free.  The range lets the compiled engine keep a whole
    block's operands in one array.
    @raise Invalid_argument on an empty or out-of-bounds range, or on a
    shape mismatch. *)

val tanh_inplace : t -> unit
val sigmoid_inplace : t -> unit

val softmax_inplace : t -> unit
(** Row-wise softmax of a 2-D tensor, in place. *)

(** {2 GEMM epilogues}

    A fused tail applied to the GEMM destination after accumulation:
    optionally add a bias (full shape, scalar, [[m,1]] column or
    [[1,n]] row), then optionally apply a unary activation.  Per
    element the fused pass computes exactly the value the separate
    [binop_into Badd]-then-[unop_into] passes produce — elementwise
    passes have no cross-element dependence — so fusion is
    bitwise-neutral.  Build the record once (plan time / closure
    creation); applying it allocates nothing. *)

type epilogue = { ep_bias : t option; ep_act : un_op option }

val epilogue : ?bias:t -> ?act:un_op -> unit -> epilogue

val apply_epilogue : epilogue -> dst:t -> unit
(** Apply bias-add then activation to [dst] in place; allocation-free.
    @raise Invalid_argument if the bias shape is not one of the
    supported broadcasts against [dst]. *)

val epilogue_bias_ok : bias:t -> dst:Shape.t -> bool
(** Whether [bias] has one of the shapes {!apply_epilogue} accepts
    against a destination of shape [dst] (used by the fusion pass to
    decide eligibility at plan time, before any destination exists). *)

val add_bias_act_into : bias:t -> act:un_op -> dst:t -> unit
(** [dst.(i) <- act (dst.(i) + bias.(..))] in a single pass — the
    non-optional-label form hot cell functions use so that steady-state
    calls never box an option. *)

val mul_tanh_into : t -> t -> dst:t -> unit
(** [dst.(i) <- a.(i) *. tanh b.(i)] for same-shape operands; [dst]
    may alias [a].  Bitwise-identical to the two-pass tanh-then-mul
    chain it fuses (used by the LSTM cell's [o ⊙ tanh c'] tail). *)

val matmul_into :
  ?alpha:float ->
  ?beta:float ->
  ?transpose_b:bool ->
  ?epilogue:epilogue ->
  dst:t ->
  t ->
  t ->
  unit
(** [matmul_into ~alpha ~beta ~dst a b] computes
    [dst <- alpha * a@b + beta * dst] (defaults [alpha = 1.],
    [beta = 1.]; [beta = 0.] overwrites without reading [dst], so an
    {!uninit} destination is legal).  [transpose_b] contracts against
    [b]'s rows ([a@bᵀ]) without materialising the transpose.
    [epilogue], if given, is applied to [dst] after accumulation
    completes.

    A [beta = 0.] call without [transpose_b] accumulates in native
    code: a register-tiled C kernel, cloned for AVX-512F, AVX2 and
    baseline x86-64 and picked when the library loads.  Per output
    element it adds in ascending [p], skips a [p] whose [alpha *. a] is
    zero and never fuses a multiply and an add, so its result is bitwise
    equal to {!Reference.matmul_into}'s OCaml loop.  The two could
    differ only where a NaN meets a NaN (operand order picks the
    payload), so when the kernel leaves a NaN in [dst] the call refills
    [dst] and re-runs the OCaml loop.  Other calls run the OCaml loop.
    @raise Invalid_argument on shape mismatch or if [dst] aliases an
    operand. *)

(** {2 The OCaml reference tier}

    The OCaml loops every native kernel must match bit for bit, and the
    target of their NaN fallbacks.  The interpreter's allocating
    operations ({!add}, {!tanh}, {!softmax}, {!row_max}, {!matmul}, …)
    run only these, so every differential between the interpreter and
    the compiled engine compares native code against independent code.
    Each member takes the same arguments, performs the same shape
    checks (with the same messages) and produces the same bits as the
    top-level function of the same name. *)

module Reference : sig
  val binop_into : bin_op -> t -> t -> dst:t -> unit
  val unop_into : un_op -> t -> dst:t -> unit
  val add_bias_act_into : bias:t -> act:un_op -> dst:t -> unit
  val mul_tanh_into : t -> t -> dst:t -> unit
  val row_max_into : t -> dst:t -> unit
  val row_sum_into : t -> dst:t -> unit
  val softmax_into : t -> dst:t -> unit

  val matmul_into :
    ?alpha:float ->
    ?beta:float ->
    ?transpose_b:bool ->
    ?epilogue:epilogue ->
    dst:t ->
    t ->
    t ->
    unit
  (** Applies an [epilogue] with the reference elementwise loops. *)
end

(** {1 Linear algebra} *)

val matmul : t -> t -> t
(** [matmul a b] for 2-D [a : [m,k]] and [b : [k,n]], on the OCaml
    reference loop ({!Reference.matmul_into}).  Cache-blocked.
    @raise Invalid_argument on rank or inner-dimension mismatch. *)

val transpose : t -> t
(** 2-D transpose. *)

(** {1 Reductions} *)

val sum : t -> float
val max : t -> float
val mean : t -> float

val row_max : t -> t
(** For 2-D [[m,n]]: per-row maximum, shape [[m,1]]. *)

val row_sum : t -> t
(** For 2-D [[m,n]]: per-row sum, shape [[m,1]]. *)

val softmax : t -> t
(** Numerically-stable row-wise softmax of a 2-D tensor. *)

(** {1 Structure} *)

val reshape : t -> Shape.t -> t
(** Same element count, new shape; shares the buffer. *)

val concat_rows : t list -> t
(** Stacks 2-D tensors with equal column counts vertically. *)

val slice_rows : t -> int -> int -> t
(** [slice_rows t lo hi] is rows [lo, hi) of a 2-D tensor. *)

val slice_cols : t -> int -> int -> t
(** [slice_cols t lo hi] is columns [lo, hi) of a 2-D tensor. *)

val concat_cols : t list -> t
(** Stacks 2-D tensors with equal row counts horizontally. *)

val copy : t -> t

(** {1 Comparison and printing} *)

val equal_approx : ?eps:float -> t -> t -> bool
(** Shape equality plus max-abs-difference [<= eps] (default [1e-4]). *)

val equal_bits : t -> t -> bool
(** Shape equality plus per-element [Int64.bits_of_float] equality —
    the executor's differential tests use this to assert that parallel
    and sequential schedules agree {e exactly} ([nan] compares equal
    to an identical [nan]; [0.] and [-0.] differ). *)

val max_abs_diff : t -> t -> float
(** @raise Invalid_argument on shape mismatch. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
