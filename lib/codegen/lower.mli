(** Lowering of primitive operations to straight-line, allocation-free
    kernels over preallocated destinations.

    Evaluating through {!Interp.eval_prim} pays, at every iteration point, a
    dispatch on the primitive, a fresh result tensor, and (for the
    closure-based elementwise ops) a float boxing per element.
    [Lower.kernel] resolves all of that once, at plan time: it returns a
    kernel closure specialised to the primitive and the operands' declared
    shapes that computes into a caller-owned destination using only the
    opcode-dispatch [Tensor] [_into] kernels — the same loops in the same
    order as the interpreter, so results are bitwise identical, with zero
    heap allocation in the steady state. *)

exception Unsupported of string
(** Raised at plan time for primitive/shape combinations no engine can
    run (a wrong operand count or rank, a column range out of bounds);
    {!Compiled.compile} reports it as {!Vm.Execution_error} naming the
    block. *)

val kernel :
  ?epilogue:Tensor.epilogue ->
  ?fixed_b:Tensor.t ->
  Expr.prim ->
  operand_shapes:Shape.t list ->
  result_shape:Shape.t ->
  unit ->
  Tensor.t array ->
  Tensor.t ->
  unit
(** [kernel p ~operand_shapes ~result_shape] validates the combination
    at plan time and returns a {e factory}: each application [()]
    yields a kernel [fun args dst -> ...].  The compiled executor
    instantiates one per worker; an instance that needs scratch (the
    materialised [bᵀ] of [a @T b], kept so the contraction runs in the
    interpreter's exact accumulation order) gets its own, so concurrent
    points are race-free without sharing.

    For [Matmul] and [Matmul_t] only, [epilogue] is fused into the
    {!Tensor.matmul_into} call.  For [Matmul_t] only, [fixed_b], a
    block-constant rank-2 right operand, is transposed once and shared
    by every instance; the kernel then ignores [args.(1)].

    The kernel reads [Array.length operand_shapes] operands from
    [args] and writes the full [result_shape] destination; it never
    reads stale [dst] contents.
    @raise Unsupported at plan time on uncovered combinations. *)
