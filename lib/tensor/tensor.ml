module A = Bigarray.Array1

(* Fmath: the repository's exp, tanh and sigmoid.

   Each is a fixed sequence of IEEE double [+ - * /], compares, table
   lookups and exact powers of two: no libm call and no fused
   multiply-add.  The C
   elementwise kernels (elementwise_stubs.c) evaluate the same sequence
   per element, vectorized across elements with selects where this
   module branches, so the two tiers agree bit for bit and neither depends on
   the host's libm.  A NaN argument is returned unchanged.

   exp: x = (128 k + j) ln2/128 + r with |r| <= ln2/256 (the index
   rounded by the 1.5 * 2^52 trick, ln2/128 split so the product with
   the index is exact), exp r - 1 by its Taylor polynomial to degree 5
   (truncation error below 2^-60 on that range), then
   2^(j/128) (1 + tail + (exp r - 1)) from a 128-entry table of
   2^(j/128) with its rounding tail, scaled by 2^k in two exact halves
   (so subnormal results round at the last multiply).  This is the
   table-driven scheme of glibc's
   and ARM's optimized-routines exp, without the fused multiply-add;
   there is no division.

   tanh: x itself below 2^-28, where x is tanh x correctly rounded;
   below 0.625 the Cephes (Moshier) rational approximation
   x + x^3 P(x^2) / Q(x^2), relative error below 6e-19 on that range;
   up to 22 it is 1 - 2 / (exp 2|x| + 1) with the sign of x; beyond, +-1.

   sigmoid: e / (1 + e) for x < 0 and 1 / (1 + e) otherwise, with
   e = exp (-|x|), so exp never overflows and no tie in [1 +. e] loses
   the tail of a tiny result. *)

module Fmath = struct
  (* 128 / ln 2, and ln 2 / 128 split so that [kd *. ln2hin] is exact
     for every |kd| < 2^18 *)
  let invln2n = 0x1.71547652b82fep+7
  let ln2hin = 0x1.62e42fef80000p-8
  let ln2lon = 0x1.1cf79abc9e3b4p-43

  (* 1.5 * 2^52: adding it rounds to the nearest integer *)
  let shift = 6755399441055744.0
  let exp_overflow = 7.09782712893383973096e+02
  let exp_underflow = -7.45133219101941108420e+02

  (* 2^(j/128) = hi *. (1 + tail) for j in [0, 128), stored as the
     pairs [hi; tail].  Computed once in double-double arithmetic from
     seven square roots of 2 (Dekker's exact products, IEEE sqrt), so
     every host builds the same table; the C kernels read this one. *)
  let exp_table : (float, Bigarray.float64_elt, Bigarray.c_layout) A.t =
    let split a =
      let c = 134217729.0 *. a in
      let h = c -. (c -. a) in
      (h, a -. h)
    in
    let two_prod a b =
      let p = a *. b in
      let ah, al = split a and bh, bl = split b in
      (p, ((ah *. bh) -. p +. (ah *. bl) +. (al *. bh)) +. (al *. bl))
    in
    let norm h l =
      let s = h +. l in
      (s, l -. (s -. h))
    in
    let mul (ah, al) (bh, bl) =
      let p, e = two_prod ah bh in
      norm p (e +. ((ah *. bl) +. (al *. bh)))
    in
    let sqrt (ah, al) =
      let s = Float.sqrt ah in
      let p, e = two_prod s s in
      norm s ((ah -. p -. e +. al) /. (2.0 *. s))
    in
    let step = ref (2.0, 0.0) in
    for _ = 1 to 7 do
      step := sqrt !step
    done;
    let t = A.create Bigarray.Float64 Bigarray.C_layout 256 in
    let p = ref (1.0, 0.0) in
    for j = 0 to 127 do
      let h, l = !p in
      A.set t (2 * j) h;
      A.set t ((2 * j) + 1) (l /. h);
      p := mul !p !step
    done;
    t

  (* 2^j for j in [-538, 513], the halves of any 2^k exp needs *)
  let pow2_lo = -538

  let pow2 =
    Array.init 1052 (fun i ->
        Int64.float_of_bits (Int64.shift_left (Int64.of_int (i + pow2_lo + 1023)) 52))

  let[@inline] exp x =
    if x <> x then x
    else if x > exp_overflow then infinity
    else if x < exp_underflow then 0.0
    else
      let kd = (x *. invln2n) +. shift -. shift in
      let ki = int_of_float kd in
      let r = x -. (kd *. ln2hin) -. (kd *. ln2lon) in
      let j = 2 * (ki land 127) and k = ki asr 7 in
      let r2 = r *. r in
      let tmp =
        A.unsafe_get exp_table (j + 1) +. r
        +. (r2 *. (0.5 +. (r *. 0x1.5555555555555p-3)))
        +. (r2 *. r2 *. (0x1.5555555555555p-5 +. (r *. 0x1.1111111111111p-7)))
      in
      (* 2^k in two halves: every intermediate stays normal, and a
         subnormal result rounds at the last multiply *)
      let k1 = k asr 1 in
      let s = A.unsafe_get exp_table j *. Array.unsafe_get pow2 (k1 - pow2_lo) in
      (s +. (s *. tmp)) *. Array.unsafe_get pow2 (k - k1 - pow2_lo)

  let tp0 = -9.64399179425052238628e-1
  let tp1 = -9.92877231001918586564e1
  let tp2 = -1.61468768441708447952e3
  let tq0 = 1.12811678491632931402e2
  let tq1 = 2.23548839060100448583e3
  let tq2 = 4.84406305325125486048e3
  let tanh_tiny = 0x1p-28
  let tanh_small = 0.625
  let tanh_one = 22.0

  let[@inline] tanh x =
    if x <> x then x
    else
      let z = Float.abs x in
      if z < tanh_tiny then x
      else if z < tanh_small then
        let s = x *. x in
        x +. (x *. s *. (((tp0 *. s) +. tp1) *. s +. tp2) /. ((((s +. tq0) *. s) +. tq1) *. s +. tq2))
      else if z > tanh_one then if x < 0.0 then -1.0 else 1.0
      else
        let t = 1.0 -. (2.0 /. (exp (z +. z) +. 1.0)) in
        if x < 0.0 then -.t else t

  let[@inline] sigmoid x =
    if x <> x then x
    else
      let e = exp (-.Float.abs x) in
      (if x < 0.0 then e else 1.0) /. (1.0 +. e)
end

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t

type t = { shape : Shape.t; data : buffer }

(* Bigarray payloads: the GC never scans tensor contents, and the
   in-place kernels below can hand out sub-views without copying.
   Payloads come from {!Aligned}, so every tensor of at least
   [Aligned.floor] elements starts on a 64-byte boundary and any
   operand the native kernels are handed reads whole cache lines.
   [Aligned.create] leaves memory uninitialised — every constructor here
   either fills or completely overwrites it. *)

let alloc = Aligned.create

let uninit shape = { shape; data = alloc (Shape.numel shape) }
let uninit_exclusive shape =
  { shape; data = Aligned.exclusive (Shape.numel shape) }

let fill t v = A.fill t.data v

let full shape v =
  let t = uninit shape in
  fill t v;
  t

let zeros shape = full shape 0.0
let ones shape = full shape 1.0

let scalar v =
  let t = uninit Shape.scalar in
  A.set t.data 0 v;
  t

let create shape data =
  if Array.length data <> Shape.numel shape then
    invalid_arg
      (Printf.sprintf "Tensor.create: %d elements for shape %s"
         (Array.length data) (Shape.to_string shape));
  let t = uninit shape in
  Array.iteri (fun i v -> A.unsafe_set t.data i v) data;
  t

let of_buffer shape data =
  if A.dim data <> Shape.numel shape then
    invalid_arg
      (Printf.sprintf "Tensor.of_buffer: %d elements for shape %s" (A.dim data)
         (Shape.to_string shape));
  { shape; data }

let init shape f =
  let t = uninit shape in
  for i = 0 to Shape.numel shape - 1 do
    A.unsafe_set t.data i (f (Shape.unravel shape i))
  done;
  t

let rand rng shape =
  let t = uninit shape in
  for i = 0 to Shape.numel shape - 1 do
    A.unsafe_set t.data i (Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
  done;
  t

let shape t = t.shape
let numel t = A.dim t.data
let buffer t = t.data
let data t = Array.init (numel t) (fun i -> A.unsafe_get t.data i)
let get t idx = A.unsafe_get t.data (Shape.ravel t.shape idx)
let get1 t i = A.get t.data i
let is_aligned t = Aligned.is_aligned t.data


let to_scalar t =
  if numel t <> 1 then
    invalid_arg "Tensor.to_scalar: tensor is not a singleton";
  A.get t.data 0

let map_into f src ~dst =
  if not (Shape.equal src.shape dst.shape) then
    invalid_arg "Tensor.map_into: shape mismatch";
  for i = 0 to numel src - 1 do
    A.unsafe_set dst.data i (f (A.unsafe_get src.data i))
  done

let map f t =
  let out = uninit t.shape in
  map_into f t ~dst:out;
  out

(* [m,1] against [m,n]: one value per row.  [1,n] against [m,n]: one
   value per column.  These are the only broadcasts DNN cell functions
   in this repository need (e.g. FlashAttention's running max/sum). *)
let col_vector_shapes a b =
  Shape.rank a = 2 && Shape.rank b = 2
  && Shape.dim b 1 = 1
  && Shape.dim a 0 = Shape.dim b 0

let row_vector_shapes a b =
  Shape.rank a = 2 && Shape.rank b = 2
  && Shape.dim b 0 = 1
  && Shape.dim a 1 = Shape.dim b 1

let col_vector_against a b = col_vector_shapes a.shape b.shape
let row_vector_against a b = row_vector_shapes a.shape b.shape

(* The shared broadcast dispatch: [dst] carries the full (non-broadcast)
   shape and may alias the same-shape operand — every case reads index
   [i] of that operand before writing index [i] of [dst]. *)
let map2_into f a b ~dst =
  let ad = a.data and bd = b.data and dd = dst.data in
  let full t =
    if not (Shape.equal t.shape dst.shape) then
      invalid_arg "Tensor.map2_into: dst shape mismatch"
  in
  if Shape.equal a.shape b.shape then begin
    full a;
    for i = 0 to numel a - 1 do
      A.unsafe_set dd i (f (A.unsafe_get ad i) (A.unsafe_get bd i))
    done
  end
  else if Shape.rank b.shape = 0 then begin
    full a;
    let v = A.get bd 0 in
    for i = 0 to numel a - 1 do
      A.unsafe_set dd i (f (A.unsafe_get ad i) v)
    done
  end
  else if Shape.rank a.shape = 0 then begin
    full b;
    let v = A.get ad 0 in
    for i = 0 to numel b - 1 do
      A.unsafe_set dd i (f v (A.unsafe_get bd i))
    done
  end
  else if col_vector_against a b then begin
    full a;
    let n = Shape.dim a.shape 1 in
    for i = 0 to numel a - 1 do
      A.unsafe_set dd i (f (A.unsafe_get ad i) (A.unsafe_get bd (i / n)))
    done
  end
  else if col_vector_against b a then begin
    full b;
    let n = Shape.dim b.shape 1 in
    for i = 0 to numel b - 1 do
      A.unsafe_set dd i (f (A.unsafe_get ad (i / n)) (A.unsafe_get bd i))
    done
  end
  else if row_vector_against a b then begin
    full a;
    let n = Shape.dim a.shape 1 in
    for i = 0 to numel a - 1 do
      A.unsafe_set dd i (f (A.unsafe_get ad i) (A.unsafe_get bd (i mod n)))
    done
  end
  else if row_vector_against b a then begin
    full b;
    let n = Shape.dim b.shape 1 in
    for i = 0 to numel b - 1 do
      A.unsafe_set dd i (f (A.unsafe_get ad (i mod n)) (A.unsafe_get bd i))
    done
  end
  else
    invalid_arg
      (Printf.sprintf "Tensor.map2: incompatible shapes %s and %s"
         (Shape.to_string a.shape) (Shape.to_string b.shape))

(* The full (non-broadcast) shape of a binary op's result. *)
let broadcast_shape a b =
  if Shape.equal a.shape b.shape then a.shape
  else if Shape.rank b.shape = 0 then a.shape
  else if Shape.rank a.shape = 0 then b.shape
  else if col_vector_against a b || row_vector_against a b then a.shape
  else if col_vector_against b a || row_vector_against b a then b.shape
  else
    invalid_arg
      (Printf.sprintf "Tensor.map2: incompatible shapes %s and %s"
         (Shape.to_string a.shape) (Shape.to_string b.shape))

let map2 f a b =
  let out = uninit (broadcast_shape a b) in
  map2_into f a b ~dst:out;
  out

(* Opcode-dispatch kernels ------------------------------------------

   [map2_into f] calls an unknown closure per element, and on this
   compiler every such call boxes its float arguments — fatal for the
   compiled engine's zero-allocation steady state.  The kernels below
   take the operator as a constant constructor instead.  Two tiers
   implement them:

   - {!Reference}: OCaml loops that match the operator {e inside} the
     loop (a test and branch, no closure, no boxing) and mirror
     [map2_into]'s broadcast dispatch and loop order case for case.
     The interpreter's allocating wrappers ([add], [tanh], [softmax],
     …) run only these.
   - The top-level [*_into] kernels, at the end of this file, hand the
     same loops to elementwise_stubs.c, which keeps every element's
     float sequence and falls back to {!Reference} where a NaN meets a
     NaN.

   exp, tanh and sigmoid are {!Fmath}'s in both tiers. *)

type bin_op = Badd | Bsub | Bmul | Bdiv | Bmax
type un_op = Utanh | Usigmoid | Uexp | Uneg | Urelu | Uscale of float

(* [Float.max]'s exact body ([is_nan x] spelled [x <> x]), restated so
   it compiles to straight float code instead of a cross-module call. *)
let[@inline] fmax (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if x <> x then x else y
  else if y <> y then y else x

let[@inline] apply2 op (x : float) (y : float) =
  match op with
  | Badd -> x +. y
  | Bsub -> x -. y
  | Bmul -> x *. y
  | Bdiv -> x /. y
  | Bmax -> fmax x y

let[@inline] apply1 op (x : float) =
  match op with
  | Utanh -> Fmath.tanh x
  | Usigmoid -> Fmath.sigmoid x
  | Uexp -> Fmath.exp x
  | Uneg -> -.x
  | Urelu -> if x > 0.0 then x else 0.0
  | Uscale k -> k *. x

(* Toplevel (not a local closure: a closure would allocate on every
   call, and [binop_into] is the compiled executor's hot path). *)
let binop_full_check t dst =
  if not (Shape.equal t.shape dst.shape) then
    invalid_arg "Tensor.binop_into: dst shape mismatch"

let binop_shape_error a b =
  invalid_arg
    (Printf.sprintf "Tensor.binop_into: incompatible shapes %s and %s"
       (Shape.to_string a.shape) (Shape.to_string b.shape))

let unop_check src dst =
  if not (Shape.equal src.shape dst.shape) then
    invalid_arg "Tensor.unop_into: shape mismatch"

let require_rank2 name t =
  if Shape.rank t.shape <> 2 then
    invalid_arg (name ^ ": expected a rank-2 tensor")

let require_dims2 name t m n =
  if Shape.rank t.shape <> 2 || Shape.dim t.shape 0 <> m
     || Shape.dim t.shape 1 <> n
  then invalid_arg (name ^ ": dst shape mismatch")

let bias_shape_error bias dst =
  invalid_arg
    (Printf.sprintf "Tensor.add_bias_act_into: bias shape %s against %s"
       (Shape.to_string bias.shape) (Shape.to_string dst.shape))

let mul_tanh_check a b dst =
  if not (Shape.equal a.shape b.shape && Shape.equal a.shape dst.shape) then
    invalid_arg "Tensor.mul_tanh_into: shape mismatch"

let softmax_check src dst =
  require_rank2 "Tensor.softmax" src;
  if not (Shape.equal src.shape dst.shape) then
    invalid_arg "Tensor.softmax_into: shape mismatch"

(* GEMM epilogues ---------------------------------------------------

   A fused tail applied to [dst] after the accumulation finishes:
   optionally add a bias (full shape, scalar, [m,1] column or [1,n]
   row — the same broadcasts [binop_into] accepts with the full-shape
   operand on the left), then optionally apply a unary activation.
   Per element the fused pass computes [act (dst.(i) +. bias.(..))] —
   exactly the value the separate [binop_into Badd]-then-[unop_into]
   passes produce, and elementwise passes have no cross-element
   dependence, so fusing them is bitwise-neutral.  The record is built
   once at plan/closure-creation time; applying it allocates nothing. *)

type epilogue = { ep_bias : t option; ep_act : un_op option }

let epilogue ?bias ?act () = { ep_bias = bias; ep_act = act }

let epilogue_bias_ok ~bias ~dst =
  Shape.equal bias.shape dst
  || Shape.rank bias.shape = 0
  || col_vector_shapes dst bias.shape
  || row_vector_shapes dst bias.shape

(* GEMM ----------------------------------------------------------------

   Two tiers compute the same accumulation dst[i,j] += alpha*a[i,p]*b[p,j]:
   per output element, contributions are added in ascending [p], each as
   [d +. (alpha *. a) *. b], and a [p] whose [alpha *. a] is zero is
   skipped.

   - The OCaml loops below are the reference.  [matmul] (the
     interpreter's GEMM) and the {!Reference} functions run only them.
   - [matmul_into] hands the accumulation of a [beta = 0.] call to the
     native kernel in gemm_stubs.c, which keeps the same per-element
     order and never fuses a multiply and an add.
     Its results differ from the reference only when a NaN meets a
     NaN (the C compiler may swap the operands of a commutative op, and
     x86 keeps the first operand's payload).  A NaN that enters the sum
     stays in the output, so the stub returns the NaN count of [dst];
     when it is non-zero the call refills [dst] and re-runs the OCaml
     loop.  Other [beta] values run the OCaml loop directly: their
     original [dst] is gone once the kernel has written it. *)

(* dst <- beta * dst; [beta = 0.] overwrites without reading. *)
let apply_beta beta (dd : buffer) total =
  if beta = 0.0 then A.fill dd 0.0
  else if beta <> 1.0 then
    for i = 0 to total - 1 do
      A.unsafe_set dd i (beta *. A.unsafe_get dd i)
    done

let check_gemm name ~dst ~m ~k ~k' ~n =
  if k <> k' then
    invalid_arg (Printf.sprintf "%s: inner dims %d and %d differ" name k k');
  if Shape.dim dst.shape 0 <> m || Shape.dim dst.shape 1 <> n then
    invalid_arg
      (Printf.sprintf "%s: dst shape %s, expected [%d,%d]" name
         (Shape.to_string dst.shape) m n)

let check_matmul_into ~transpose_b ~dst a b =
  require_rank2 "Tensor.matmul_into" a;
  require_rank2 "Tensor.matmul_into" b;
  require_rank2 "Tensor.matmul_into" dst;
  if dst.data == a.data || dst.data == b.data then
    invalid_arg "Tensor.matmul_into: dst must not alias an operand";
  let m = Shape.dim a.shape 0 and k = Shape.dim a.shape 1 in
  let k' = Shape.dim b.shape (if transpose_b then 1 else 0) in
  let n = Shape.dim b.shape (if transpose_b then 0 else 1) in
  check_gemm "Tensor.matmul_into" ~dst ~m ~k ~k' ~n

(* The reference accumulation, [b] a row-major [k,n] operand.  The
   k-major inner loop streams rows of [b]; blocking the [p] loop bounds
   the [b] working set for the larger shapes without changing the
   per-element accumulation order (pp ascends, p within pp ascends —
   the order of the unblocked loop). *)
let gemm_acc_ocaml ~alpha (ad : buffer) (bd : buffer) (dd : buffer) ~m ~k ~n =
  let kc = 256 in
  let pp = ref 0 in
  while !pp < k do
    let p_hi = Stdlib.min k (!pp + kc) in
    for i = 0 to m - 1 do
      let arow = i * k and orow = i * n in
      for p = !pp to p_hi - 1 do
        let av = alpha *. A.unsafe_get ad (arow + p) in
        if av <> 0.0 then begin
          let brow = p * n in
          for j = 0 to n - 1 do
            A.unsafe_set dd (orow + j)
              (A.unsafe_get dd (orow + j) +. (av *. A.unsafe_get bd (brow + j)))
          done
        end
      done
    done;
    pp := p_hi
  done

(* dst[i,j] += alpha * <a row i, b row j>: both rows contiguous.  Runs
   on OCaml in both tiers. *)
let gemm_acc_transposed ~alpha (ad : buffer) (bd : buffer) (dd : buffer) ~m ~k
    ~n =
  for i = 0 to m - 1 do
    let arow = i * k and orow = i * n in
    for j = 0 to n - 1 do
      let brow = j * k in
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (A.unsafe_get ad (arow + p) *. A.unsafe_get bd (brow + p))
      done;
      A.unsafe_set dd (orow + j) (A.unsafe_get dd (orow + j) +. (alpha *. !acc))
    done
  done

(* Softmax of rows [lo, hi) of an [_, n] source.  Works in place: the
   max pass only reads, the exp pass reads index [base+j] just before
   overwriting it, and the divide pass touches already-written cells. *)
let softmax_rows (sd : buffer) (dd : buffer) ~n ~lo ~hi =
  for i = lo to hi - 1 do
    let base = i * n in
    let mx = ref (A.unsafe_get sd base) in
    for j = 1 to n - 1 do
      let v = A.unsafe_get sd (base + j) in
      if v > !mx then mx := v
    done;
    let z = ref 0.0 in
    for j = 0 to n - 1 do
      let e = Fmath.exp (A.unsafe_get sd (base + j) -. !mx) in
      A.unsafe_set dd (base + j) e;
      z := !z +. e
    done;
    for j = 0 to n - 1 do
      A.unsafe_set dd (base + j) (A.unsafe_get dd (base + j) /. !z)
    done
  done

module Reference = struct
  let binop_into op a b ~dst =
    let ad = a.data and bd = b.data and dd = dst.data in
    if Shape.equal a.shape b.shape then begin
      binop_full_check a dst;
      for i = 0 to numel a - 1 do
        A.unsafe_set dd i (apply2 op (A.unsafe_get ad i) (A.unsafe_get bd i))
      done
    end
    else if Shape.rank b.shape = 0 then begin
      binop_full_check a dst;
      let v = A.get bd 0 in
      for i = 0 to numel a - 1 do
        A.unsafe_set dd i (apply2 op (A.unsafe_get ad i) v)
      done
    end
    else if Shape.rank a.shape = 0 then begin
      binop_full_check b dst;
      let v = A.get ad 0 in
      for i = 0 to numel b - 1 do
        A.unsafe_set dd i (apply2 op v (A.unsafe_get bd i))
      done
    end
    else if col_vector_against a b then begin
      binop_full_check a dst;
      let n = Shape.dim a.shape 1 in
      for i = 0 to numel a - 1 do
        A.unsafe_set dd i
          (apply2 op (A.unsafe_get ad i) (A.unsafe_get bd (i / n)))
      done
    end
    else if col_vector_against b a then begin
      binop_full_check b dst;
      let n = Shape.dim b.shape 1 in
      for i = 0 to numel b - 1 do
        A.unsafe_set dd i
          (apply2 op (A.unsafe_get ad (i / n)) (A.unsafe_get bd i))
      done
    end
    else if row_vector_against a b then begin
      binop_full_check a dst;
      let n = Shape.dim a.shape 1 in
      for i = 0 to numel a - 1 do
        A.unsafe_set dd i
          (apply2 op (A.unsafe_get ad i) (A.unsafe_get bd (i mod n)))
      done
    end
    else if row_vector_against b a then begin
      binop_full_check b dst;
      let n = Shape.dim b.shape 1 in
      for i = 0 to numel b - 1 do
        A.unsafe_set dd i
          (apply2 op (A.unsafe_get ad (i mod n)) (A.unsafe_get bd i))
      done
    end
    else binop_shape_error a b

  let unop_into op src ~dst =
    unop_check src dst;
    let sd = src.data and dd = dst.data in
    let len = numel src in
    (* two elements per iteration: two independent Fmath chains in
       flight, which keeps the interpreter's exp and sigmoid near libm's
       cost; values are the plain loop's *)
    for h = 0 to (len / 2) - 1 do
      let i = 2 * h in
      let x0 = apply1 op (A.unsafe_get sd i) in
      let x1 = apply1 op (A.unsafe_get sd (i + 1)) in
      A.unsafe_set dd i x0;
      A.unsafe_set dd (i + 1) x1
    done;
    if len land 1 = 1 then
      A.unsafe_set dd (len - 1) (apply1 op (A.unsafe_get sd (len - 1)))

  (* dst.(i) <- act (dst.(i) + bias.(..)) in one pass. *)
  let add_bias_act_into ~bias ~act ~dst =
    let bd = bias.data and dd = dst.data in
    let total = numel dst in
    if Shape.equal bias.shape dst.shape then
      for i = 0 to total - 1 do
        A.unsafe_set dd i (apply1 act (A.unsafe_get dd i +. A.unsafe_get bd i))
      done
    else if Shape.rank bias.shape = 0 then begin
      let v = A.get bd 0 in
      for i = 0 to total - 1 do
        A.unsafe_set dd i (apply1 act (A.unsafe_get dd i +. v))
      done
    end
    else if col_vector_against dst bias then begin
      let n = Shape.dim dst.shape 1 in
      for i = 0 to total - 1 do
        A.unsafe_set dd i
          (apply1 act (A.unsafe_get dd i +. A.unsafe_get bd (i / n)))
      done
    end
    else if row_vector_against dst bias then begin
      let n = Shape.dim dst.shape 1 in
      for i = 0 to total - 1 do
        A.unsafe_set dd i
          (apply1 act (A.unsafe_get dd i +. A.unsafe_get bd (i mod n)))
      done
    end
    else bias_shape_error bias dst

  let apply_epilogue ep ~dst =
    match (ep.ep_bias, ep.ep_act) with
    | None, None -> ()
    | Some bias, Some act -> add_bias_act_into ~bias ~act ~dst
    | Some bias, None -> binop_into Badd dst bias ~dst
    | None, Some act -> unop_into act dst ~dst

  (* dst.(i) <- a.(i) *. tanh (b.(i)); [dst] may alias [a] (index [i] is
     read before it is written).  Bitwise-identical to the two-pass
     [unop_into Utanh b ~dst:tmp; binop_into Bmul a tmp ~dst] chain. *)
  let mul_tanh_into a b ~dst =
    mul_tanh_check a b dst;
    let ad = a.data and bd = b.data and dd = dst.data in
    for i = 0 to numel a - 1 do
      A.unsafe_set dd i (A.unsafe_get ad i *. Fmath.tanh (A.unsafe_get bd i))
    done

  let row_max_into src ~dst =
    require_rank2 "Tensor.row_max" src;
    let m = Shape.dim src.shape 0 and n = Shape.dim src.shape 1 in
    require_dims2 "Tensor.row_max_into" dst m 1;
    let sd = src.data and dd = dst.data in
    for i = 0 to m - 1 do
      let acc = ref (A.unsafe_get sd (i * n)) in
      for j = 1 to n - 1 do
        acc := fmax !acc (A.unsafe_get sd ((i * n) + j))
      done;
      A.unsafe_set dd i !acc
    done

  let row_sum_into src ~dst =
    require_rank2 "Tensor.row_sum" src;
    let m = Shape.dim src.shape 0 and n = Shape.dim src.shape 1 in
    require_dims2 "Tensor.row_sum_into" dst m 1;
    let sd = src.data and dd = dst.data in
    for i = 0 to m - 1 do
      let acc = ref (A.unsafe_get sd (i * n)) in
      for j = 1 to n - 1 do
        acc := !acc +. A.unsafe_get sd ((i * n) + j)
      done;
      A.unsafe_set dd i !acc
    done

  let softmax_into src ~dst =
    softmax_check src dst;
    softmax_rows src.data dst.data ~n:(Shape.dim src.shape 1) ~lo:0
      ~hi:(Shape.dim src.shape 0)

  let matmul_into ?(alpha = 1.0) ?(beta = 1.0) ?(transpose_b = false) ?epilogue
      ~dst a b =
    check_matmul_into ~transpose_b ~dst a b;
    let m = Shape.dim a.shape 0 and k = Shape.dim a.shape 1 in
    let n = Shape.dim dst.shape 1 in
    let ad = a.data and bd = b.data and dd = dst.data in
    apply_beta beta dd (m * n);
    if transpose_b then gemm_acc_transposed ~alpha ad bd dd ~m ~k ~n
    else gemm_acc_ocaml ~alpha ad bd dd ~m ~k ~n;
    match epilogue with None -> () | Some ep -> apply_epilogue ep ~dst
end

(* The allocating operations.  Everything from here to the native tier
   runs on OCaml alone: the reference interpreter (lib/fractal) calls
   only these, and scripts/check.sh fails if one of them is defined
   after the first [external]. *)

let binary op a b =
  let out = uninit (broadcast_shape a b) in
  Reference.binop_into op a b ~dst:out;
  out

let unary op t =
  let out = uninit t.shape in
  Reference.unop_into op t ~dst:out;
  out

let maximum = binary Bmax
let add = binary Badd
let sub = binary Bsub
let mul = binary Bmul
let div = binary Bdiv
let scale k = unary (Uscale k)
let neg = unary Uneg
let exp = unary Uexp
let tanh = unary Utanh
let sigmoid = unary Usigmoid
let relu = unary Urelu

let matmul a b =
  require_rank2 "Tensor.matmul" a;
  require_rank2 "Tensor.matmul" b;
  let m = Shape.dim a.shape 0 and k = Shape.dim a.shape 1 in
  let k' = Shape.dim b.shape 0 and n = Shape.dim b.shape 1 in
  if k <> k' then
    invalid_arg
      (Printf.sprintf "Tensor.matmul: inner dims %d and %d differ" k k');
  let out = uninit (Shape.of_array [| m; n |]) in
  Reference.matmul_into ~beta:0.0 ~dst:out a b;
  out

let transpose t =
  require_rank2 "Tensor.transpose" t;
  let m = Shape.dim t.shape 0 and n = Shape.dim t.shape 1 in
  let out = uninit (Shape.of_array [| n; m |]) in
  let td = t.data and od = out.data in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      A.unsafe_set od ((j * m) + i) (A.unsafe_get td ((i * n) + j))
    done
  done;
  out

let sum t =
  let acc = ref 0.0 in
  for i = 0 to numel t - 1 do
    acc := !acc +. A.unsafe_get t.data i
  done;
  !acc

let max t =
  if numel t = 0 then invalid_arg "Tensor.max: empty tensor";
  let acc = ref (A.get t.data 0) in
  for i = 0 to numel t - 1 do
    acc := Float.max !acc (A.unsafe_get t.data i)
  done;
  !acc

let mean t = sum t /. float_of_int (numel t)

let row_reduce name into t =
  require_rank2 name t;
  let out = uninit (Shape.of_array [| Shape.dim t.shape 0; 1 |]) in
  into t ~dst:out;
  out

let row_max t = row_reduce "Tensor.row_max" Reference.row_max_into t
let row_sum t = row_reduce "Tensor.row_sum" Reference.row_sum_into t

let softmax t =
  let out = uninit t.shape in
  Reference.softmax_into t ~dst:out;
  out

(* Destination-passing mirrors of the remaining pure structural ops the
   interpreter evaluates, for the compiled engine's preallocated scratch.
   Loop order matches the allocating variant in each case, and none of them
   allocate (no [Bigarray.Array1.sub], whose view header is a heap
   block — plain element loops instead). *)

let slice_cols_into src lo hi ~dst =
  require_rank2 "Tensor.slice_cols" src;
  let m = Shape.dim src.shape 0 and n = Shape.dim src.shape 1 in
  if lo < 0 || hi > n || lo >= hi then
    invalid_arg
      (Printf.sprintf "Tensor.slice_cols: [%d,%d) out of %d columns" lo hi n);
  let w = hi - lo in
  require_dims2 "Tensor.slice_cols_into" dst m w;
  let sd = src.data and dd = dst.data in
  for i = 0 to m - 1 do
    let sbase = (i * n) + lo and dbase = i * w in
    for j = 0 to w - 1 do
      A.unsafe_set dd (dbase + j) (A.unsafe_get sd (sbase + j))
    done
  done

let concat_cols_into ts ~pos ~n:n_ts ~dst =
  if n_ts <= 0 || pos < 0 || pos + n_ts > Array.length ts then
    invalid_arg "Tensor.concat_cols_into: operand range";
  require_rank2 "Tensor.concat_cols" ts.(pos);
  let m = Shape.dim ts.(pos).shape 0 in
  require_rank2 "Tensor.concat_cols_into" dst;
  if Shape.dim dst.shape 0 <> m then
    invalid_arg "Tensor.concat_cols_into: dst shape mismatch";
  let total = Shape.dim dst.shape 1 in
  let dd = dst.data in
  let col = ref 0 in
  for ti = pos to pos + n_ts - 1 do
    let t = ts.(ti) in
    require_rank2 "Tensor.concat_cols" t;
    if Shape.dim t.shape 0 <> m then
      invalid_arg "Tensor.concat_cols: row mismatch";
    let n = Shape.dim t.shape 1 in
    if !col + n > total then
      invalid_arg "Tensor.concat_cols_into: dst shape mismatch";
    let td = t.data in
    for i = 0 to m - 1 do
      let sbase = i * n and dbase = (i * total) + !col in
      for j = 0 to n - 1 do
        A.unsafe_set dd (dbase + j) (A.unsafe_get td (sbase + j))
      done
    done;
    col := !col + n
  done;
  if !col <> total then invalid_arg "Tensor.concat_cols_into: dst shape mismatch"

let reshape t shape =
  if Shape.numel shape <> numel t then
    invalid_arg "Tensor.reshape: element count mismatch";
  { shape; data = t.data }

let blit_range src soff dst doff len =
  A.blit (A.sub src.data soff len) (A.sub dst.data doff len)

let concat_rows ts =
  match ts with
  | [] -> invalid_arg "Tensor.concat_rows: empty list"
  | first :: _ ->
      require_rank2 "Tensor.concat_rows" first;
      let n = Shape.dim first.shape 1 in
      let total =
        List.fold_left
          (fun acc t ->
            require_rank2 "Tensor.concat_rows" t;
            if Shape.dim t.shape 1 <> n then
              invalid_arg "Tensor.concat_rows: column mismatch";
            acc + Shape.dim t.shape 0)
          0 ts
      in
      let out = uninit (Shape.of_array [| total; n |]) in
      let row = ref 0 in
      List.iter
        (fun t ->
          blit_range t 0 out (!row * n) (numel t);
          row := !row + Shape.dim t.shape 0)
        ts;
      out

let slice_rows t lo hi =
  require_rank2 "Tensor.slice_rows" t;
  let m = Shape.dim t.shape 0 and n = Shape.dim t.shape 1 in
  if lo < 0 || hi > m || lo >= hi then
    invalid_arg
      (Printf.sprintf "Tensor.slice_rows: [%d,%d) out of %d rows" lo hi m);
  let out = uninit (Shape.of_array [| hi - lo; n |]) in
  blit_range t (lo * n) out 0 ((hi - lo) * n);
  out

let slice_cols t lo hi =
  require_rank2 "Tensor.slice_cols" t;
  let m = Shape.dim t.shape 0 and n = Shape.dim t.shape 1 in
  if lo < 0 || hi > n || lo >= hi then
    invalid_arg
      (Printf.sprintf "Tensor.slice_cols: [%d,%d) out of %d columns" lo hi n);
  let w = hi - lo in
  let out = uninit (Shape.of_array [| m; w |]) in
  for i = 0 to m - 1 do
    blit_range t ((i * n) + lo) out (i * w) w
  done;
  out

let concat_cols ts =
  match ts with
  | [] -> invalid_arg "Tensor.concat_cols: empty list"
  | first :: _ ->
      require_rank2 "Tensor.concat_cols" first;
      let m = Shape.dim first.shape 0 in
      let total =
        List.fold_left
          (fun acc t ->
            require_rank2 "Tensor.concat_cols" t;
            if Shape.dim t.shape 0 <> m then
              invalid_arg "Tensor.concat_cols: row mismatch";
            acc + Shape.dim t.shape 1)
          0 ts
      in
      let out = uninit (Shape.of_array [| m; total |]) in
      let col = ref 0 in
      List.iter
        (fun t ->
          let n = Shape.dim t.shape 1 in
          for i = 0 to m - 1 do
            blit_range t (i * n) out ((i * total) + !col) n
          done;
          col := !col + n)
        ts;
      out

let copy_into src ~dst =
  if not (Shape.equal src.shape dst.shape) then
    invalid_arg "Tensor.copy_into: shape mismatch";
  A.blit src.data dst.data

let copy t =
  let out = uninit t.shape in
  A.blit t.data out.data;
  out

let max_abs_diff a b =
  if not (Shape.equal a.shape b.shape) then
    invalid_arg "Tensor.max_abs_diff: shape mismatch";
  let d = ref 0.0 in
  for i = 0 to numel a - 1 do
    let x = Float.abs (A.unsafe_get a.data i -. A.unsafe_get b.data i) in
    if x > !d then d := x
  done;
  !d

let equal_approx ?(eps = 1e-4) a b =
  Shape.equal a.shape b.shape && max_abs_diff a b <= eps

let equal_bits a b =
  Shape.equal a.shape b.shape
  &&
  try
    for i = 0 to numel a - 1 do
      if
        Int64.bits_of_float (A.unsafe_get a.data i)
        <> Int64.bits_of_float (A.unsafe_get b.data i)
      then raise Exit
    done;
    true
  with Exit -> false

let pp fmt t =
  Format.fprintf fmt "tensor%s" (Shape.to_string t.shape);
  if numel t <= 8 then begin
    Format.fprintf fmt "{";
    for i = 0 to numel t - 1 do
      if i > 0 then Format.fprintf fmt "; ";
      Format.fprintf fmt "%g" (A.unsafe_get t.data i)
    done;
    Format.fprintf fmt "}"
  end

let to_string t = Format.asprintf "%a" pp t

(* The native tier ------------------------------------------------------

   Everything below may reach C.  The elementwise kernels hand their
   loops to elementwise_stubs.c after the shape checks; the GEMM hands a
   [beta = 0.] accumulation, and [transpose_into] its copy, to
   gemm_stubs.c.  Each C loop computes the
   reference's float sequence per element, and each entry point sends
   the call back to {!Reference} where the two could differ: a binary op
   meeting two NaNs. *)

external binop_native :
  (int[@untagged]) ->
  buffer ->
  buffer ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  buffer ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "ft_binop_byte" "ft_binop"
[@@noalloc]

external unop_native :
  (int[@untagged]) -> (float[@unboxed]) -> buffer -> buffer -> (int[@untagged])
  -> unit = "ft_unop_byte" "ft_unop"
[@@noalloc]

external bias_act_native :
  (int[@untagged]) ->
  (float[@unboxed]) ->
  buffer ->
  buffer ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "ft_bias_act_byte" "ft_bias_act"
[@@noalloc]

external mul_tanh_native :
  buffer -> buffer -> buffer -> (int[@untagged]) -> (int[@untagged])
  = "ft_mul_tanh_byte" "ft_mul_tanh"
[@@noalloc]

external row_max_native :
  buffer -> buffer -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "ft_row_max_byte" "ft_row_max"
[@@noalloc]

external row_sum_native :
  buffer -> buffer -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "ft_row_sum_byte" "ft_row_sum"
[@@noalloc]

external softmax_native :
  buffer -> buffer -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "ft_softmax_byte" "ft_softmax"
[@@noalloc]

external gemm_acc_native :
  buffer ->
  buffer ->
  buffer ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (int[@untagged]) = "ft_gemm_acc_byte" "ft_gemm_acc"
[@@noalloc]

external transpose_native :
  buffer -> buffer -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "ft_transpose_byte" "ft_transpose"
[@@noalloc]

external set_exp_table : buffer -> unit = "ft_set_exp_table" [@@noalloc]

(* The C exp reads Fmath's table, so the two tiers share one copy. *)
let () = set_exp_table Fmath.exp_table

(* The stubs' opcodes: constructor order. *)
let bin_code = function Badd -> 0 | Bsub -> 1 | Bmul -> 2 | Bdiv -> 3 | Bmax -> 4

let un_code = function
  | Utanh -> 0
  | Usigmoid -> 1
  | Uexp -> 2
  | Uneg -> 3
  | Urelu -> 4
  | Uscale _ -> 5

let un_factor = function Uscale k -> k | _ -> 0.0

(* [Uscale nan] multiplies two NaNs wherever [x] is one. *)
let un_nan_pair = function Uscale k -> k <> k | _ -> false

(* One broadcast case: operand X read at [X.(r * xrs + j * xcs)] over an
   [m,n] iteration space, [full] the operand [dst] must match. *)
let binop_run op a b ~dst ~full ars acs brs bcs m n =
  binop_full_check full dst;
  if binop_native (bin_code op) dst.data a.data ars acs b.data brs bcs m n <> 0
  then Reference.binop_into op a b ~dst

let binop_into op a b ~dst =
  if Shape.equal a.shape b.shape then
    binop_run op a b ~dst ~full:a 0 1 0 1 1 (numel a)
  else if Shape.rank b.shape = 0 then
    binop_run op a b ~dst ~full:a 0 1 0 0 1 (numel a)
  else if Shape.rank a.shape = 0 then
    binop_run op a b ~dst ~full:b 0 0 0 1 1 (numel b)
  else if col_vector_against a b then
    let m = Shape.dim a.shape 0 and n = Shape.dim a.shape 1 in
    binop_run op a b ~dst ~full:a n 1 1 0 m n
  else if col_vector_against b a then
    let m = Shape.dim b.shape 0 and n = Shape.dim b.shape 1 in
    binop_run op a b ~dst ~full:b 1 0 n 1 m n
  else if row_vector_against a b then
    let m = Shape.dim a.shape 0 and n = Shape.dim a.shape 1 in
    binop_run op a b ~dst ~full:a n 1 0 1 m n
  else if row_vector_against b a then
    let m = Shape.dim b.shape 0 and n = Shape.dim b.shape 1 in
    binop_run op a b ~dst ~full:b 0 1 n 1 m n
  else binop_shape_error a b

let unop_into op src ~dst =
  unop_check src dst;
  if un_nan_pair op then Reference.unop_into op src ~dst
  else unop_native (un_code op) (un_factor op) dst.data src.data (numel src)

let add_into a b ~dst = binop_into Badd a b ~dst
let mul_into a b ~dst = binop_into Bmul a b ~dst
let tanh_inplace t = unop_into Utanh t ~dst:t
let sigmoid_inplace t = unop_into Usigmoid t ~dst:t

let bias_act_run ~bias ~act ~dst brs bcs m n =
  if
    un_nan_pair act
    || bias_act_native (un_code act) (un_factor act) dst.data bias.data brs bcs
         m n
       <> 0
  then Reference.add_bias_act_into ~bias ~act ~dst

(* dst.(i) <- act (dst.(i) + bias.(..)) in one pass, no allocation.
   Exposed directly (non-optional labels, so callers on zero-alloc
   paths never box an option) and used by [apply_epilogue]. *)
let add_bias_act_into ~bias ~act ~dst =
  if Shape.equal bias.shape dst.shape then
    bias_act_run ~bias ~act ~dst 0 1 1 (numel dst)
  else if Shape.rank bias.shape = 0 then
    bias_act_run ~bias ~act ~dst 0 0 1 (numel dst)
  else if col_vector_against dst bias then
    bias_act_run ~bias ~act ~dst 1 0 (Shape.dim dst.shape 0)
      (Shape.dim dst.shape 1)
  else if row_vector_against dst bias then
    bias_act_run ~bias ~act ~dst 0 1 (Shape.dim dst.shape 0)
      (Shape.dim dst.shape 1)
  else bias_shape_error bias dst

let apply_epilogue ep ~dst =
  match (ep.ep_bias, ep.ep_act) with
  | None, None -> ()
  | Some bias, Some act -> add_bias_act_into ~bias ~act ~dst
  | Some bias, None -> binop_into Badd dst bias ~dst
  | None, Some act -> unop_into act dst ~dst

let mul_tanh_into a b ~dst =
  mul_tanh_check a b dst;
  if mul_tanh_native dst.data a.data b.data (numel a) <> 0 then
    Reference.mul_tanh_into a b ~dst

let row_max_into src ~dst =
  require_rank2 "Tensor.row_max" src;
  let m = Shape.dim src.shape 0 and n = Shape.dim src.shape 1 in
  require_dims2 "Tensor.row_max_into" dst m 1;
  row_max_native dst.data src.data m n

let row_sum_into src ~dst =
  require_rank2 "Tensor.row_sum" src;
  let m = Shape.dim src.shape 0 and n = Shape.dim src.shape 1 in
  require_dims2 "Tensor.row_sum_into" dst m 1;
  if row_sum_native dst.data src.data m n > 0 then
    Reference.row_sum_into src ~dst

(* The stub stops before the first row holding a NaN; the reference
   finishes from there. *)
let softmax_into src ~dst =
  softmax_check src dst;
  let m = Shape.dim src.shape 0 and n = Shape.dim src.shape 1 in
  let lo = softmax_native dst.data src.data m n in
  if lo < m then softmax_rows src.data dst.data ~n ~lo ~hi:m

let softmax_inplace t = softmax_into t ~dst:t

(* The accumulation of a native GEMM: [beta = 0.] calls run the C
   kernel, whose NaN count sends the call back to the OCaml loop on a
   refilled [dst]. *)
let gemm_acc ~alpha ~beta ad bd dd ~m ~k ~n =
  if beta <> 0.0 then gemm_acc_ocaml ~alpha ad bd dd ~m ~k ~n
  else if gemm_acc_native dd ad bd m k n alpha > 0 then begin
    A.fill dd 0.0;
    gemm_acc_ocaml ~alpha ad bd dd ~m ~k ~n
  end

let matmul_into ?(alpha = 1.0) ?(beta = 1.0) ?(transpose_b = false) ?epilogue
    ~dst a b =
  check_matmul_into ~transpose_b ~dst a b;
  let m = Shape.dim a.shape 0 and k = Shape.dim a.shape 1 in
  let n = Shape.dim dst.shape 1 in
  let ad = a.data and bd = b.data and dd = dst.data in
  apply_beta beta dd (m * n);
  if transpose_b then gemm_acc_transposed ~alpha ad bd dd ~m ~k ~n
  else gemm_acc ~alpha ~beta ad bd dd ~m ~k ~n;
  match epilogue with None -> () | Some ep -> apply_epilogue ep ~dst

(* A copy, so bitwise by construction; 8x8 blocks in C, where the
   [transpose] loop above strides a whole column of [dst] per row. *)
let transpose_into src ~dst =
  require_rank2 "Tensor.transpose" src;
  let m = Shape.dim src.shape 0 and n = Shape.dim src.shape 1 in
  require_dims2 "Tensor.transpose_into" dst n m;
  if dst.data == src.data then
    invalid_arg "Tensor.transpose_into: dst must not alias the source";
  transpose_native dst.data src.data m n
