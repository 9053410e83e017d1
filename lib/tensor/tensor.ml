module A = Bigarray.Array1

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t

type t = { shape : Shape.t; data : buffer }

(* Bigarray payloads: the GC never scans tensor contents, and the
   in-place kernels below can hand out sub-views without copying.
   [A.create] leaves memory uninitialised — every constructor here
   either fills or completely overwrites it. *)

let alloc n : buffer = A.create Bigarray.Float64 Bigarray.C_layout n

let uninit shape = { shape; data = alloc (Shape.numel shape) }

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

let randn rng shape =
  let t = uninit shape in
  for i = 0 to Shape.numel shape - 1 do
    A.unsafe_set t.data i (Rng.normal rng)
  done;
  t

let shape t = t.shape
let numel t = A.dim t.data
let buffer t = t.data
let data t = Array.init (numel t) (fun i -> A.unsafe_get t.data i)
let get t idx = A.unsafe_get t.data (Shape.ravel t.shape idx)
let get1 t i = A.get t.data i

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
let col_vector_against a b =
  Shape.rank a.shape = 2 && Shape.rank b.shape = 2
  && Shape.dim b.shape 1 = 1
  && Shape.dim a.shape 0 = Shape.dim b.shape 0

let row_vector_against a b =
  Shape.rank a.shape = 2 && Shape.rank b.shape = 2
  && Shape.dim b.shape 0 = 1
  && Shape.dim a.shape 1 = Shape.dim b.shape 1

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

let map2 f a b =
  let out_shape =
    if Shape.equal a.shape b.shape then a.shape
    else if Shape.rank b.shape = 0 then a.shape
    else if Shape.rank a.shape = 0 then b.shape
    else if col_vector_against a b || row_vector_against a b then a.shape
    else if col_vector_against b a || row_vector_against b a then b.shape
    else
      invalid_arg
        (Printf.sprintf "Tensor.map2: incompatible shapes %s and %s"
           (Shape.to_string a.shape) (Shape.to_string b.shape))
  in
  let out = uninit out_shape in
  map2_into f a b ~dst:out;
  out

let maximum = map2 Float.max
let add = map2 ( +. )
let sub = map2 ( -. )
let mul = map2 ( *. )
let div = map2 ( /. )
let scale k = map (fun x -> k *. x)
let neg = map (fun x -> -.x)
let exp = map Stdlib.exp
let tanh = map Stdlib.tanh
let sigmoid = map (fun x -> 1.0 /. (1.0 +. Stdlib.exp (-.x)))
let relu = map (fun x -> if x > 0.0 then x else 0.0)

(* Opcode-dispatch kernels ------------------------------------------

   [map2_into f] calls an unknown closure per element, and on this
   compiler every such call boxes its float arguments — fatal for the
   compiled engine's zero-allocation steady state.  The variants below
   take the operator as a constant constructor matched {e inside} the loop
   (a test and branch, no closure, no boxing) while mirroring
   [map2_into]'s broadcast dispatch and loop order case for case, so
   results are bitwise identical to the closure path. *)

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

(* Toplevel (not a local closure: a closure would allocate on every
   call, and [binop_into] is the compiled executor's hot path). *)
let binop_full_check t dst =
  if not (Shape.equal t.shape dst.shape) then
    invalid_arg "Tensor.binop_into: dst shape mismatch"

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
      A.unsafe_set dd i (apply2 op (A.unsafe_get ad i) (A.unsafe_get bd (i / n)))
    done
  end
  else if col_vector_against b a then begin
    binop_full_check b dst;
    let n = Shape.dim b.shape 1 in
    for i = 0 to numel b - 1 do
      A.unsafe_set dd i (apply2 op (A.unsafe_get ad (i / n)) (A.unsafe_get bd i))
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
  else
    invalid_arg
      (Printf.sprintf "Tensor.binop_into: incompatible shapes %s and %s"
         (Shape.to_string a.shape) (Shape.to_string b.shape))

let[@inline] apply1 op (x : float) =
  match op with
  | Utanh -> Stdlib.tanh x
  | Usigmoid -> 1.0 /. (1.0 +. Stdlib.exp (-.x))
  | Uexp -> Stdlib.exp x
  | Uneg -> -.x
  | Urelu -> if x > 0.0 then x else 0.0
  | Uscale k -> k *. x

let unop_into op src ~dst =
  if not (Shape.equal src.shape dst.shape) then
    invalid_arg "Tensor.unop_into: shape mismatch";
  let sd = src.data and dd = dst.data in
  for i = 0 to numel src - 1 do
    A.unsafe_set dd i (apply1 op (A.unsafe_get sd i))
  done

let add_into a b ~dst = binop_into Badd a b ~dst
let sub_into a b ~dst = binop_into Bsub a b ~dst
let mul_into a b ~dst = binop_into Bmul a b ~dst

let map_inplace f t = map_into f t ~dst:t
let tanh_inplace t = map_inplace Stdlib.tanh t
let sigmoid_inplace t = map_inplace (fun x -> 1.0 /. (1.0 +. Stdlib.exp (-.x))) t

let require_rank2 name t =
  if Shape.rank t.shape <> 2 then
    invalid_arg (name ^ ": expected a rank-2 tensor")

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

(* dst.(i) <- act (dst.(i) + bias.(..)) in one pass, no allocation.
   Exposed directly (non-optional labels, so callers on zero-alloc
   paths never box an option) and used by [apply_epilogue]. *)
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
  else
    invalid_arg
      (Printf.sprintf "Tensor.add_bias_act_into: bias shape %s against %s"
         (Shape.to_string bias.shape) (Shape.to_string dst.shape))

let epilogue_bias_ok ~bias ~dst =
  Shape.equal bias.shape dst.shape
  || Shape.rank bias.shape = 0
  || col_vector_against dst bias
  || row_vector_against dst bias

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
  if not (Shape.equal a.shape b.shape && Shape.equal a.shape dst.shape) then
    invalid_arg "Tensor.mul_tanh_into: shape mismatch";
  let ad = a.data and bd = b.data and dd = dst.data in
  for i = 0 to numel a - 1 do
    A.unsafe_set dd i (A.unsafe_get ad i *. Stdlib.tanh (A.unsafe_get bd i))
  done

(* GEMM ----------------------------------------------------------------

   Two tiers compute the same accumulation dst[i,j] += alpha*a[i,p]*b[p,j]:
   per output element, contributions are added in ascending [p], each as
   [d +. (alpha *. a) *. b], and a [p] whose [alpha *. a] is zero is
   skipped.

   - The OCaml loops below are the reference.  [matmul] (the
     interpreter's GEMM) and the {!Reference} functions run only them.
   - [matmul_into] and [matmul_packed_into] hand the accumulation of a
     [beta = 0.] call to the native kernel in gemm_stubs.c, which keeps
     the same per-element order and never fuse a multiply and an add.
     Their results differ from the reference only when a NaN meets a
     NaN (the C compiler may swap the operands of a commutative op, and
     x86 keeps the first operand's payload).  A NaN that enters the sum
     stays in the output, so the stub returns the NaN count of [dst];
     when it is non-zero the call refills [dst] and re-runs the OCaml
     loop.  Other [beta] values run the OCaml loop directly: their
     original [dst] is gone once the kernel has written it. *)

external gemm_acc_native :
  buffer ->
  buffer ->
  buffer ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (int[@untagged]) = "ft_gemm_acc_byte" "ft_gemm_acc"
[@@noalloc]

external align_pad : buffer -> (int[@untagged])
  = "ft_align_pad_byte" "ft_align_pad"
[@@noalloc]

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

(* The reference accumulation, [b] read as a row-major [k,n] operand
   starting [boff] into [bd].  The k-major inner loop streams rows of
   [b]; blocking the [p] loop bounds the [b] working set for the larger
   shapes without changing the per-element accumulation order (pp
   ascends, p within pp ascends — the order of the unblocked loop). *)
let gemm_acc_ocaml ~alpha (ad : buffer) (bd : buffer) ~boff (dd : buffer) ~m ~k
    ~n =
  let kc = 256 in
  let pp = ref 0 in
  while !pp < k do
    let p_hi = Stdlib.min k (!pp + kc) in
    for i = 0 to m - 1 do
      let arow = i * k and orow = i * n in
      for p = !pp to p_hi - 1 do
        let av = alpha *. A.unsafe_get ad (arow + p) in
        if av <> 0.0 then begin
          let brow = boff + (p * n) in
          for j = 0 to n - 1 do
            A.unsafe_set dd (orow + j)
              (A.unsafe_get dd (orow + j) +. (av *. A.unsafe_get bd (brow + j)))
          done
        end
      done
    done;
    pp := p_hi
  done

(* The accumulation of both tiers; the native kernel's NaN count sends
   the call back to the OCaml loop on a refilled [dst]. *)
let gemm_acc ~native ~alpha ~beta ad bd ~boff dd ~m ~k ~n =
  if not (native && beta = 0.0) then
    gemm_acc_ocaml ~alpha ad bd ~boff dd ~m ~k ~n
  else if gemm_acc_native dd ad bd boff m k n alpha > 0 then begin
    A.fill dd 0.0;
    gemm_acc_ocaml ~alpha ad bd ~boff dd ~m ~k ~n
  end

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

let matmul_into_tier ~native ?(alpha = 1.0) ?(beta = 1.0) ?(transpose_b = false)
    ?epilogue ~dst a b =
  require_rank2 "Tensor.matmul_into" a;
  require_rank2 "Tensor.matmul_into" b;
  require_rank2 "Tensor.matmul_into" dst;
  if dst.data == a.data || dst.data == b.data then
    invalid_arg "Tensor.matmul_into: dst must not alias an operand";
  let m = Shape.dim a.shape 0 and k = Shape.dim a.shape 1 in
  let k' = Shape.dim b.shape (if transpose_b then 1 else 0) in
  let n = Shape.dim b.shape (if transpose_b then 0 else 1) in
  check_gemm "Tensor.matmul_into" ~dst ~m ~k ~k' ~n;
  let ad = a.data and bd = b.data and dd = dst.data in
  apply_beta beta dd (m * n);
  if transpose_b then gemm_acc_transposed ~alpha ad bd dd ~m ~k ~n
  else gemm_acc ~native ~alpha ~beta ad bd ~boff:0 dd ~m ~k ~n;
  match epilogue with None -> () | Some ep -> apply_epilogue ep ~dst

let matmul_into ?alpha ?beta ?transpose_b ?epilogue ~dst a b =
  matmul_into_tier ~native:true ?alpha ?beta ?transpose_b ?epilogue ~dst a b

(* Packed GEMM --------------------------------------------------------

   [pack_b] copies a [k,n] B operand once, row-major, to a 64-byte
   boundary; [matmul_packed_into] runs [matmul_into]'s accumulation
   against the copy.  Values are copied unchanged, so results are
   bit-identical to [matmul_into] on the source. *)

type packed_b = {
  pb_k : int;
  pb_n : int;
  pb_off : int;  (* where the copy starts in [pb_data] *)
  pb_data : buffer;
}

let packed_dims pb = (pb.pb_k, pb.pb_n)

(* [pack_b]'s copy, refilled in place; with [transposed] the operand is
   [b]ᵀ, read straight from [b]. *)
let repack_b ?(transposed = false) pb b =
  require_rank2 "Tensor.repack_b" b;
  let r = Shape.dim b.shape 0 and c = Shape.dim b.shape 1 in
  let k, n = if transposed then (c, r) else (r, c) in
  if k <> pb.pb_k || n <> pb.pb_n then
    invalid_arg "Tensor.repack_b: dims differ from the copy's";
  let data = pb.pb_data and bd = b.data and off = pb.pb_off in
  let sp, sj = if transposed then (1, k) else (n, 1) in
  for p = 0 to k - 1 do
    let row = off + (p * n) in
    for j = 0 to n - 1 do
      A.unsafe_set data (row + j) (A.unsafe_get bd ((p * sp) + (j * sj)))
    done
  done

let pack_b b =
  require_rank2 "Tensor.pack_b" b;
  let k = Shape.dim b.shape 0 and n = Shape.dim b.shape 1 in
  (* The copy starts [pb_off] doubles in, on a 64-byte boundary: a
     full-width AVX-512 load that straddles two cache lines halves the
     native kernel's throughput (24 against 12-14 GFLOP/s on 4x96x96).
     An offset, not a [Bigarray.Array1.sub] view: a view per copy cost
     the compile-heavy e2e workload 0.5 MB of peak RSS. *)
  let data = alloc (Stdlib.max 1 (k * n) + 7) in
  let pb = { pb_k = k; pb_n = n; pb_off = align_pad data; pb_data = data } in
  repack_b pb b;
  pb

let matmul_packed_into_tier ~native ?(alpha = 1.0) ?(beta = 1.0) ?epilogue ~dst
    a pb =
  require_rank2 "Tensor.matmul_packed_into" a;
  require_rank2 "Tensor.matmul_packed_into" dst;
  if dst.data == a.data then
    invalid_arg "Tensor.matmul_packed_into: dst must not alias an operand";
  let m = Shape.dim a.shape 0 and k = Shape.dim a.shape 1 in
  let n = pb.pb_n in
  check_gemm "Tensor.matmul_packed_into" ~dst ~m ~k ~k':pb.pb_k ~n;
  let dd = dst.data in
  apply_beta beta dd (m * n);
  gemm_acc ~native ~alpha ~beta a.data pb.pb_data ~boff:pb.pb_off dd ~m ~k ~n;
  match epilogue with None -> () | Some ep -> apply_epilogue ep ~dst

let matmul_packed_into ?alpha ?beta ?epilogue ~dst a pb =
  matmul_packed_into_tier ~native:true ?alpha ?beta ?epilogue ~dst a pb

module Reference = struct
  let matmul_into ?alpha ?beta ?transpose_b ?epilogue ~dst a b =
    matmul_into_tier ~native:false ?alpha ?beta ?transpose_b ?epilogue ~dst a b

  let matmul_packed_into ?alpha ?beta ?epilogue ~dst a pb =
    matmul_packed_into_tier ~native:false ?alpha ?beta ?epilogue ~dst a pb
end

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

let dot a b =
  if numel a <> numel b then invalid_arg "Tensor.dot: size mismatch";
  let acc = ref 0.0 in
  for i = 0 to numel a - 1 do
    acc := !acc +. (A.unsafe_get a.data i *. A.unsafe_get b.data i)
  done;
  !acc

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

let row_reduce name f init t =
  require_rank2 name t;
  let m = Shape.dim t.shape 0 and n = Shape.dim t.shape 1 in
  ignore init;
  let out = uninit (Shape.of_array [| m; 1 |]) in
  for i = 0 to m - 1 do
    let acc = ref (A.unsafe_get t.data (i * n)) in
    for j = 1 to n - 1 do
      acc := f !acc (A.unsafe_get t.data ((i * n) + j))
    done;
    A.unsafe_set out.data i !acc
  done;
  out

let row_max t = row_reduce "Tensor.row_max" Float.max neg_infinity t
let row_sum t = row_reduce "Tensor.row_sum" ( +. ) 0.0 t

(* Works in place: the max pass only reads, the exp pass reads index
   [base+j] just before overwriting it, and the divide pass touches
   already-written cells. *)
let softmax_into src ~dst =
  require_rank2 "Tensor.softmax" src;
  if not (Shape.equal src.shape dst.shape) then
    invalid_arg "Tensor.softmax_into: shape mismatch";
  let m = Shape.dim src.shape 0 and n = Shape.dim src.shape 1 in
  let sd = src.data and dd = dst.data in
  for i = 0 to m - 1 do
    let base = i * n in
    let mx = ref (A.unsafe_get sd base) in
    for j = 1 to n - 1 do
      let v = A.unsafe_get sd (base + j) in
      if v > !mx then mx := v
    done;
    let z = ref 0.0 in
    for j = 0 to n - 1 do
      let e = Stdlib.exp (A.unsafe_get sd (base + j) -. !mx) in
      A.unsafe_set dd (base + j) e;
      z := !z +. e
    done;
    for j = 0 to n - 1 do
      A.unsafe_set dd (base + j) (A.unsafe_get dd (base + j) /. !z)
    done
  done

let softmax t =
  let out = uninit t.shape in
  softmax_into t ~dst:out;
  out

let softmax_inplace t = softmax_into t ~dst:t

(* Destination-passing mirrors of the remaining pure structural ops the
   interpreter evaluates, for the compiled engine's preallocated scratch.
   Loop order matches the allocating variant in each case, and none of them
   allocate (no [Bigarray.Array1.sub], whose view header is a heap
   block — plain element loops instead). *)

let require_dims2 name t m n =
  if Shape.rank t.shape <> 2 || Shape.dim t.shape 0 <> m
     || Shape.dim t.shape 1 <> n
  then invalid_arg (name ^ ": dst shape mismatch")

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

let transpose_into src ~dst =
  require_rank2 "Tensor.transpose" src;
  let m = Shape.dim src.shape 0 and n = Shape.dim src.shape 1 in
  require_dims2 "Tensor.transpose_into" dst n m;
  let sd = src.data and dd = dst.data in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      A.unsafe_set dd ((j * m) + i) (A.unsafe_get sd ((i * n) + j))
    done
  done

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

let concat_cols_into ts ~dst =
  if Array.length ts = 0 then invalid_arg "Tensor.concat_cols: empty list";
  require_rank2 "Tensor.concat_cols" ts.(0);
  let m = Shape.dim ts.(0).shape 0 in
  require_rank2 "Tensor.concat_cols_into" dst;
  if Shape.dim dst.shape 0 <> m then
    invalid_arg "Tensor.concat_cols_into: dst shape mismatch";
  let total = Shape.dim dst.shape 1 in
  let dd = dst.data in
  let col = ref 0 in
  for ti = 0 to Array.length ts - 1 do
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
