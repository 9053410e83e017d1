(* Unit and property tests for the tensor substrate:
   Shape, Rng, Tensor, Kernels. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let shape_tests =
  [
    Alcotest.test_case "numel and rank" `Quick (fun () ->
        let s = Shape.of_array [| 2; 3; 4 |] in
        checki "rank" 3 (Shape.rank s);
        checki "numel" 24 (Shape.numel s);
        checki "dim" 3 (Shape.dim s 1));
    Alcotest.test_case "scalar" `Quick (fun () ->
        checki "numel" 1 (Shape.numel Shape.scalar);
        checki "rank" 0 (Shape.rank Shape.scalar));
    Alcotest.test_case "strides are row-major" `Quick (fun () ->
        check
          Alcotest.(array int)
          "strides" [| 12; 4; 1 |]
          (Shape.strides (Shape.of_array [| 2; 3; 4 |])));
    Alcotest.test_case "ravel matches strides" `Quick (fun () ->
        let s = Shape.of_array [| 2; 3; 4 |] in
        checki "ravel" 23 (Shape.ravel s [| 1; 2; 3 |]));
    Alcotest.test_case "rejects non-positive extents" `Quick (fun () ->
        Alcotest.check_raises "zero" (Invalid_argument
          "Shape.of_array: axis 1 has non-positive extent 0")
          (fun () -> ignore (Shape.of_array [| 2; 0 |])));
    Alcotest.test_case "concat/drop outer" `Quick (fun () ->
        let s = Shape.of_array [| 3; 4 |] in
        checkb "concat" true
          (Shape.equal (Shape.concat_outer 2 s) (Shape.of_array [| 2; 3; 4 |]));
        checkb "drop" true
          (Shape.equal (Shape.drop_outer s) (Shape.of_array [| 4 |])));
    Alcotest.test_case "broadcastable" `Quick (fun () ->
        let s = Shape.of_array [| 3; 4 |] in
        checkb "same" true (Shape.broadcastable s s);
        checkb "scalar" true (Shape.broadcastable s Shape.scalar);
        checkb "mismatch" false
          (Shape.broadcastable s (Shape.of_array [| 4; 3 |])));
  ]

let shape_props =
  let small_shape =
    QCheck2.Gen.(list_size (int_range 1 4) (int_range 1 5))
    |> QCheck2.Gen.map Shape.of_list
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"unravel inverts ravel" small_shape
         (fun s ->
           let n = Shape.numel s in
           List.for_all
             (fun off -> Shape.ravel s (Shape.unravel s off) = off)
             (List.init (Stdlib.min n 50) (fun i -> i * Stdlib.max 1 (n / 50)))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"numel = product of dims" small_shape
         (fun s -> Shape.numel s = Array.fold_left ( * ) 1 (Shape.dims s)));
  ]

let rng_tests =
  [
    Alcotest.test_case "deterministic" `Quick (fun () ->
        let a = Rng.create 42 and b = Rng.create 42 in
        for _ = 1 to 100 do
          checkf "same stream" (Rng.float a) (Rng.float b)
        done);
    Alcotest.test_case "split is independent" `Quick (fun () ->
        let a = Rng.create 7 in
        let c = Rng.split a in
        checkb "diverges" true (Rng.float a <> Rng.float c));
    Alcotest.test_case "float in [0,1)" `Quick (fun () ->
        let r = Rng.create 1 in
        for _ = 1 to 1000 do
          let v = Rng.float r in
          checkb "range" true (v >= 0.0 && v < 1.0)
        done);
    Alcotest.test_case "int in range" `Quick (fun () ->
        let r = Rng.create 2 in
        for _ = 1 to 1000 do
          let v = Rng.int r 7 in
          checkb "range" true (v >= 0 && v < 7)
        done);
    Alcotest.test_case "normal has roughly zero mean" `Quick (fun () ->
        let r = Rng.create 3 in
        let n = 20000 in
        let sum = ref 0.0 in
        for _ = 1 to n do
          sum := !sum +. Rng.normal r
        done;
        checkb "mean" true (Float.abs (!sum /. float_of_int n) < 0.05));
  ]

let t22 data = Tensor.create (Shape.of_array [| 2; 2 |]) data

let tensor_tests =
  [
    Alcotest.test_case "create validates size" `Quick (fun () ->
        Alcotest.check_raises "short"
          (Invalid_argument "Tensor.create: 3 elements for shape [2,2]")
          (fun () -> ignore (t22 [| 1.; 2.; 3. |])));
    Alcotest.test_case "matmul 2x2" `Quick (fun () ->
        let a = t22 [| 1.; 2.; 3.; 4. |] and b = t22 [| 5.; 6.; 7.; 8. |] in
        let c = Tensor.matmul a b in
        check
          Alcotest.(array (float 1e-9))
          "values" [| 19.; 22.; 43.; 50. |] (Tensor.data c));
    Alcotest.test_case "matmul rejects dim mismatch" `Quick (fun () ->
        let a = Tensor.zeros (Shape.of_array [| 2; 3 |]) in
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Tensor.matmul: inner dims 3 and 2 differ")
          (fun () -> ignore (Tensor.matmul a a)));
    Alcotest.test_case "transpose" `Quick (fun () ->
        let a =
          Tensor.create (Shape.of_array [| 2; 3 |]) [| 1.; 2.; 3.; 4.; 5.; 6. |]
        in
        check
          Alcotest.(array (float 1e-9))
          "values" [| 1.; 4.; 2.; 5.; 3.; 6. |]
          (Tensor.data (Tensor.transpose a)));
    Alcotest.test_case "broadcast column vector" `Quick (fun () ->
        let a = t22 [| 1.; 2.; 3.; 4. |] in
        let col = Tensor.create (Shape.of_array [| 2; 1 |]) [| 10.; 20. |] in
        check
          Alcotest.(array (float 1e-9))
          "a - col" [| -9.; -8.; -17.; -16. |]
          (Tensor.data (Tensor.sub a col)));
    Alcotest.test_case "broadcast row vector" `Quick (fun () ->
        let a = t22 [| 1.; 2.; 3.; 4. |] in
        let row = Tensor.create (Shape.of_array [| 1; 2 |]) [| 10.; 20. |] in
        check
          Alcotest.(array (float 1e-9))
          "a + row" [| 11.; 22.; 13.; 24. |]
          (Tensor.data (Tensor.add a row)));
    Alcotest.test_case "softmax rows sum to one" `Quick (fun () ->
        let rng = Rng.create 5 in
        let a = Tensor.rand rng (Shape.of_array [| 4; 9 |]) in
        let s = Tensor.softmax a in
        let sums = Tensor.row_sum s in
        for i = 0 to 3 do
          checkb "row sum" true
            (Float.abs (Tensor.get s [| i; 0 |] *. 0. +. Tensor.get sums [| i; 0 |] -. 1.0)
             < 1e-6)
        done);
    Alcotest.test_case "softmax is shift invariant" `Quick (fun () ->
        let rng = Rng.create 6 in
        let a = Tensor.rand rng (Shape.of_array [| 3; 5 |]) in
        let shifted = Tensor.map (fun x -> x +. 100.0) a in
        checkb "equal" true
          (Tensor.equal_approx ~eps:1e-5 (Tensor.softmax a)
             (Tensor.softmax shifted)));
    Alcotest.test_case "slice and concat rows roundtrip" `Quick (fun () ->
        let rng = Rng.create 7 in
        let a = Tensor.rand rng (Shape.of_array [| 6; 3 |]) in
        let parts =
          [ Tensor.slice_rows a 0 2; Tensor.slice_rows a 2 5; Tensor.slice_rows a 5 6 ]
        in
        checkb "roundtrip" true
          (Tensor.equal_approx a (Tensor.concat_rows parts)));
    Alcotest.test_case "slice and concat cols roundtrip" `Quick (fun () ->
        let rng = Rng.create 8 in
        let a = Tensor.rand rng (Shape.of_array [| 3; 6 |]) in
        let parts =
          [ Tensor.slice_cols a 0 1; Tensor.slice_cols a 1 4; Tensor.slice_cols a 4 6 ]
        in
        checkb "roundtrip" true
          (Tensor.equal_approx a (Tensor.concat_cols parts)));
    Alcotest.test_case "row_max / row_sum" `Quick (fun () ->
        let a =
          Tensor.create (Shape.of_array [| 2; 3 |]) [| 1.; 5.; 2.; -1.; -7.; 0. |]
        in
        check
          Alcotest.(array (float 1e-9))
          "max" [| 5.; 0. |]
          (Tensor.data (Tensor.row_max a));
        check
          Alcotest.(array (float 1e-9))
          "sum" [| 8.; -8. |]
          (Tensor.data (Tensor.row_sum a)));
    Alcotest.test_case "reshape shares elements" `Quick (fun () ->
        let a = t22 [| 1.; 2.; 3.; 4. |] in
        let b = Tensor.reshape a (Shape.of_array [| 4 |]) in
        checkf "elem" 3.0 (Tensor.get1 b 2));
  ]

let square n = Shape.of_array [| n; n |]

let tensor_props =
  let mat n rng_seed = Tensor.rand (Rng.create rng_seed) (square n) in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:50 ~name:"matmul is associative"
         QCheck2.Gen.(triple (int_range 1 6) (int_bound 1000) (int_bound 1000))
         (fun (n, s1, s2) ->
           let a = mat n s1 and b = mat n s2 and c = mat n (s1 + s2 + 1) in
           Tensor.equal_approx ~eps:1e-4
             (Tensor.matmul (Tensor.matmul a b) c)
             (Tensor.matmul a (Tensor.matmul b c))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:50 ~name:"transpose is an involution"
         QCheck2.Gen.(pair (int_range 1 8) (int_range 1 8))
         (fun (m, n) ->
           let a = Tensor.rand (Rng.create (m + (13 * n))) (Shape.of_array [| m; n |]) in
           Tensor.equal_approx a (Tensor.transpose (Tensor.transpose a))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:50 ~name:"(AB)^T = B^T A^T"
         QCheck2.Gen.(int_range 1 6)
         (fun n ->
           let a = mat n 11 and b = mat n 12 in
           Tensor.equal_approx ~eps:1e-4
             (Tensor.transpose (Tensor.matmul a b))
             (Tensor.matmul (Tensor.transpose b) (Tensor.transpose a))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100 ~name:"add commutes"
         QCheck2.Gen.(int_range 1 8)
         (fun n ->
           let a = mat n 21 and b = mat n 22 in
           Tensor.equal_approx (Tensor.add a b) (Tensor.add b a)));
  ]

let kernels_tests =
  [
    Alcotest.test_case "gemm defaults accumulate c" `Quick (fun () ->
        let a = t22 [| 1.; 0.; 0.; 1. |] in
        let b = t22 [| 2.; 0.; 0.; 2. |] in
        let c = t22 [| 1.; 1.; 1.; 1. |] in
        check
          Alcotest.(array (float 1e-9))
          "values" [| 3.; 1.; 1.; 3. |]
          (Tensor.data (Kernels.gemm ~c a b)));
    Alcotest.test_case "attention equals manual computation" `Quick (fun () ->
        let rng = Rng.create 30 in
        let q = Tensor.rand rng (Shape.of_array [| 3; 4 |]) in
        let k = Tensor.rand rng (Shape.of_array [| 5; 4 |]) in
        let v = Tensor.rand rng (Shape.of_array [| 5; 4 |]) in
        let manual =
          Tensor.matmul (Tensor.softmax (Tensor.matmul q (Tensor.transpose k))) v
        in
        checkb "equal" true
          (Tensor.equal_approx manual (Kernels.attention ~q ~k ~v)));
    Alcotest.test_case "lstm_cell gate maths" `Quick (fun () ->
        (* with identity-free zero weights the cell must be all zeros *)
        let h = Shape.of_array [| 1; 4 |] in
        let w = Shape.of_array [| 4; 4 |] in
        let zeros4 () = Array.init 4 (fun _ -> Tensor.zeros w) in
        let zb () = Array.init 4 (fun _ -> Tensor.zeros h) in
        let c', h' =
          Kernels.lstm_cell ~x:(Tensor.ones h) ~h:(Tensor.zeros h)
            ~c:(Tensor.zeros h) ~ws:(zeros4 ()) ~us:(zeros4 ()) ~bs:(zb ())
        in
        checkb "c'" true (Tensor.equal_approx c' (Tensor.zeros h));
        checkb "h'" true (Tensor.equal_approx h' (Tensor.zeros h)));
    Alcotest.test_case "matmul_flops" `Quick (fun () ->
        checki "flops" 24 (Kernels.matmul_flops ~m:2 ~n:3 ~k:2));
    Alcotest.test_case "lstm_cell fused epilogues: bitwise + fewer allocations"
      `Quick (fun () ->
        let r = Rng.create 91 in
        let sh = Shape.of_array [| 4; 8 |] in
        let wh = Shape.of_array [| 8; 8 |] in
        let x = Tensor.rand r sh and h = Tensor.rand r sh in
        let c = Tensor.rand r sh in
        let ws = Array.init 4 (fun _ -> Tensor.rand r wh) in
        let us = Array.init 4 (fun _ -> Tensor.rand r wh) in
        let bs =
          Array.init 4 (fun _ -> Tensor.rand r (Shape.of_array [| 1; 8 |]))
        in
        (* The pre-fusion implementation, inlined as the reference:
           three allocations and separate bias/activation passes. *)
        let unfused () =
          let gate = Tensor.uninit sh in
          let c' = Tensor.uninit sh in
          let h' = Tensor.uninit sh in
          let activated g act =
            Tensor.matmul_into ~beta:0.0 ~dst:gate x ws.(g);
            Tensor.matmul_into ~beta:1.0 ~dst:gate h us.(g);
            Tensor.add_into gate bs.(g) ~dst:gate;
            act gate
          in
          activated 3 Tensor.tanh_inplace;
          Tensor.copy_into gate ~dst:h';
          activated 0 Tensor.sigmoid_inplace;
          Tensor.mul_into gate h' ~dst:c';
          activated 1 Tensor.sigmoid_inplace;
          Tensor.mul_into gate c ~dst:gate;
          Tensor.add_into c' gate ~dst:c';
          activated 2 Tensor.sigmoid_inplace;
          Tensor.map_into Stdlib.tanh c' ~dst:h';
          Tensor.mul_into gate h' ~dst:h';
          (c', h')
        in
        let cw, hw = unfused () in
        let c', h' = Kernels.lstm_cell ~x ~h ~c ~ws ~us ~bs in
        checkb "c' bitwise" true (Tensor.equal_bits c' cw);
        checkb "h' bitwise" true (Tensor.equal_bits h' hw);
        let words f =
          let n = 50 in
          (* warm up, then measure the steady state *)
          for _ = 1 to 3 do
            ignore (f ())
          done;
          let w0 = Gc.minor_words () in
          for _ = 1 to n do
            ignore (f ())
          done;
          (Gc.minor_words () -. w0) /. float_of_int n
        in
        let fused_words =
          words (fun () -> Kernels.lstm_cell ~x ~h ~c ~ws ~us ~bs)
        in
        let unfused_words = words unfused in
        checkb
          (Printf.sprintf "allocates less (fused %.0f vs unfused %.0f words)"
             fused_words unfused_words)
          true
          (fused_words < unfused_words));
  ]

(* The Bigarray backend's destination-passing ops: each [_into] /
   [_inplace] form must agree with its pure counterpart (bitwise where
   the loop order is identical), and buffer-sharing semantics must be
   what the docs promise. *)
let into_tests =
  let bits_equal = Tensor.equal_bits in
  let rng () = Rng.create 77 in
  [
    Alcotest.test_case "binop_into names itself in its errors" `Quick
      (fun () ->
        let a = Tensor.zeros (Shape.of_array [| 2; 3 |]) in
        Alcotest.check_raises "dst"
          (Invalid_argument "Tensor.binop_into: dst shape mismatch")
          (fun () -> Tensor.binop_into Tensor.Badd a a ~dst:(Tensor.zeros (Shape.of_array [| 3; 2 |])));
        Alcotest.check_raises "operands"
          (Invalid_argument
             "Tensor.binop_into: incompatible shapes [2,3] and [3,2]")
          (fun () ->
            Tensor.binop_into Tensor.Bmul a (Tensor.zeros (Shape.of_array [| 3; 2 |])) ~dst:a));
    Alcotest.test_case "map2_into covers every broadcast form" `Quick
      (fun () ->
        let r = rng () in
        let a = Tensor.rand r (Shape.of_array [| 3; 4 |]) in
        List.iter
          (fun b ->
            let dst = Tensor.uninit (Shape.of_array [| 3; 4 |]) in
            Tensor.map2_into ( +. ) a b ~dst;
            checkb "add_into = add" true (bits_equal dst (Tensor.add a b)))
          [
            Tensor.rand r (Shape.of_array [| 3; 4 |]);
            (* same shape *)
            Tensor.rand r (Shape.of_array [| 1; 4 |]);
            (* row vector *)
            Tensor.rand r (Shape.of_array [| 3; 1 |]);
            (* column vector *)
            Tensor.scalar 2.5 (* scalar *);
          ]);
    Alcotest.test_case "map2_into may alias an operand" `Quick (fun () ->
        let r = rng () in
        let a = Tensor.rand r (Shape.of_array [| 3; 4 |]) in
        let b = Tensor.rand r (Shape.of_array [| 3; 4 |]) in
        let want = Tensor.mul a b in
        let acc = Tensor.copy a in
        Tensor.mul_into acc b ~dst:acc;
        checkb "dst = left operand" true (bits_equal acc want));
    Alcotest.test_case "matmul_into beta/alpha/transpose_b" `Quick (fun () ->
        let r = rng () in
        let a = Tensor.rand r (Shape.of_array [| 3; 5 |]) in
        let b = Tensor.rand r (Shape.of_array [| 5; 4 |]) in
        let bt = Tensor.transpose b in
        (* beta:0 = plain matmul, bitwise (same loop order) *)
        let d0 = Tensor.uninit (Shape.of_array [| 3; 4 |]) in
        Tensor.matmul_into ~beta:0.0 ~dst:d0 a b;
        checkb "beta 0" true (bits_equal d0 (Tensor.matmul a b));
        (* transpose_b reads b^T without materialising it *)
        let dt = Tensor.uninit (Shape.of_array [| 3; 4 |]) in
        Tensor.matmul_into ~beta:0.0 ~transpose_b:true ~dst:dt a bt;
        checkb "transpose_b" true
          (Tensor.equal_approx ~eps:1e-12 dt (Tensor.matmul a b));
        (* alpha scales the product; beta:1 accumulates *)
        let acc = Tensor.copy d0 in
        Tensor.matmul_into ~alpha:2.0 ~beta:1.0 ~dst:acc a b;
        checkb "accumulate" true
          (Tensor.equal_approx ~eps:1e-9 acc
             (Tensor.add d0 (Tensor.scale 2.0 (Tensor.matmul a b)))));
    Alcotest.test_case "activations in place = pure" `Quick (fun () ->
        let r = rng () in
        let x = Tensor.rand r (Shape.of_array [| 4; 6 |]) in
        let t = Tensor.copy x in
        Tensor.tanh_inplace t;
        checkb "tanh" true (bits_equal t (Tensor.map Stdlib.tanh x));
        let s = Tensor.copy x in
        Tensor.sigmoid_inplace s;
        checkb "sigmoid" true
          (bits_equal s (Tensor.map (fun v -> 1. /. (1. +. exp (-.v))) x));
        let sm = Tensor.copy x in
        Tensor.softmax_inplace sm;
        checkb "softmax" true (bits_equal sm (Tensor.softmax x)));
    Alcotest.test_case "equal_bits distinguishes what equal_approx cannot"
      `Quick (fun () ->
        let a = Tensor.scalar 0.0 in
        let b = Tensor.scalar (-0.0) in
        checkb "approx" true (Tensor.equal_approx a b);
        checkb "bits" false (Tensor.equal_bits a b);
        let x = Tensor.scalar 1.0 in
        let y = Tensor.scalar (1.0 +. epsilon_float) in
        checkb "one ulp" false (Tensor.equal_bits x y));
    Alcotest.test_case "data returns a copy; reshape shares the buffer"
      `Quick (fun () ->
        let t = Tensor.create (Shape.of_array [| 2; 2 |]) [| 1.; 2.; 3.; 4. |] in
        let d = Tensor.data t in
        d.(0) <- 99.;
        checkb "detached" true (Tensor.get t [| 0; 0 |] = 1.0);
        let r = Tensor.reshape t (Shape.of_array [| 4 |]) in
        checkb "shared" true (Tensor.buffer r == Tensor.buffer t));
    Alcotest.test_case "lstm_cell = pure composition" `Quick (fun () ->
        let r = rng () in
        let sh = Shape.of_array [| 2; 4 |] in
        let wh = Shape.of_array [| 4; 4 |] in
        let x = Tensor.rand r sh and h = Tensor.rand r sh in
        let c = Tensor.rand r sh in
        let ws = Array.init 4 (fun _ -> Tensor.rand r wh) in
        let us = Array.init 4 (fun _ -> Tensor.rand r wh) in
        let bs = Array.init 4 (fun _ -> Tensor.rand r (Shape.of_array [| 1; 4 |])) in
        let pre g =
          Tensor.add
            (Tensor.add (Tensor.matmul x ws.(g)) (Tensor.matmul h us.(g)))
            bs.(g)
        in
        let sigmoid = Tensor.map (fun v -> 1. /. (1. +. exp (-.v))) in
        let i = sigmoid (pre 0) and f = sigmoid (pre 1) in
        let o = sigmoid (pre 2) and c_tilde = Tensor.map Stdlib.tanh (pre 3) in
        let c_want = Tensor.add (Tensor.mul f c) (Tensor.mul i c_tilde) in
        let h_want = Tensor.mul o (Tensor.map Stdlib.tanh c_want) in
        let c', h' = Kernels.lstm_cell ~x ~h ~c ~ws ~us ~bs in
        checkb "c'" true (Tensor.equal_approx ~eps:1e-12 c' c_want);
        checkb "h'" true (Tensor.equal_approx ~eps:1e-12 h' h_want));
    Alcotest.test_case "rnn_cell and linear = pure compositions" `Quick
      (fun () ->
        let r = rng () in
        let x = Tensor.rand r (Shape.of_array [| 3; 5 |]) in
        let h = Tensor.rand r (Shape.of_array [| 3; 4 |]) in
        let w = Tensor.rand r (Shape.of_array [| 5; 4 |]) in
        let u = Tensor.rand r (Shape.of_array [| 4; 4 |]) in
        let b = Tensor.rand r (Shape.of_array [| 1; 4 |]) in
        checkb "rnn_cell" true
          (Tensor.equal_approx ~eps:1e-12
             (Kernels.rnn_cell ~x ~h ~w ~u ~b)
             (Tensor.map Stdlib.tanh
                (Tensor.add
                   (Tensor.add (Tensor.matmul x w) (Tensor.matmul h u))
                   b)));
        checkb "linear" true
          (Tensor.equal_approx ~eps:1e-12
             (Kernels.linear x w b)
             (Tensor.add (Tensor.matmul x w) b)));
  ]

(* Packed GEMM and fused epilogues: bitwise identity against the
   reference kernels for arbitrary shapes (edge tiles, the alpha-zero
   skip) — the invariant the compiled engine's fusion pass relies on. *)
let packed_tests =
  let sh m n = Shape.of_array [| m; n |] in
  let sparse_rand r shape =
    (* Exact zeros with ~25% probability, to exercise the zero-skip. *)
    Tensor.init shape (fun _ ->
        if Rng.int r 4 = 0 then 0.0 else Rng.uniform r ~lo:(-1.0) ~hi:1.0)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:150
         ~name:"matmul_packed_into = matmul_into bitwise"
         QCheck2.Gen.(
           pair
             (triple (int_range 1 9) (int_range 1 19) (int_range 1 13))
             (int_bound 1000))
         (fun ((m, k, n), seed) ->
           let r = Rng.create (seed + 1) in
           let a = sparse_rand r (sh m k) and b = Tensor.rand r (sh k n) in
           let want = Tensor.uninit (sh m n) in
           Tensor.matmul_into ~beta:0.0 ~dst:want a b;
           let pb = Tensor.pack_b b in
           let got = Tensor.uninit (sh m n) in
           Tensor.matmul_packed_into ~beta:0.0 ~dst:got a pb;
           Tensor.equal_bits got want));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:60
         ~name:"matmul_packed_into alpha/beta accumulate bitwise"
         QCheck2.Gen.(pair (triple (int_range 1 6) (int_range 1 10) (int_range 1 8)) (int_bound 1000))
         (fun ((m, k, n), seed) ->
           let r = Rng.create (seed + 7) in
           let a = sparse_rand r (sh m k) and b = Tensor.rand r (sh k n) in
           let acc0 = Tensor.rand r (sh m n) in
           let want = Tensor.copy acc0 in
           Tensor.matmul_into ~alpha:2.0 ~beta:1.0 ~dst:want a b;
           let got = Tensor.copy acc0 in
           let pb = Tensor.pack_b b in
           Tensor.matmul_packed_into ~alpha:2.0 ~beta:1.0 ~dst:got a pb;
           Tensor.equal_bits got want));
    Alcotest.test_case "repack_b refills a panel as pack_b packs it" `Quick
      (fun () ->
        let r = Rng.create 43 in
        let b = Tensor.rand r (sh 7 11) and b' = Tensor.rand r (sh 7 11) in
        let a = Tensor.rand r (sh 4 7) in
        let pb = Tensor.pack_b b in
        Tensor.repack_b pb b';
        let want = Tensor.uninit (sh 4 11) and got = Tensor.uninit (sh 4 11) in
        Tensor.matmul_packed_into ~beta:0.0 ~dst:want a (Tensor.pack_b b');
        Tensor.matmul_packed_into ~beta:0.0 ~dst:got a pb;
        checkb "bitwise" true (Tensor.equal_bits got want);
        Alcotest.check_raises "other dims"
          (Invalid_argument "Tensor.repack_b: dims differ from the copy's")
          (fun () -> Tensor.repack_b pb (Tensor.rand r (sh 11 7)));
        (* transposed: refilled from the untransposed tensor *)
        let c = Tensor.rand r (sh 11 7) and c' = Tensor.rand r (sh 11 7) in
        let pt = Tensor.pack_b (Tensor.transpose c) in
        let against x =
          Tensor.matmul_packed_into ~beta:0.0 ~dst:want a
            (Tensor.pack_b (Tensor.transpose x));
          Tensor.matmul_packed_into ~beta:0.0 ~dst:got a pt;
          Tensor.equal_bits got want
        in
        checkb "packed transpose" true (against c);
        Tensor.repack_b ~transposed:true pt c';
        checkb "transposed repack" true (against c'));
    Alcotest.test_case "pack_b matches at workload shapes"
      `Quick (fun () ->
        let r = Rng.create 41 in
        List.iter
          (fun (m, k, n) ->
            let a = Tensor.rand r (sh m k) and b = Tensor.rand r (sh k n) in
            let want = Tensor.uninit (sh m n) in
            Tensor.matmul_into ~beta:0.0 ~dst:want a b;
            let got = Tensor.uninit (sh m n) in
            Tensor.matmul_packed_into ~beta:0.0 ~dst:got a (Tensor.pack_b b);
            checkb "bitwise" true (Tensor.equal_bits got want))
          [ (1, 96, 96); (4, 96, 96); (64, 512, 512); (3, 300, 260) ]);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:80
         ~name:"epilogue fusion = separate bias/act passes bitwise"
         QCheck2.Gen.(pair (pair (int_range 1 6) (int_range 1 8)) (pair (int_bound 3) (int_bound 1000)))
         (fun ((m, n), (bias_kind, seed)) ->
           let r = Rng.create (seed + 3) in
           let k = 5 in
           let a = Tensor.rand r (sh m k) and b = Tensor.rand r (sh k n) in
           let bias =
             match bias_kind with
             | 0 -> Tensor.rand r (sh m n)
             | 1 -> Tensor.rand r (sh 1 n)
             | 2 -> Tensor.rand r (sh m 1)
             | _ -> Tensor.scalar (Rng.normal r)
           in
           List.for_all
             (fun act ->
               let want = Tensor.uninit (sh m n) in
               Tensor.matmul_into ~beta:0.0 ~dst:want a b;
               Tensor.add_into want bias ~dst:want;
               Tensor.unop_into act want ~dst:want;
               let got = Tensor.uninit (sh m n) in
               Tensor.matmul_into ~beta:0.0
                 ~epilogue:(Tensor.epilogue ~bias ~act ())
                 ~dst:got a b;
               Tensor.equal_bits got want)
             [ Tensor.Utanh; Tensor.Usigmoid; Tensor.Urelu; Tensor.Uscale 0.5 ]));
    Alcotest.test_case "epilogue bias-only and act-only forms" `Quick (fun () ->
        let r = Rng.create 43 in
        let a = Tensor.rand r (sh 3 5) and b = Tensor.rand r (sh 5 4) in
        let bias = Tensor.rand r (sh 1 4) in
        let want = Tensor.uninit (sh 3 4) in
        Tensor.matmul_into ~beta:0.0 ~dst:want a b;
        Tensor.add_into want bias ~dst:want;
        let got = Tensor.uninit (sh 3 4) in
        Tensor.matmul_into ~beta:0.0 ~epilogue:(Tensor.epilogue ~bias ())
          ~dst:got a b;
        checkb "bias only" true (Tensor.equal_bits got want);
        let want2 = Tensor.uninit (sh 3 4) in
        Tensor.matmul_into ~beta:0.0 ~dst:want2 a b;
        Tensor.unop_into Tensor.Utanh want2 ~dst:want2;
        let got2 = Tensor.uninit (sh 3 4) in
        Tensor.matmul_into ~beta:0.0
          ~epilogue:(Tensor.epilogue ~act:Tensor.Utanh ())
          ~dst:got2 a b;
        checkb "act only" true (Tensor.equal_bits got2 want2));
    Alcotest.test_case "mul_tanh_into = tanh-then-mul, aliasing allowed" `Quick
      (fun () ->
        let r = Rng.create 44 in
        let a = Tensor.rand r (sh 4 6) and b = Tensor.rand r (sh 4 6) in
        let tmp = Tensor.uninit (sh 4 6) in
        Tensor.unop_into Tensor.Utanh b ~dst:tmp;
        let want = Tensor.uninit (sh 4 6) in
        Tensor.mul_into a tmp ~dst:want;
        let got = Tensor.uninit (sh 4 6) in
        Tensor.mul_tanh_into a b ~dst:got;
        checkb "fused" true (Tensor.equal_bits got want);
        let aliased = Tensor.copy a in
        Tensor.mul_tanh_into aliased b ~dst:aliased;
        checkb "aliased" true (Tensor.equal_bits aliased want));
  ]

(* The native GEMM tier against the OCaml reference loops, bit for bit.
   Shapes cover m = 1, k past the 256-wide contraction block, widths
   that leave a partial 32- and 8-wide j-tile, and the workload shapes;
   values cover signed zeros (the zero-skip), infinities (which make
   NaNs inside the sum) and NaNs with random payloads and signs in [a],
   in [b] and in both — where only the NaN fallback keeps the tiers
   equal.  [pack_b] and [repack_b] also copy sources that start off a
   64-byte boundary, the one job packing keeps. *)
let native_tests =
  let sh m n = Shape.of_array [| m; n |] in
  let shapes =
    [
      (1, 40, 70);
      (3, 300, 20);
      (5, 17, 45);
      (2, 9, 3);
      (4, 96, 96);
      (8192, 64, 64);
      (1, 128, 128);
      (32, 32, 64);
    ]
  in
  let alphas = [ 1.0; 0.5; -2.0 ] in
  let nan_of r =
    (* a quiet or signalling NaN with a random payload and sign *)
    let payload = Int64.logand (Rng.int64 r) 0x000F_FFFF_FFFF_FFFFL in
    let payload = if payload = 0L then 1L else payload in
    let sign = if Rng.int r 2 = 0 then 0L else Int64.min_int in
    Int64.float_of_bits
      (Int64.logor sign (Int64.logor 0x7FF0_0000_0000_0000L payload))
  in
  (* ~1/10 signed zeros, then ~1/25 specials of the given kinds *)
  let operand r ~inf ~nan shape =
    Tensor.init shape (fun _ ->
        match Rng.int r 50 with
        | 0 | 1 | 2 -> 0.0
        | 3 | 4 -> -0.0
        | 5 when inf -> infinity
        | 6 when inf -> neg_infinity
        | 7 when nan -> nan_of r
        | _ -> Rng.uniform r ~lo:(-1.0) ~hi:1.0)
  in
  let kinds =
    [
      ("finite", (false, false), (false, false));
      ("inf", (true, false), (true, false));
      ("nan in a", (false, true), (false, false));
      ("nan in b", (false, false), (false, true));
      ("nan in both", (true, true), (true, true));
    ]
  in
  let case (m, k, n) =
    Alcotest.test_case
      (Printf.sprintf "%dx%dx%d: native = OCaml reference bitwise" m k n)
      `Quick (fun () ->
        let r = Rng.create ((m * 7919) + (k * 31) + n) in
        (* the large shape runs each value kind once, alpha cycling *)
        let alphas_for i =
          if m * k * n > 1_000_000 then [ List.nth alphas (i mod 3) ]
          else alphas
        in
        List.iteri
          (fun i (kind, (ainf, anan), (binf, bnan)) ->
            let a = operand r ~inf:ainf ~nan:anan (sh m k) in
            let b = operand r ~inf:binf ~nan:bnan (sh k n) in
            List.iter
              (fun alpha ->
                let label what =
                  Printf.sprintf "%s, %s, alpha %g" what kind alpha
                in
                let want = Tensor.uninit (sh m n) in
                Tensor.Reference.matmul_into ~alpha ~beta:0.0 ~dst:want a b;
                let got = Tensor.full (sh m n) nan in
                Tensor.matmul_into ~alpha ~beta:0.0 ~dst:got a b;
                checkb (label "unpacked") true (Tensor.equal_bits got want);
                let pb = Tensor.pack_b b in
                let reference = Tensor.uninit (sh m n) in
                Tensor.Reference.matmul_packed_into ~alpha ~beta:0.0
                  ~dst:reference a pb;
                checkb (label "packed reference") true
                  (Tensor.equal_bits reference want);
                Tensor.matmul_packed_into ~alpha ~beta:0.0 ~dst:got a pb;
                checkb (label "packed") true (Tensor.equal_bits got want))
              (alphas_for i))
          kinds)
  in
  List.map case shapes
  @ [
      Alcotest.test_case "beta 1 and transpose_b stay on the OCaml loop"
        `Quick (fun () ->
          let r = Rng.create 5 in
          let a = operand r ~inf:false ~nan:true (sh 6 40) in
          let b = operand r ~inf:false ~nan:true (sh 40 33) in
          let acc = Tensor.rand r (sh 6 33) in
          let want = Tensor.copy acc and got = Tensor.copy acc in
          Tensor.Reference.matmul_into ~alpha:0.5 ~dst:want a b;
          Tensor.matmul_into ~alpha:0.5 ~dst:got a b;
          checkb "beta 1" true (Tensor.equal_bits got want);
          let bt = Tensor.transpose b in
          Tensor.Reference.matmul_into ~beta:0.0 ~transpose_b:true ~dst:want a bt;
          Tensor.matmul_into ~beta:0.0 ~transpose_b:true ~dst:got a bt;
          checkb "transpose_b" true (Tensor.equal_bits got want));
      Alcotest.test_case "pack_b and repack_b of a misaligned source" `Quick
        (fun () ->
          let r = Rng.create 11 in
          let m, k, n = (5, 37, 45) in
          let a = operand r ~inf:false ~nan:false (sh m k) in
          (* a [rows,cols] source starting [shift] doubles into its
             buffer: shifts 0..7 cover every 8-byte residue of a 64-byte
             line, so seven of them start 1-7 doubles off the boundary *)
          let shifted ~nan shift rows cols =
            let src = operand r ~inf:false ~nan (sh rows cols) in
            let buf =
              Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
                ((rows * cols) + shift)
            in
            let view = Bigarray.Array1.sub buf shift (rows * cols) in
            Bigarray.Array1.blit (Tensor.buffer src) view;
            Tensor.of_buffer (sh rows cols) view
          in
          let want = Tensor.uninit (sh m n) and got = Tensor.uninit (sh m n) in
          let check label pb b =
            Tensor.Reference.matmul_into ~beta:0.0 ~dst:want a b;
            Tensor.matmul_packed_into ~beta:0.0 ~dst:got a pb;
            checkb (label ^ ", native") true (Tensor.equal_bits got want);
            Tensor.Reference.matmul_packed_into ~beta:0.0 ~dst:got a pb;
            checkb (label ^ ", reference") true (Tensor.equal_bits got want)
          in
          let pt = Tensor.pack_b (Tensor.zeros (sh k n)) in
          List.iter
            (fun nan ->
              for shift = 0 to 7 do
                let label what =
                  Printf.sprintf "%s, shift %d, nan %b" what shift nan
                in
                let b = shifted ~nan shift k n in
                check (label "pack_b") (Tensor.pack_b b) b;
                let c = shifted ~nan shift n k in
                Tensor.repack_b ~transposed:true pt c;
                check (label "repack_b transposed") pt (Tensor.transpose c)
              done)
            [ false; true ]);
    ]

let suites =
  [
    ("shape", shape_tests @ shape_props);
    ("rng", rng_tests);
    ("tensor", tensor_tests @ tensor_props);
    ("tensor-into", into_tests);
    ("tensor-packed", packed_tests);
    ("tensor-native", native_tests);
    ("kernels", kernels_tests);
  ]
