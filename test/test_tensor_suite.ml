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
          Tensor.map_into Tensor.Fmath.tanh c' ~dst:h';
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
        checkb "tanh" true (bits_equal t (Tensor.map Tensor.Fmath.tanh x));
        let s = Tensor.copy x in
        Tensor.sigmoid_inplace s;
        checkb "sigmoid" true
          (bits_equal s (Tensor.map Tensor.Fmath.sigmoid x));
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
        let sigmoid = Tensor.map Tensor.Fmath.sigmoid in
        let i = sigmoid (pre 0) and f = sigmoid (pre 1) in
        let o = sigmoid (pre 2) and c_tilde = Tensor.map Tensor.Fmath.tanh (pre 3) in
        let c_want = Tensor.add (Tensor.mul f c) (Tensor.mul i c_tilde) in
        let h_want = Tensor.mul o (Tensor.map Tensor.Fmath.tanh c_want) in
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
             (Tensor.map Tensor.Fmath.tanh
                (Tensor.add
                   (Tensor.add (Tensor.matmul x w) (Tensor.matmul h u))
                   b)));
        checkb "linear" true
          (Tensor.equal_approx ~eps:1e-12
             (Kernels.linear x w b)
             (Tensor.add (Tensor.matmul x w) b)));
  ]

(* Fused epilogues: bitwise identity against the separate reference
   passes for arbitrary shapes (edge tiles, every bias broadcast) — the
   invariant the compiled engine's fusion pass relies on. *)
let epilogue_tests =
  let sh m n = Shape.of_array [| m; n |] in
  [
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
   equal.  Operands that start off a 64-byte boundary (an [of_buffer]
   view) run the same kernels. *)
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
                checkb (label "native") true (Tensor.equal_bits got want))
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
      Alcotest.test_case "matmul_into and transpose_into of a misaligned source"
        `Quick (fun () ->
          let r = Rng.create 11 in
          let m, k, n = (5, 37, 45) in
          let a = operand r ~inf:false ~nan:false (sh m k) in
          (* a [rows,cols] view starting [shift] doubles past a 64-byte
             boundary: shifts 0..7 cover every 8-byte residue of a
             64-byte line *)
          let shifted ~nan shift rows cols =
            let src = operand r ~inf:false ~nan (sh rows cols) in
            let base = Tensor.buffer (Tensor.uninit (sh 1 ((rows * cols) + 8))) in
            checkb "aligned base" true (Aligned.is_aligned base);
            let view = Bigarray.Array1.sub base shift (rows * cols) in
            Bigarray.Array1.blit (Tensor.buffer src) view;
            Tensor.of_buffer (sh rows cols) view
          in
          let want = Tensor.uninit (sh m n) and got = Tensor.uninit (sh m n) in
          List.iter
            (fun nan ->
              for shift = 0 to 7 do
                let label what =
                  Printf.sprintf "%s, shift %d, nan %b" what shift nan
                in
                let b = shifted ~nan shift k n in
                checkb (label "view offset") (shift = 0) (Tensor.is_aligned b);
                Tensor.Reference.matmul_into ~beta:0.0 ~dst:want a b;
                Tensor.matmul_into ~beta:0.0 ~dst:got a b;
                checkb (label "matmul_into") true (Tensor.equal_bits got want);
                let c = shifted ~nan shift n k in
                let ct = Tensor.uninit (sh k n) in
                Tensor.transpose_into c ~dst:ct;
                checkb (label "transpose_into") true
                  (Tensor.equal_bits ct (Tensor.transpose c));
                Tensor.Reference.matmul_into ~beta:0.0 ~dst:want a
                  (Tensor.transpose c);
                Tensor.matmul_into ~beta:0.0 ~dst:got a ct;
                checkb (label "matmul_into on the transpose") true
                  (Tensor.equal_bits got want)
              done)
            [ false; true ]);
    ]

(* The native elementwise tier against [Tensor.Reference], bit for bit.
   Every kernel runs every broadcast case it accepts, with [dst] fresh
   and, where allowed, aliasing the full-shape operand; full shapes
   [2,L] for L = 1..17 and [16,128] (2048 elements), so vector bodies
   and every tail length run.  Values mix signed zeros, subnormals,
   infinities, exp's overflow and underflow range, tanh's saturation
   range and NaNs with random payloads and signs — in one operand and
   in both, where only the NaN fallbacks keep the tiers equal. *)
let elementwise_tests =
  let sh dims = Shape.of_array dims in
  let nan_of r =
    let payload = Int64.logand (Rng.int64 r) 0x000F_FFFF_FFFF_FFFFL in
    let payload = if payload = 0L then 1L else payload in
    let sign = if Rng.int r 2 = 0 then 0L else Int64.min_int in
    Int64.float_of_bits
      (Int64.logor sign (Int64.logor 0x7FF0_0000_0000_0000L payload))
  in
  let operand r ~nan shape =
    Tensor.init shape (fun _ ->
        match Rng.int r 40 with
        | 0 -> 0.0
        | 1 -> -0.0
        | 2 -> 4.9e-324
        | 3 -> -2.5e-310
        | 4 -> infinity
        | 5 -> neg_infinity
        | 6 -> Rng.uniform r ~lo:(-800.0) ~hi:800.0
        | 7 -> Rng.uniform r ~lo:(-25.0) ~hi:25.0
        | 8 | 9 when nan -> nan_of r
        | _ -> Rng.uniform r ~lo:(-2.0) ~hi:2.0)
  in
  let widths = List.init 17 (fun i -> i + 1) in
  let fulls = List.map (fun n -> (2, n)) widths @ [ (16, 128) ] in
  (* (name, a shape, b shape, which operand is full) for a [m,n] result *)
  let cases m n =
    [
      ("same", [| m; n |], [| m; n |], `A);
      ("b scalar", [| m; n |], [||], `A);
      ("a scalar", [||], [| m; n |], `B);
      ("b column", [| m; n |], [| m; 1 |], `A);
      ("a column", [| m; 1 |], [| m; n |], `B);
      ("b row", [| m; n |], [| 1; n |], `A);
      ("a row", [| 1; n |], [| m; n |], `B);
    ]
  in
  let kinds = [ ("no nan", false, false); ("nan in a", true, false);
                ("nan in b", false, true); ("nan in both", true, true) ] in
  let ops = Tensor.[ ("add", Badd); ("sub", Bsub); ("mul", Bmul);
                     ("div", Bdiv); ("max", Bmax) ] in
  let acts = Tensor.[ ("tanh", Utanh); ("sigmoid", Usigmoid); ("exp", Uexp);
                      ("neg", Uneg); ("relu", Urelu); ("scale", Uscale (-0.75));
                      ("scale nan", Uscale (nan_of (Rng.create 3))) ] in
  let same label got want = checkb label true (Tensor.equal_bits got want) in
  (* a fresh NaN-filled dst for each tier *)
  let fresh label ~like run_native run_reference =
    let got = Tensor.full (Tensor.shape like) nan in
    let want = Tensor.full (Tensor.shape like) nan in
    run_native got;
    run_reference want;
    same (label ^ ", fresh dst") got want
  in
  let binop_case (m, n) =
    Alcotest.test_case
      (Printf.sprintf "[%d,%d]: binop_into = Reference bitwise" m n)
      `Quick (fun () ->
        let r = Rng.create ((m * 131) + n) in
        List.iter
          (fun (case, ash, bsh, full) ->
            List.iter
              (fun (kind, anan, bnan) ->
                let a = operand r ~nan:anan (sh ash)
                and b = operand r ~nan:bnan (sh bsh) in
                List.iter
                  (fun (name, op) ->
                    let label = Printf.sprintf "%s, %s, %s" name case kind in
                    let fa = match full with `A -> a | `B -> b in
                    fresh label ~like:fa
                      (fun dst -> Tensor.binop_into op a b ~dst)
                      (fun dst -> Tensor.Reference.binop_into op a b ~dst);
                    (* dst is a copy of the full operand, passed in its place *)
                    let aliased into =
                      let d = Tensor.copy fa in
                      (match full with
                      | `A -> into op d b ~dst:d
                      | `B -> into op a d ~dst:d);
                      d
                    in
                    let got = aliased Tensor.binop_into
                    and want = aliased Tensor.Reference.binop_into in
                    same (label ^ ", dst aliases the full operand") got want)
                  ops)
              kinds)
          (cases m n))
  in
  let unary_case (m, n) =
    Alcotest.test_case
      (Printf.sprintf "[%d,%d]: unop_into, mul_tanh_into = Reference bitwise" m n)
      `Quick (fun () ->
        let r = Rng.create ((m * 137) + n) in
        List.iter
          (fun (kind, anan, bnan) ->
            let a = operand r ~nan:anan (sh [| m; n |])
            and b = operand r ~nan:bnan (sh [| m; n |]) in
            List.iter
              (fun (name, op) ->
                fresh (name ^ ", " ^ kind) ~like:a
                  (fun dst -> Tensor.unop_into op a ~dst)
                  (fun dst -> Tensor.Reference.unop_into op a ~dst);
                let got = Tensor.copy a and want = Tensor.copy a in
                Tensor.unop_into op got ~dst:got;
                Tensor.Reference.unop_into op want ~dst:want;
                same (name ^ ", " ^ kind ^ ", in place") got want)
              acts;
            fresh ("mul_tanh, " ^ kind) ~like:a
              (fun dst -> Tensor.mul_tanh_into a b ~dst)
              (fun dst -> Tensor.Reference.mul_tanh_into a b ~dst);
            let got = Tensor.copy a and want = Tensor.copy a in
            Tensor.mul_tanh_into got b ~dst:got;
            Tensor.Reference.mul_tanh_into want b ~dst:want;
            same ("mul_tanh, " ^ kind ^ ", dst aliases a") got want)
          kinds)
  in
  let bias_case (m, n) =
    Alcotest.test_case
      (Printf.sprintf "[%d,%d]: add_bias_act_into = Reference bitwise" m n)
      `Quick (fun () ->
        let r = Rng.create ((m * 139) + n) in
        List.iter
          (fun (bname, bsh) ->
            List.iter
              (fun (kind, dnan, bnan) ->
                let d0 = operand r ~nan:dnan (sh [| m; n |])
                and bias = operand r ~nan:bnan (sh bsh) in
                List.iter
                  (fun (name, act) ->
                    let got = Tensor.copy d0 and want = Tensor.copy d0 in
                    Tensor.add_bias_act_into ~bias ~act ~dst:got;
                    Tensor.Reference.add_bias_act_into ~bias ~act ~dst:want;
                    same (Printf.sprintf "%s, %s bias, %s" name bname kind) got
                      want)
                  acts)
              kinds)
          [ ("full", [| m; n |]); ("scalar", [||]); ("column", [| m; 1 |]);
            ("row", [| 1; n |]) ])
  in
  let rows_case (m, n) =
    Alcotest.test_case
      (Printf.sprintf "[%d,%d]: row_max, row_sum, softmax = Reference bitwise" m n)
      `Quick (fun () ->
        let r = Rng.create ((m * 149) + n) in
        List.iter
          (fun (kind, nan, _) ->
            let src = operand r ~nan (sh [| m; n |]) in
            (* finite rows too: softmax of a row with an infinity is all
               NaN, which would hide a wrong exp *)
            let finite = Tensor.rand r (sh [| m; n |]) in
            List.iter
              (fun (what, src) ->
                let label s = Printf.sprintf "%s, %s, %s" s what kind in
                let col () = Tensor.full (sh [| m; 1 |]) Float.nan in
                let got = col () and want = col () in
                Tensor.row_max_into src ~dst:got;
                Tensor.Reference.row_max_into src ~dst:want;
                same (label "row_max") got want;
                Tensor.row_sum_into src ~dst:got;
                Tensor.Reference.row_sum_into src ~dst:want;
                same (label "row_sum") got want;
                fresh (label "softmax") ~like:src
                  (fun dst -> Tensor.softmax_into src ~dst)
                  (fun dst -> Tensor.Reference.softmax_into src ~dst);
                let got = Tensor.copy src and want = Tensor.copy src in
                Tensor.softmax_into got ~dst:got;
                Tensor.Reference.softmax_into want ~dst:want;
                same (label "softmax in place") got want)
              [ ("mixed", src); ("finite", finite) ])
          kinds)
  in
  let errors =
    Alcotest.test_case "both tiers raise the same shape errors" `Quick
      (fun () ->
        let z dims = Tensor.zeros (sh dims) in
        let a = z [| 2; 3 |] and t = z [| 3; 2 |] in
        let raises label msg native reference =
          Alcotest.check_raises (label ^ ", native") (Invalid_argument msg)
            native;
          Alcotest.check_raises (label ^ ", reference") (Invalid_argument msg)
            reference
        in
        raises "binop dst" "Tensor.binop_into: dst shape mismatch"
          (fun () -> Tensor.binop_into Tensor.Badd a a ~dst:t)
          (fun () -> Tensor.Reference.binop_into Tensor.Badd a a ~dst:t);
        raises "binop operands"
          "Tensor.binop_into: incompatible shapes [2,3] and [3,2]"
          (fun () -> Tensor.binop_into Tensor.Bmul a t ~dst:a)
          (fun () -> Tensor.Reference.binop_into Tensor.Bmul a t ~dst:a);
        raises "unop" "Tensor.unop_into: shape mismatch"
          (fun () -> Tensor.unop_into Tensor.Utanh a ~dst:t)
          (fun () -> Tensor.Reference.unop_into Tensor.Utanh a ~dst:t);
        raises "bias" "Tensor.add_bias_act_into: bias shape [3,2] against [2,3]"
          (fun () -> Tensor.add_bias_act_into ~bias:t ~act:Tensor.Utanh ~dst:a)
          (fun () ->
            Tensor.Reference.add_bias_act_into ~bias:t ~act:Tensor.Utanh ~dst:a);
        raises "mul_tanh" "Tensor.mul_tanh_into: shape mismatch"
          (fun () -> Tensor.mul_tanh_into a t ~dst:a)
          (fun () -> Tensor.Reference.mul_tanh_into a t ~dst:a);
        raises "softmax" "Tensor.softmax_into: shape mismatch"
          (fun () -> Tensor.softmax_into a ~dst:t)
          (fun () -> Tensor.Reference.softmax_into a ~dst:t);
        raises "softmax rank" "Tensor.softmax: expected a rank-2 tensor"
          (fun () -> Tensor.softmax_into (z [| 6 |]) ~dst:(z [| 6 |]))
          (fun () -> Tensor.Reference.softmax_into (z [| 6 |]) ~dst:(z [| 6 |]));
        raises "row_max" "Tensor.row_max_into: dst shape mismatch"
          (fun () -> Tensor.row_max_into a ~dst:(z [| 3; 1 |]))
          (fun () -> Tensor.Reference.row_max_into a ~dst:(z [| 3; 1 |]));
        raises "row_sum" "Tensor.row_sum_into: dst shape mismatch"
          (fun () -> Tensor.row_sum_into a ~dst:(z [| 2; 2 |]))
          (fun () -> Tensor.Reference.row_sum_into a ~dst:(z [| 2; 2 |])))
  in
  List.concat_map
    (fun full -> [ binop_case full; unary_case full; bias_case full; rows_case full ])
    fulls
  @ [ errors ]

(* Fmath against glibc.  Each function is swept over more than 10^5
   fixed points: signed zeros, subnormals, infinities, the extremes of
   the finite range, 64 floats either side of exp's overflow and
   underflow thresholds and of tanh's and sigmoid's range switches and
   saturation, and a grid of 200001 points over [-30, 30].  The maximum
   ulp distance is printed; exp must stay within 1 ulp, tanh and sigmoid
   within 2 (sigmoid's libm counterpart is the same formula over
   [Stdlib.exp]), and the special values must agree bit for bit.  A
   quiet NaN comes back unchanged from both sides.  The interpreter's
   per-element cost ([Tensor.Reference.unop_into]) is printed against
   the same loop over libm, and the median per-round ratio must stay
   within 1.5x, so the interpreter and [ftc conform] do not slow
   down. *)
let fmath_tests =
  (* floats ordered as integers: the ulp distance is their difference *)
  let ordered x =
    let b = Int64.bits_of_float x in
    if Int64.compare b 0L < 0 then Int64.sub Int64.min_int b else b
  in
  let ulps x y =
    if Float.is_nan x || Float.is_nan y then
      if Float.is_nan x && Float.is_nan y then 0L else Int64.max_int
    else Int64.abs (Int64.sub (ordered x) (ordered y))
  in
  let libm_sigmoid x =
    if Float.is_nan x then x
    else
      let e = Stdlib.exp (-.Float.abs x) in
      (if x < 0.0 then e else 1.0) /. (1.0 +. e)
  in
  let neighbours x =
    List.init 129 (fun i ->
        let k = Int64.of_int (i - 64) in
        if x = 0.0 then Int64.float_of_bits (Int64.abs k)
        else Int64.float_of_bits (Int64.add (Int64.bits_of_float x) k))
  in
  let specials =
    [ 0.0; -0.0; infinity; neg_infinity; nan; Float.of_string "-nan";
      Int64.float_of_bits 0x7FF8_0000_DEAD_BEEFL; 4.9e-324; -4.9e-324;
      2.2250738585072009e-308; -2.2250738585072014e-308; max_float;
      -.max_float; min_float ]
  in
  let edges =
    List.concat_map
      (fun x -> neighbours x @ neighbours (-.x))
      [ 7.09782712893383973096e+02; 7.45133219101941108420e+02; 708.39641853226408;
        0.625; 19.06; 22.0; 36.7368005696771; 37.0; 1e-8; 3.7252902984e-09 ]
  in
  let grid = List.init 200_001 (fun i -> -30.0 +. (float_of_int i *. 3e-4)) in
  let points = specials @ edges @ grid in
  let sweep name ours libm bound =
    Alcotest.test_case
      (Printf.sprintf "%s: within %Ld ulp of libm over %d points" name bound
         (List.length points))
      `Quick (fun () ->
        let worst = ref 0L and at = ref 0.0 in
        List.iter
          (fun x ->
            let d = ulps (ours x) (libm x) in
            if Int64.compare d !worst > 0 then begin
              worst := d;
              at := x
            end)
          points;
        Printf.printf "%s: max %Ld ulp from libm (at %h)\n" name !worst !at;
        checkb (Printf.sprintf "%s max ulp %Ld <= %Ld" name !worst bound) true
          (Int64.compare !worst bound <= 0);
        List.iter
          (fun x ->
            checkb
              (Printf.sprintf "%s %h: special value bit for bit" name x)
              true
              (Int64.equal
                 (Int64.bits_of_float (ours x))
                 (Int64.bits_of_float (libm x))))
          specials)
  in
  (* The interpreter's loop (Tensor.Reference.unop_into) against the
     same loop over libm; the libm loops call externals directly, so
     neither side boxes a float. *)
  let module A = Bigarray.Array1 in
  let n = 4096 in
  let src = Tensor.init (Shape.of_array [| n |]) (fun i ->
      -30.0 +. (float_of_int i.(0) *. 60.0 /. float_of_int n)) in
  let dst = Tensor.uninit (Shape.of_array [| n |]) in
  let sd = Tensor.buffer src and dd = Tensor.buffer dst in
  (* 11 rounds, each timing both sides back to back (alternating which
     goes first): the median of the per-round ratios, so a slow phase
     of the shared host hits both sides of a ratio alike *)
  let timed ours libm =
    let reps = 100 in
    let ns run =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        run ()
      done;
      (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (reps * n)
    in
    let rounds =
      Array.init 11 (fun i ->
          if i land 1 = 0 then
            let o = ns ours in
            (o, ns libm)
          else
            let l = ns libm in
            (ns ours, l))
    in
    let median xs =
      let xs = Array.copy xs in
      Array.sort compare xs;
      xs.(Array.length xs / 2)
    in
    ( median (Array.map fst rounds),
      median (Array.map snd rounds),
      median (Array.map (fun (o, l) -> o /. l) rounds) )
  in
  let cost name op libm_loop =
    Alcotest.test_case (name ^ ": OCaml cost within 1.5x of libm") `Quick
      (fun () ->
        let ours, libm, ratio =
          timed (fun () -> Tensor.Reference.unop_into op src ~dst) libm_loop
        in
        Printf.printf "%s: %.2f ns/elem, libm %.2f ns/elem, %.2fx\n" name ours
          libm ratio;
        checkb (Printf.sprintf "%s cost %.2fx libm" name ratio) true
          (ratio <= 1.5))
  in
  let exp_libm () =
    for i = 0 to n - 1 do
      A.unsafe_set dd i (Stdlib.exp (A.unsafe_get sd i))
    done
  and tanh_libm () =
    for i = 0 to n - 1 do
      A.unsafe_set dd i (Stdlib.tanh (A.unsafe_get sd i))
    done
  and sigmoid_libm () =
    for i = 0 to n - 1 do
      let x = A.unsafe_get sd i in
      let e = Stdlib.exp (-.Float.abs x) in
      A.unsafe_set dd i ((if x < 0.0 then e else 1.0) /. (1.0 +. e))
    done
  in
  [
    sweep "exp" Tensor.Fmath.exp Stdlib.exp 1L;
    sweep "tanh" Tensor.Fmath.tanh Stdlib.tanh 2L;
    sweep "sigmoid" Tensor.Fmath.sigmoid libm_sigmoid 2L;
    cost "exp" Tensor.Uexp exp_libm;
    cost "tanh" Tensor.Utanh tanh_libm;
    cost "sigmoid" Tensor.Usigmoid sigmoid_libm;
    Alcotest.test_case "the reference loops inline Fmath: no allocation"
      `Quick (fun () ->
        List.iter
          (fun op ->
            Tensor.Reference.unop_into op src ~dst;
            let w0 = Gc.minor_words () in
            Tensor.Reference.unop_into op src ~dst;
            checkb "minor words" true (Gc.minor_words () -. w0 < 1.0))
          Tensor.[ Uexp; Utanh; Usigmoid ]);
  ]

(* Payloads are born 64-byte aligned from [Aligned.floor] doubles on,
   and the GC is told their size: an allocate-and-drop loop keeps the
   process's peak RSS flat.  [transpose_into], the native copy behind
   [@T], is bitwise the interpreter's [transpose]. *)
let aligned_tests =
  let sh m n = Shape.of_array [| m; n |] in
  let fl = Aligned.floor in
  let vm_hwm_kb () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          match input_line ic with
          | l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" Fun.id
          | _ -> find ()
          | exception End_of_file -> Alcotest.fail "no VmHWM line"
        in
        find ())
  in
  [
    Alcotest.test_case "payloads start on a 64-byte boundary from the floor on"
      `Quick (fun () ->
        let r = Rng.create 3 in
        List.iter
          (fun n ->
            let label what = Printf.sprintf "%s of %d" what n in
            (* many of each: one aligned malloc could be luck *)
            for _ = 1 to 32 do
              let u = Tensor.uninit (sh 1 n) and z = Tensor.zeros (sh 1 n) in
              let x = Tensor.rand r (sh n 1) in
              let c = Tensor.copy x and t = Tensor.transpose x in
              checkb (label "copy") true (Tensor.equal_bits c x);
              checki (label "numel") n (Tensor.numel u);
              let a = Arena.create ~floats:n in
              let v = Arena.view a ~off:0 ~len:n in
              checkb (label "arena zeroed") true
                (Tensor.equal_bits (Tensor.of_buffer (sh 1 n) v) z);
              if n >= fl then begin
                checkb (label "uninit") true (Tensor.is_aligned u);
                checkb (label "zeros") true (Tensor.is_aligned z);
                checkb (label "copy") true (Tensor.is_aligned c);
                checkb (label "transpose") true (Tensor.is_aligned t);
                checkb (label "arena") true (Aligned.is_aligned v)
              end
            done)
          [ 1; fl - 1; fl; fl + 1; 1000; 40_000 ]);
    Alcotest.test_case "tensors read back through Marshal are aligned"
      `Quick (fun () ->
        let r = Rng.create 4 in
        let ts = List.init 32 (fun i -> Tensor.rand r (sh 1 (fl - 16 + i))) in
        let ints = Bigarray.(Array1.init int c_layout 100 Fun.id) in
        let ts', ints' =
          Marshal.from_string (Marshal.to_string (ts, ints) []) 0
        in
        List.iter2
          (fun t t' ->
            let n = Tensor.numel t in
            checkb (Printf.sprintf "%d values" n) true (Tensor.equal_bits t t');
            if n >= fl then
              checkb (Printf.sprintf "%d aligned" n) true (Tensor.is_aligned t'))
          ts ts';
        checkb "other bigarrays unchanged" true (ints = ints'));
    Alcotest.test_case "allocate-and-drop churn keeps peak RSS flat" `Quick
      (fun () ->
        (* ~200 MB allocated, touched and dropped in 25k tensors of
           64..2047 doubles: a payload the GC did not account would
           pile up between collections *)
        let before = vm_hwm_kb () in
        let r = Rng.create 5 in
        let sink = ref 0.0 in
        for _ = 1 to 25_000 do
          let n = fl + Rng.int r (2048 - fl) in
          let t = Tensor.zeros (sh 1 n) in
          sink := !sink +. Tensor.get1 t (n - 1)
        done;
        checkf "zeros" 0.0 !sink;
        let grown_mb = float_of_int (vm_hwm_kb () - before) /. 1024.0 in
        checkb (Printf.sprintf "VmHWM grew %.1f MB (bound 16)" grown_mb) true
          (grown_mb < 16.0));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"transpose_into = transpose bitwise"
         QCheck2.Gen.(pair (pair (int_range 1 27) (int_range 1 27)) (int_bound 1000))
         (fun ((m, n), seed) ->
           let r = Rng.create (seed + 1) in
           (* NaN payloads and signed zeros must survive the copy *)
           let src =
             Tensor.init (sh m n) (fun _ ->
                 match Rng.int r 8 with
                 | 0 -> Int64.float_of_bits (Int64.logor 0x7FF0_0000_0000_0001L (Rng.int64 r))
                 | 1 -> -0.0
                 | _ -> Rng.uniform r ~lo:(-1.0) ~hi:1.0)
           in
           let got = Tensor.uninit (sh n m) in
           Tensor.transpose_into src ~dst:got;
           Tensor.equal_bits got (Tensor.transpose src)));
    Alcotest.test_case "transpose_into at workload shapes, and its checks" `Quick
      (fun () ->
        let r = Rng.create 9 in
        List.iter
          (fun (m, n) ->
            let src = Tensor.rand r (sh m n) in
            let got = Tensor.uninit (sh n m) in
            Tensor.transpose_into src ~dst:got;
            checkb (Printf.sprintf "%dx%d" m n) true
              (Tensor.equal_bits got (Tensor.transpose src)))
          [ (32, 64); (64, 32); (96, 96); (1, 300); (300, 1); (257, 129) ];
        let sq = Tensor.rand r (sh 8 8) in
        Alcotest.check_raises "aliased"
          (Invalid_argument "Tensor.transpose_into: dst must not alias the source")
          (fun () -> Tensor.transpose_into sq ~dst:sq);
        Alcotest.check_raises "shape"
          (Invalid_argument "Tensor.transpose_into: dst shape mismatch")
          (fun () -> Tensor.transpose_into (Tensor.rand r (sh 3 5)) ~dst:(Tensor.uninit (sh 3 5))));
  ]

let suites =
  [
    ("shape", shape_tests @ shape_props);
    ("rng", rng_tests);
    ("tensor", tensor_tests @ tensor_props);
    ("tensor-into", into_tests);
    ("tensor-epilogue", epilogue_tests);
    ("tensor-aligned", aligned_tests);
    ("tensor-native", native_tests @ elementwise_tests);
    ("kernels", kernels_tests);
    ("fmath", fmath_tests);
  ]
