(* Differential fuzzing of the compiler: random programs in the
   supported fragment are built, compiled (Build → validate → the
   compiled engine in wavefront order) and executed; the result must
   equal the interpreter's, which defines the semantics.  Any
   divergence is a compiler bug: a wrong access map, region domain,
   result operand or schedule. *)

let checkb = Alcotest.(check bool)

(* A random program family:

     xss.map { |xs| xs.<access>.<agg>(zeros) { |s, x| <udf> } }

   with a random batch/sequence extent, a random access operator on the
   sequence, a random aggregate (or map), a random elementwise UDF over
   (s, x), and a random form: flat (as above), zip (the aggregate runs
   over zip(xs', xs')), or window (a depth-increasing access with the
   aggregate mapped over each window). *)

type form = F_flat | F_zip | F_window of { size : int; stride : int }

type spec = {
  batch : int;
  seq : int;
  width : int;
  access : Expr.access option;
  form : form;
  kind : Expr.soac_kind;
  udf : int; (* selects a body *)
}

(* Reversed and indirect access are interpreter-only today: the fuzzer
   asserts Build.build refuses them (the fragment boundary is part of
   the contract — growing it must come with conformance coverage). *)
let access_compiled = function
  | Some (Expr.Linear { reverse = true; _ }) | Some (Expr.Indirect _) -> false
  | _ -> true

let gen_spec =
  QCheck2.Gen.(
    let* batch = int_range 1 3 in
    let* seq = int_range 2 8 in
    let* width = int_range 1 5 in
    let* access =
      oneof
        [
          return None;
          (let* shift = int_range 0 (seq - 1) in
           let* reverse = bool in
           return (Some (Expr.Linear { shift; reverse })));
          (let* start = int_range 0 (min 2 (seq - 1)) in
           let* step = int_range 1 3 in
           return (Some (Expr.Strided { start; step })));
          (let* lo = int_range 0 (seq - 1) in
           let* hi = int_range (lo + 1) seq in
           return (Some (Expr.Slice { lo; hi })));
          (let* m = int_range 1 (min seq 4) in
           let* idx = list_repeat m (int_range 0 (seq - 1)) in
           return (Some (Expr.Indirect (Array.of_list idx))));
        ]
    in
    let* form =
      frequency
        [
          (6, return F_flat);
          (2, return F_zip);
          ( 2,
            let* size = int_range 2 (min 3 seq) in
            let* stride = int_range 1 2 in
            return (F_window { size; stride }) );
        ]
    in
    (* window composes with the chain only when enough elements remain;
       keep the family simple by windowing the raw sequence *)
    let form = match form with F_window _ when access <> None -> F_flat | f -> f in
    let* kind =
      oneofl
        [ Expr.Map; Expr.Scanl; Expr.Foldl; Expr.Reduce; Expr.Scanr;
          Expr.Foldr ]
    in
    let* udf = int_range 0 4 in
    return { batch; seq; width; access; form; kind; udf })

let build_program spec =
  let token = Shape.of_array [| 1; spec.width |] in
  let open Expr in
  let seq_expr =
    match spec.access with
    | None -> Var "xs"
    | Some a -> Access (a, Var "xs")
  in
  let body s x =
    match spec.udf with
    | 0 -> Add @@@ [ s; x ]
    | 1 -> Add @@@ [ Mul @@@ [ s; x ]; x ]
    | 2 -> Maximum @@@ [ s; Tanh @@@ [ x ] ]
    | 3 -> Add @@@ [ Scale 0.5 @@@ [ s ]; Sigmoid @@@ [ x ] ]
    | _ -> Sub @@@ [ Mul @@@ [ s; Lit (Tensor.full token 0.9) ]; Neg @@@ [ x ] ]
  in
  let agg over =
    match spec.kind with
    | Map ->
        map_e ~params:[ "x" ]
          ~body:(body (Lit (Tensor.ones token)) (Var "x"))
          over
    | kind ->
        Soac
          {
            kind;
            fn = { params = [ "s"; "x" ]; body = body (Var "s") (Var "x") };
            init = Some (Lit (Tensor.zeros token));
            xs = over;
          }
  in
  let inner =
    match spec.form with
    | F_flat -> agg seq_expr
    | F_zip -> (
        let zipped = Zip [ seq_expr; seq_expr ] in
        match spec.kind with
        | Map ->
            map_e ~params:[ "a"; "b" ]
              ~body:
                (body (Lit (Tensor.ones token)) (Add @@@ [ Var "a"; Var "b" ]))
              zipped
        | kind ->
            Soac
              {
                kind;
                fn =
                  {
                    params = [ "s"; "a"; "b" ];
                    body = body (Var "s") (Add @@@ [ Var "a"; Var "b" ]);
                  };
                init = Some (Lit (Tensor.zeros token));
                xs = zipped;
              })
    | F_window { size; stride } ->
        map_e ~params:[ "w" ] ~body:(agg (Var "w"))
          (Access (Windowed { size; stride; dilation = 1 }, seq_expr))
  in
  {
    name = "fuzz";
    inputs = [ ("xss", List_ty (spec.batch, List_ty (spec.seq, Tensor_ty token))) ];
    body = map_e ~params:[ "xs" ] ~body:inner (Var "xss");
  }

(* Project the VM's output (which materialises fold/reduce accumulator
   history as a trailing dimension) down to the interpreter's view. *)
let vm_view spec out =
  let take per_n =
    match spec.kind with
    | Expr.Foldl | Expr.Reduce -> Fractal.get per_n (Fractal.length per_n - 1)
    | Expr.Foldr ->
        (* a right fold finishes at storage index 0 *)
        Fractal.get per_n 0
    | _ -> per_n
  in
  match spec.kind with
  | Expr.Map | Expr.Scanl | Expr.Scanr -> out
  | Expr.Foldl | Expr.Reduce | Expr.Foldr -> (
      match spec.form with
      | F_window _ ->
          (* the aggregated dimension is one level deeper: per window *)
          Soac.map (Soac.map take) out
      | F_flat | F_zip -> Soac.map take out)

let interp_view spec out =
  ignore spec;
  out

let fuzz_test =
  QCheck2.Test.make ~count:300 ~name:"compiled VM = interpreter (random programs)"
    gen_spec (fun spec ->
      (* reject specs whose access leaves an empty sequence *)
      let ok =
        match spec.access with
        | Some (Expr.Slice { lo; hi }) -> hi - lo >= 1
        | _ -> true
      in
      QCheck2.assume ok;
      let p = build_program spec in
      match Typecheck.check_program p with
      | exception Typecheck.Type_error _ -> QCheck2.assume_fail ()
      | _ -> (
          let rng = Rng.create (spec.batch + (31 * spec.seq) + (977 * spec.udf)) in
          let token = Shape.of_array [| 1; spec.width |] in
          let xss =
            Fractal.tabulate spec.batch (fun _ ->
                Fractal.tabulate spec.seq (fun _ ->
                    Fractal.Leaf (Tensor.scale 0.5 (Tensor.rand rng token))))
          in
          let reference = Interp.run_program p [ ("xss", xss) ] in
          if not (access_compiled spec.access) then
            (* interpreter-only accesses: the interpreter must execute
               them (checked above) and the builder must refuse them *)
            match Build.build p with
            | exception Build.Unsupported _ -> true
            | _ ->
                QCheck2.Test.fail_reportf
                  "fragment boundary moved: reverse/indirect access now \
                   builds — extend the conformance oracles first"
          else
          match Build.build p with
          | exception Build.Unsupported _ -> QCheck2.assume_fail ()
          | g -> (
              (match Ir.validate g with
              | Ok () -> ()
              | Error es ->
                  QCheck2.Test.fail_reportf "invalid graph: %s"
                    (String.concat "; " es));
              match Executor.run g [ ("xss", xss) ] with
              | exception Vm.Execution_error m ->
                  QCheck2.Test.fail_reportf "execution error: %s" m
              | outs ->
                  let got = vm_view spec (List.assoc "fuzz" outs) in
                  Fractal.equal_approx ~eps:1e-4 got (interp_view spec reference))))

(* A second family: two-aggregate nests (the running example's shape)
   with random extents, checking region splitting end to end. *)
let nest_test =
  QCheck2.Test.make ~count:60 ~name:"compiled VM = interpreter (2-aggregate nests)"
    QCheck2.Gen.(triple (int_range 1 3) (int_range 1 4) (int_range 1 5))
    (fun (n, d, l) ->
      let cfg = { Stacked_rnn.batch = n; depth = d; seq_len = l; hidden = 3 } in
      let p = Stacked_rnn.program cfg in
      let inp = Stacked_rnn.gen_inputs (Rng.create (n + d + l)) cfg in
      let outs = Executor.run (Build.build p) (Stacked_rnn.bindings inp) in
      Fractal.equal_approx
        (List.assoc "stacked_rnn" outs)
        (Interp.run_program p (Stacked_rnn.bindings inp)))

(* Regression for the bug this fuzzer originally found: scanr compiled
   with left-directional regions and state offsets. *)
let scanr_regression =
  Alcotest.test_case "scanr compiles right-to-left (fuzzer regression)" `Quick
    (fun () ->
      let spec =
        { batch = 2; seq = 8; width = 3;
          access = Some (Expr.Strided { start = 0; step = 2 });
          form = F_flat; kind = Expr.Scanr; udf = 0 }
      in
      let p = build_program spec in
      let token = Shape.of_array [| 1; 3 |] in
      let rng = Rng.create 9 in
      let xss =
        Fractal.tabulate 2 (fun _ ->
            Fractal.tabulate 8 (fun _ ->
                Fractal.Leaf (Tensor.scale 0.5 (Tensor.rand rng token))))
      in
      let g = Build.build p in
      (* the state self-edge must read the *next* storage index *)
      let rest =
        List.find
          (fun b ->
            match Domain.rect_extents b.Ir.blk_domain with
            | Some ext -> snd ext.(1) - fst ext.(1) > 1
            | None -> false)
          g.Ir.g_blocks
      in
      let self =
        List.find
          (fun e ->
            e.Ir.e_dir = Ir.Read
            && List.exists
                 (fun w -> w.Ir.e_dir = Ir.Write && w.Ir.e_buffer = e.Ir.e_buffer)
                 rest.Ir.blk_edges)
          rest.Ir.blk_edges
      in
      checkb "positive state offset" true
        (Array.exists (fun o -> o > 0) self.Ir.e_access.Access_map.offset);
      let outs = Executor.run g [ ("xss", xss) ] in
      checkb "values" true
        (Fractal.equal_approx ~eps:1e-5 (List.assoc "fuzz" outs)
           (Interp.run_program p [ ("xss", xss) ])))

(* Independent reference for access-operator semantics: on a sequence
   whose element i is the scalar i, every access operator must agree
   with plain index arithmetic through Fractal.get — including the
   interpreter-only operators (reverse, gather), whose only other
   check is the interpreter itself. *)
let access_semantics_test =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 9 in
      let* which = int_range 0 6 in
      let* a = int_range 0 (n - 1) in
      let* b = int_range 1 3 in
      let* idx = list_repeat (1 + (a mod 3)) (int_range 0 (n - 1)) in
      return (n, which, a, b, Array.of_list idx))
  in
  QCheck2.Test.make ~count:200 ~name:"access operators = index arithmetic"
    gen (fun (n, which, a, b, idx) ->
      let xs = Fractal.tabulate n (fun i -> Fractal.Leaf (Tensor.scalar (float_of_int i))) in
      let at v i =
        match Fractal.get v i with
        | Fractal.Leaf t -> int_of_float (Tensor.data t).(0)
        | _ -> -1
      in
      let expect view f =
        let m = Fractal.length view in
        let ok = ref true in
        for i = 0 to m - 1 do
          if at view i <> f i then ok := false
        done;
        !ok
      in
      match which with
      | 0 -> expect (Access.linear ~shift:a xs) (fun i -> a + i)
      | 1 -> expect (Access.linear ~shift:a ~reverse:true xs) (fun i -> n - 1 - i)
      | 2 -> expect (Access.stride xs ~start:a ~step:b) (fun i -> a + (i * b))
      | 3 ->
          let hi = min n (a + 1 + b) in
          expect (Access.slice xs ~lo:a ~hi) (fun i -> a + i)
      | 4 -> expect (Access.gather xs idx) (fun i -> idx.(i))
      | 5 ->
          let size = min 2 n and stride = b in
          let view = Access.window xs ~size ~stride () in
          let ok = ref true in
          for i = 0 to Fractal.length view - 1 do
            for j = 0 to size - 1 do
              if at (Fractal.get view i) j <> (i * stride) + j then ok := false
            done
          done;
          !ok
      | _ ->
          QCheck2.assume (n mod b = 0);
          let view = Access.interleave xs ~phases:b in
          let ok = ref true in
          for p = 0 to b - 1 do
            let sub = Fractal.get view p in
            for i = 0 to Fractal.length sub - 1 do
              if at sub i <> p + (b * i) then ok := false
            done
          done;
          !ok)

let suites =
  [
    ( "fuzz",
      [ QCheck_alcotest.to_alcotest fuzz_test;
        QCheck_alcotest.to_alcotest nest_test;
        QCheck_alcotest.to_alcotest access_semantics_test;
        scanr_regression ] );
  ]
