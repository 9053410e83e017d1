type trial = { t_law : string; t_ok : bool; t_detail : string }

(* ---------------------------------------------------------------- *)
(* Program scaffolding                                               *)
(* ---------------------------------------------------------------- *)

(* Every law runs over the conform input family:
   xss : [batch][seq]f32[1,width], with the law's expression applied
   per batch row. *)

let token width = Shape.of_array [| 1; width |]

let scaffold ~batch ~seq ~width inner =
  let open Expr in
  {
    name = "law";
    inputs =
      [ ("xss", List_ty (batch, List_ty (seq, Tensor_ty (token width)))) ];
    body = map_e ~params:[ "xs" ] ~body:inner (Var "xss");
  }

let rev e = Expr.Access (Expr.Linear { shift = 0; reverse = true }, e)
let chain ops e = List.fold_left (fun e a -> Expr.Access (a, e)) e ops

(* A common consumer so access-law results flow through an aggregate
   (the paper's access operators always feed a compute operator). *)
let sum_scan width e =
  let open Expr in
  Soac
    {
      kind = Scanl;
      fn = { params = [ "s"; "x" ]; body = Add @@@ [ Var "s"; Var "x" ] };
      init = Some (Lit (Tensor.zeros (token width)));
      xs = e;
    }

let agg kind width e =
  let open Expr in
  Soac
    {
      kind;
      fn = { params = [ "s"; "x" ]; body = Add @@@ [ Var "s"; Var "x" ] };
      init = Some (Lit (Tensor.zeros (token width)));
      xs = e;
    }

let map_tanh e = Expr.(map_e ~params:[ "x" ] ~body:(Tanh @@@ [ Var "x" ]) e)

let gen_inputs rng ~batch ~seq ~width =
  let tok = token width in
  [ ("xss",
     Fractal.tabulate batch (fun _ ->
         Fractal.tabulate seq (fun _ ->
             Fractal.Leaf (Tensor.scale 0.5 (Tensor.rand rng tok))))) ]

let extents rng =
  (1 + Rng.int rng 2, 3 + Rng.int rng 6, 1 + Rng.int rng 3)

(* ---------------------------------------------------------------- *)
(* The laws                                                          *)
(* ---------------------------------------------------------------- *)

(* Each law returns (lhs inner, rhs inner, instance description); the
   inner expressions consume the lambda variable "xs". *)
let draw_law rng name =
  let xs = Expr.Var "xs" in
  let b, n, w = extents rng in
  let lhs, rhs, detail =
    match name with
    | "slice_slice" ->
        let a = Rng.int rng (n - 1) in
        let b' = a + 2 + Rng.int rng (n - a - 1) in
        (* inner slice of [a, b') — length b'-a >= 2 *)
        let c = Rng.int rng (b' - a - 1) in
        let d = c + 1 + Rng.int rng (b' - a - c - 1) in
        ( sum_scan w (chain [ Expr.Slice { lo = a; hi = b' };
                              Expr.Slice { lo = c; hi = d } ] xs),
          sum_scan w (chain [ Expr.Slice { lo = a + c; hi = a + d } ] xs),
          Printf.sprintf "slice(%d,%d).slice(%d,%d)" a b' c d )
    | "stride_stride" ->
        let s1 = Rng.int rng (n - 1) in
        let k1 = 1 + Rng.int rng 2 in
        let n1 = 1 + ((n - 1 - s1) / k1) in
        let s2 = Rng.int rng n1 in
        let k2 = 1 + Rng.int rng 2 in
        ( sum_scan w (chain [ Expr.Strided { start = s1; step = k1 };
                              Expr.Strided { start = s2; step = k2 } ] xs),
          sum_scan w
            (chain [ Expr.Strided { start = s1 + (s2 * k1); step = k1 * k2 } ]
               xs),
          Printf.sprintf "stride(%d,%d).stride(%d,%d)" s1 k1 s2 k2 )
    | "shift_is_slice" ->
        let k = Rng.int rng n in
        ( sum_scan w (chain [ Expr.Linear { shift = k; reverse = false } ] xs),
          sum_scan w (chain [ Expr.Slice { lo = k; hi = n } ] xs),
          Printf.sprintf "linear(%d) over [%d]" k n )
    | "reverse_involution" ->
        ( sum_scan w (rev (rev xs)),
          sum_scan w xs,
          Printf.sprintf "reverse.reverse over [%d]" n )
    | "reverse_foldl_foldr" ->
        ( agg Expr.Foldl w (rev xs),
          agg Expr.Foldr w xs,
          Printf.sprintf "foldl(rev) vs foldr over [%d]" n )
    | "reverse_scanl_scanr" ->
        ( agg Expr.Scanl w (rev xs),
          rev (agg Expr.Scanr w xs),
          Printf.sprintf "scanl(rev) vs rev(scanr) over [%d]" n )
    | "map_reverse_commute" ->
        (map_tanh (rev xs), rev (map_tanh xs), Printf.sprintf "map(tanh) over [%d]" n)
    | "gather_gather" ->
        let m1 = 1 + Rng.int rng n in
        let i1 = Array.init m1 (fun _ -> Rng.int rng n) in
        let m2 = 1 + Rng.int rng (min m1 4) in
        let i2 = Array.init m2 (fun _ -> Rng.int rng m1) in
        let composed = Array.map (fun j -> i1.(j)) i2 in
        ( sum_scan w (chain [ Expr.Indirect i1; Expr.Indirect i2 ] xs),
          sum_scan w (chain [ Expr.Indirect composed ] xs),
          Printf.sprintf "gather[%d].gather[%d]" m1 m2 )
    | "gather_reverse" ->
        let idx = Array.init n (fun i -> n - 1 - i) in
        ( sum_scan w (rev xs),
          sum_scan w (chain [ Expr.Indirect idx ] xs),
          Printf.sprintf "reverse vs gather over [%d]" n )
    | other -> invalid_arg (Printf.sprintf "Metamorphic: unknown law %S" other)
  in
  (scaffold ~batch:b ~seq:n ~width:w lhs,
   scaffold ~batch:b ~seq:n ~width:w rhs,
   (b, n, w), detail)

let access_law_names =
  [ "slice_slice"; "stride_stride"; "shift_is_slice"; "reverse_involution";
    "reverse_foldl_foldr"; "reverse_scanl_scanr"; "map_reverse_commute";
    "gather_gather"; "gather_reverse" ]

let law_names = access_law_names @ [ "fused_nofuse" ]

(* Fusion transparency as a law: one program, two engine
   configurations.  The subject program is drawn from the access-law
   pool (its LHS), so the compiled executor sees folds, scans,
   reverses and gathers; the left side runs with fusion on, the right
   side with fusion off (every op its own kernel, no epilogues, no
   aligned B copies).  Exact
   equality is the bar: fusion only reassociates scratch storage and
   loop structure, never the per-element float operation order. *)
let run_fused_nofuse rng =
  let subject =
    List.nth access_law_names (Rng.int rng (List.length access_law_names))
  in
  let p, _, (b, n, w), instance = draw_law rng subject in
  let detail = Printf.sprintf "fuse on/off over %s %s" subject instance in
  match
    let inputs = gen_inputs rng ~batch:b ~seq:n ~width:w in
    Typecheck.check_program p |> ignore;
    let g = Build.build p in
    let run fuse =
      let opts = { Run_opts.default with Run_opts.fuse } in
      List.assoc p.Expr.name (Executor.run ~opts g inputs)
    in
    Fractal.equal_exact (run true) (run false)
  with
  | true -> { t_law = "fused_nofuse"; t_ok = true; t_detail = detail }
  | false ->
      { t_law = "fused_nofuse"; t_ok = false;
        t_detail =
          Printf.sprintf "%s: engines disagree (batch=%d seq=%d width=%d)"
            detail b n w }
  | exception Build.Unsupported msg ->
      (* outside the compiled fragment: nothing to compare, not a bug *)
      { t_law = "fused_nofuse"; t_ok = true;
        t_detail = Printf.sprintf "%s: unsupported (%s), skipped" detail msg }
  | exception e ->
      { t_law = "fused_nofuse"; t_ok = false;
        t_detail =
          Printf.sprintf "%s: raised %s" detail (Printexc.to_string e) }

let run_law rng name =
  if name = "fused_nofuse" then run_fused_nofuse rng
  else
    let lhs, rhs, (b, n, w), detail = draw_law rng name in
    match
      let inputs = gen_inputs rng ~batch:b ~seq:n ~width:w in
      Typecheck.check_program lhs |> ignore;
      Typecheck.check_program rhs |> ignore;
      let vl = Interp.run_program lhs inputs in
      let vr = Interp.run_program rhs inputs in
      Fractal.equal_exact vl vr
    with
    | true -> { t_law = name; t_ok = true; t_detail = detail }
    | false ->
        { t_law = name; t_ok = false;
          t_detail =
            Printf.sprintf "%s: sides disagree (batch=%d seq=%d width=%d)"
              detail b n w }
    | exception e ->
        { t_law = name; t_ok = false;
          t_detail = Printf.sprintf "%s: raised %s" detail (Printexc.to_string e) }

let run_all rng ~iters =
  List.concat_map
    (fun name -> List.init iters (fun _ -> run_law rng name))
    law_names
