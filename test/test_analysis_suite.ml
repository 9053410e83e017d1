(* Tests for the static-analysis layer: the ETDG verifier (accepts
   every workload at every pipeline stage, rejects injected faults) and
   the .ft linter (golden runs over examples/programs plus one
   synthetic program per finding). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let workload_programs =
  [
    ("stacked_rnn", fun () -> Stacked_rnn.program Stacked_rnn.default);
    ("stacked_lstm", fun () -> Stacked_lstm.program Stacked_lstm.default);
    ("dilated_rnn", fun () -> Dilated_rnn.program Dilated_rnn.default);
    ("grid_rnn", fun () -> Grid_rnn.program Grid_rnn.default);
    ("b2b_gemm", fun () -> B2b_gemm.program B2b_gemm.default);
    ("flash_attention", fun () -> Flash_attention.program Flash_attention.default);
    ("conv1d", fun () -> Conv1d.program Conv1d.default);
    ("selective_scan", fun () -> Selective_scan.program Selective_scan.default);
    ("retention", fun () -> Retention.program Retention.default);
    ("bigbird", fun () -> Bigbird.program Bigbird.default);
  ]

let render ds = Format.asprintf "%a" (Diagnostic.pp_list ?path:None) ds

let has_code code ds =
  List.exists (fun (d : Diagnostic.t) -> d.Diagnostic.code = code) ds

(* The production pipeline up to (and excluding) reordering — the graph
   the fault-injection tests perturb. *)
let merged_graph p =
  (Pipeline.compile ~verify:false
     ~stages:[ Pipeline.Group; Pipeline.Merge ] p)
    .Pipeline.p_emit_graph

let wavefront_block () =
  let g = merged_graph (Stacked_rnn.program Stacked_rnn.default) in
  match g.Ir.g_blocks with
  | [ b ] -> b
  | bs -> Alcotest.failf "expected one merged block, got %d" (List.length bs)

let verify_tests =
  List.map
    (fun (name, program) ->
      Alcotest.test_case (name ^ " verifies at every stage") `Quick (fun () ->
          List.iter
            (fun (stage, ds) ->
              if ds <> [] then
                Alcotest.failf "%s %s:@.%s" name stage (render ds))
            (Pipeline.verify_stages (program ()))))
    workload_programs
  @ [
      Alcotest.test_case "illegal distance vector is rejected (V021)" `Quick
        (fun () ->
          let b = wavefront_block () in
          let d = Ir.block_dim b in
          let tm = Reorder.transform_matrix b in
          let dv = Array.make d 0 in
          dv.(0) <- -1;
          let ds = Verify.schedule ~dvs:[ dv ] b tm in
          checkb "V021 reported" true (has_code "V021" ds);
          checki "all findings are errors" (List.length ds)
            (Diagnostic.count_errors ds));
      Alcotest.test_case "non-unimodular transform is rejected (V020)" `Quick
        (fun () ->
          let b = wavefront_block () in
          let d = Ir.block_dim b in
          let tm = Linalg.identity d in
          tm.(0) <- Array.map (fun x -> 2 * x) tm.(0);
          let ds = Verify.schedule b tm in
          checkb "V020 reported" true (has_code "V020" ds));
      Alcotest.test_case "wrong-arity transform is rejected (V023)" `Quick
        (fun () ->
          let b = wavefront_block () in
          let d = Ir.block_dim b in
          let ds = Verify.schedule b (Linalg.identity (d + 1)) in
          checkb "V023 reported" true (has_code "V023" ds));
      Alcotest.test_case "out-of-bounds access map is rejected (V011)" `Quick
        (fun () ->
          let g = merged_graph (Stacked_rnn.program Stacked_rnn.default) in
          let corrupt (b : Ir.block) =
            let edges =
              List.map
                (fun (e : Ir.edge) ->
                  if e.Ir.e_dir = Ir.Write then
                    let a = e.Ir.e_access in
                    let off = Array.map (( + ) 10_000) a.Access_map.offset in
                    {
                      e with
                      Ir.e_access =
                        Access_map.make ~in_dim:(Access_map.in_dim a)
                          a.Access_map.matrix off;
                    }
                  else e)
                b.Ir.blk_edges
            in
            { b with Ir.blk_edges = edges }
          in
          let g' = { g with Ir.g_blocks = List.map corrupt g.Ir.g_blocks } in
          let ds = Verify.access_maps g' in
          checkb "V011 reported" true (has_code "V011" ds);
          checkb "clean graph stays clean" true (Verify.access_maps g = []);
          checkb "graph_exn raises" true
            (try
               Verify.graph_exn ~stage:"test" g';
               false
             with Verify.Verification_failed ("test", ds) ->
               Diagnostic.count_errors ds > 0));
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make ~count:100
           ~name:"row-scaled transforms are never unimodular"
           QCheck2.Gen.(pair (int_bound 1) (int_range 2 5))
           (fun (row, k) ->
             let b = wavefront_block () in
             let d = Ir.block_dim b in
             QCheck2.assume (row < d);
             let tm =
               Array.map Array.copy (Reorder.transform_matrix b)
             in
             tm.(row) <- Array.map (fun x -> k * x) tm.(row);
             has_code "V020" (Verify.schedule b tm)));
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make ~count:100
           ~name:"lexicographically negative distances are rejected"
           QCheck2.Gen.(list_size (pure 2) (int_range (-3) 0))
           (fun entries ->
             QCheck2.assume (List.exists (fun x -> x < 0) entries);
             let b = wavefront_block () in
             let dv = Array.of_list entries in
             QCheck2.assume (Array.length dv = Ir.block_dim b);
             let ds = Verify.schedule ~dvs:[ dv ] b (Reorder.transform_matrix b) in
             Diagnostic.count_errors ds > 0));
    ]

(* ------------------------------ linter ----------------------------- *)

let lint_source = Lint.source ?path:None

let example_dir = "../examples/programs"

let lint_tests =
  [
    Alcotest.test_case "examples lint clean" `Quick (fun () ->
        let files =
          Sys.readdir example_dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".ft")
          |> List.sort compare
        in
        checkb "found the example programs" true (List.length files >= 3);
        List.iter
          (fun f ->
            let ds = Lint.file (Filename.concat example_dir f) in
            if Diagnostic.count_errors ds > 0 then
              Alcotest.failf "%s:@.%s" f (render ds))
          files);
    Alcotest.test_case "attention_block clean-pass JSON" `Quick (fun () ->
        let ds = Lint.file (Filename.concat example_dir "attention_block.ft") in
        let json = Diagnostic.list_to_json ~path:"attention_block.ft" ds in
        checkb "has errors field" true
          (Str.string_match (Str.regexp ".*\"errors\":0") json 0);
        checkb "names the file" true
          (Str.string_match (Str.regexp ".*attention_block\\.ft") json 0));
    Alcotest.test_case "syntax error (L001)" `Quick (fun () ->
        let ds =
          lint_source "program p\ninput xs: [4]f32[1,4]\nreturn xs.map { |x|"
        in
        checkb "L001" true (has_code "L001" ds);
        checkb "is error" true (Diagnostic.count_errors ds = 1));
    Alcotest.test_case "unbound variable (L100)" `Quick (fun () ->
        let ds =
          lint_source "program p\ninput xs: [4]f32[1,4]\nreturn xs.map { |x| y }"
        in
        checkb "L100" true (has_code "L100" ds));
    Alcotest.test_case "unused binding (L101) with span" `Quick (fun () ->
        let ds =
          lint_source
            "program p\n\
             input xs: [4]f32[1,4]\n\
             return xs.map { |x| let t = x + x in x }"
        in
        checkb "L101" true (has_code "L101" ds);
        let d = List.find (fun d -> d.Diagnostic.code = "L101") ds in
        checkb "has span" true (d.Diagnostic.span <> None);
        (* '_'-prefixed names are exempt *)
        let ds' =
          lint_source
            "program p\n\
             input xs: [4]f32[1,4]\n\
             return xs.map { |x| let _t = x + x in x }"
        in
        checkb "exempt" false (has_code "L101" ds'));
    Alcotest.test_case "shadowing (L102)" `Quick (fun () ->
        let ds =
          lint_source
            "program p\n\
             input xs: [4]f32[1,4]\n\
             return xs.map { |x| let xs = x + x in xs }"
        in
        checkb "L102" true (has_code "L102" ds));
    Alcotest.test_case "non-composable nest (L103)" `Quick (fun () ->
        let ds =
          lint_source
            "program p\n\
             input xss: [3][4]f32[1,4]\n\
             return xss.scanl(xss.0) { |acc, xs|\n\
            \  zip(acc, xs).scanr(zeros[1,4]) { |s, a, x| a + x + s } }"
        in
        checkb "L103" true (has_code "L103" ds));
    Alcotest.test_case "unused input (L110)" `Quick (fun () ->
        let ds =
          lint_source
            "program p\n\
             input xs: [4]f32[1,4]\n\
             input ws: [4]f32[4,4]\n\
             return xs.map { |x| x + x }"
        in
        checkb "L110" true (has_code "L110" ds);
        let d = List.find (fun d -> d.Diagnostic.code = "L110") ds in
        checkb "names ws" true
          (Str.string_match (Str.regexp ".*'ws'") d.Diagnostic.message 0));
    Alcotest.test_case "shape error (L200) with span" `Quick (fun () ->
        let ds =
          lint_source
            "program p\n\
             input xs: [4]f32[1,8]\n\
             return xs.map { |x| x @ x }"
        in
        checkb "L200" true (has_code "L200" ds);
        let d = List.find (fun d -> d.Diagnostic.code = "L200") ds in
        checkb "located" true (d.Diagnostic.span <> None));
    Alcotest.test_case "diagnostics sort spanned-first" `Quick (fun () ->
        let ds =
          [
            Diagnostic.warning "L101" "later";
            Diagnostic.error ~span:(3, 1) "L100" "first";
          ]
        in
        match Diagnostic.sort ds with
        | d :: _ -> checkb "span first" true (d.Diagnostic.code = "L100")
        | [] -> Alcotest.fail "empty");
  ]

let suites =
  [ ("analysis.verify", verify_tests); ("analysis.lint", lint_tests) ]
