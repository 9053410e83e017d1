(* Tests for the ETDG compiler: graph extraction (paper Fig. 4),
   coarsening (Table 3, Fig. 5), dependence approximation (Table 4) and
   reordering (Fig. 6, Table 5). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let built program = Build.build program

let rnn_graph () = built (Stacked_rnn.program Stacked_rnn.default)

let find_block g name =
  List.find (fun b -> b.Ir.blk_name = name) g.Ir.g_blocks

let mat = Alcotest.testable (fun fmt m -> Linalg.pp_mat fmt m) ( = )
let vec = Alcotest.(array int)

let edge_to b buf_name g =
  List.filter
    (fun e -> (Ir.buffer g e.Ir.e_buffer).Ir.buf_name = buf_name)
    b.Ir.blk_edges

(* ----------------------- Build / Fig. 4 ----------------------- *)

let build_tests =
  [
    Alcotest.test_case "stacked RNN parses into 4 regions (Fig 4)" `Quick
      (fun () ->
        let g = rnn_graph () in
        checki "blocks" 4 (List.length g.Ir.g_blocks);
        List.iter
          (fun b ->
            Alcotest.(check (array string))
              "operator vector"
              [| "map"; "scanl"; "scanl" |]
              (Array.map Expr.soac_kind_name b.Ir.blk_ops))
          g.Ir.g_blocks);
    Alcotest.test_case "region3 carries e12..e15 (Fig 4)" `Quick (fun () ->
        let g = rnn_graph () in
        let r3 = find_block g "stacked_rnn.region3" in
        (* e14: the weight read selects only the depth dimension *)
        let w = List.find (fun e -> e.Ir.e_label = "w") r3.Ir.blk_edges in
        Alcotest.check mat "e14 matrix" [| [| 0; 1; 0 |] |]
          w.Ir.e_access.Access_map.matrix;
        (* e13: own output at l-1 *)
        let s = List.find (fun e -> e.Ir.e_label = "s") r3.Ir.blk_edges in
        Alcotest.check vec "e13 offset" [| 0; 0; -1 |]
          s.Ir.e_access.Access_map.offset;
        (* e12: layer below at d-1 *)
        let x = List.find (fun e -> e.Ir.e_label = "x") r3.Ir.blk_edges in
        Alcotest.check vec "e12 offset" [| 0; -1; 0 |]
          x.Ir.e_access.Access_map.offset;
        (* e15: identity write *)
        let out = List.find (fun e -> e.Ir.e_dir = Ir.Write) r3.Ir.blk_edges in
        Alcotest.check mat "e15 matrix" (Linalg.identity 3)
          out.Ir.e_access.Access_map.matrix);
    Alcotest.test_case "region0 reads the input, not the output" `Quick
      (fun () ->
        let g = rnn_graph () in
        let r0 = find_block g "stacked_rnn.region0" in
        checkb "reads xss" true (edge_to r0 "xss" g <> []);
        checkb "no self-read" true
          (List.for_all
             (fun e -> e.Ir.e_dir = Ir.Write)
             (edge_to r0 "stacked_rnn" g)));
    Alcotest.test_case "region domains partition first/rest" `Quick (fun () ->
        let g = rnn_graph () in
        let r0 = find_block g "stacked_rnn.region0" in
        let r3 = find_block g "stacked_rnn.region3" in
        (match Domain.rect_extents r0.Ir.blk_domain with
        | Some ext -> checkb "r0" true (ext = [| (0, 2); (0, 1); (0, 1) |])
        | None -> Alcotest.fail "r0 not a box");
        match Domain.rect_extents r3.Ir.blk_domain with
        | Some ext -> checkb "r3" true (ext = [| (0, 2); (1, 3); (1, 4) |])
        | None -> Alcotest.fail "r3 not a box");
    Alcotest.test_case "stacked LSTM parses into 4 block nodes (§6.3)" `Quick
      (fun () ->
        let g = built (Stacked_lstm.program Stacked_lstm.default) in
        checki "blocks" 4 (List.length g.Ir.g_blocks));
    Alcotest.test_case "stacked grid RNN parses into 8 block nodes (§6.3)"
      `Quick (fun () ->
        let g = built (Grid_rnn.program Grid_rnn.default) in
        checki "blocks" 8 (List.length g.Ir.g_blocks));
    Alcotest.test_case "every workload graph validates" `Quick (fun () ->
        List.iter
          (fun g ->
            match Ir.validate g with
            | Ok () -> ()
            | Error es ->
                Alcotest.failf "%s: %s" g.Ir.g_name (String.concat "; " es))
          [
            rnn_graph ();
            built (Stacked_lstm.program Stacked_lstm.default);
            built (Grid_rnn.program Grid_rnn.default);
            built (Dilated_rnn.program Dilated_rnn.default);
            built (B2b_gemm.program B2b_gemm.default);
            built (Flash_attention.program Flash_attention.default);
            built (Bigbird.program Bigbird.default);
          ]);
    Alcotest.test_case "ETDG depth and dimension of the running example" `Quick
      (fun () ->
        let g = rnn_graph () in
        checki "depth" 1 (Ir.depth g);
        checki "dimension" 3 (Ir.dimension g));
    Alcotest.test_case "dilated RNN access maps carry the dilation" `Quick
      (fun () ->
        (* layer 1 (first interleaved layer): buffer time index =
           phase + 2 * step, so the access matrix row has entries 1 and 2 *)
        let g = built (Dilated_rnn.program Dilated_rnn.default) in
        let b = find_block g "h2.region1" in
        (* the layer-below read: flat time = phase + 2*step *)
        let x = List.find (fun e -> e.Ir.e_label = "x") b.Ir.blk_edges in
        Alcotest.check mat "interleaved access"
          [| [| 1; 0; 0 |]; [| 0; 1; 2 |] |]
          x.Ir.e_access.Access_map.matrix;
        (* the recurrence stays distance 1 within each phase *)
        let h = List.find (fun e -> e.Ir.e_label = "h") b.Ir.blk_edges in
        Alcotest.check vec "state offset" [| 0; 0; -1 |]
          h.Ir.e_access.Access_map.offset);
    Alcotest.test_case "BigBird window read is a two-term affine row" `Quick
      (fun () ->
        let g = built (Bigbird.program Bigbird.default) in
        let b = find_block g "wqk.region0" in
        let offsets =
          List.filter_map
            (fun e ->
              if
                e.Ir.e_dir = Ir.Read
                && (Ir.buffer g e.Ir.e_buffer).Ir.buf_name = "kss"
              then Some e.Ir.e_access.Access_map.offset.(1)
              else None)
            b.Ir.blk_edges
          |> List.sort compare
        in
        (* window members j = 0,1,2 at interior block i read
           kss[b][i + 1 + j] after the [2:-2] slicing *)
        Alcotest.(check (list int)) "window offsets" [ 1; 2; 3 ] offsets);
    Alcotest.test_case "dataflow order puts producers first" `Quick (fun () ->
        let g = built (Bigbird.program Bigbird.default) in
        let order = List.map (fun b -> b.Ir.blk_name) (Ir.dataflow_order g) in
        let pos n =
          let rec go i = function
            | [] -> -1
            | x :: rest -> if x = n then i else go (i + 1) rest
          in
          go 0 order
        in
        checkb "wqk before scores" true (pos "wqk.region0" < pos "scores.region0");
        checkb "scores before wo" true (pos "scores.region0" < pos "wo.region0"));
    Alcotest.test_case "unsupported constructs are reported" `Quick (fun () ->
        let open Expr in
        let bad =
          {
            name = "bad";
            inputs = [ ("xs", List_ty (4, Tensor_ty (Shape.of_array [| 1; 2 |]))) ];
            body =
              map_e ~params:[ "x" ] ~body:(Tanh @@@ [ Var "x" ])
                (Access (Linear { shift = 0; reverse = true }, Var "xs"));
          }
        in
        checkb "raises" true
          (try
             ignore (Build.build bad);
             false
           with Build.Unsupported _ -> true));
  ]

(* ----------------------- Coarsening ----------------------- *)

let coarsen_tests =
  [
    Alcotest.test_case "Table 3 composition rules" `Quick (fun () ->
        let open Expr in
        let some = Alcotest.(check (option string)) in
        let c a b = Option.map Expr.soac_kind_name (Coarsen.compose_ops a b) in
        some "map.map" (Some "map") (c Map Map);
        some "map.scanl" (Some "scanl") (c Map Scanl);
        some "scanl.map" (Some "scanl") (c Scanl Map);
        some "scanl.scanl" (Some "scanl") (c Scanl Scanl);
        some "map.scanr" (Some "scanr") (c Map Scanr);
        some "scanl.scanr" None (c Scanl Scanr);
        some "foldl.foldr" None (c Foldl Foldr);
        some "reduce.map" (Some "reduce") (c Reduce Map);
        some "foldl.scanl" (Some "scanl") (c Foldl Scanl);
        some "reduce.scanl" (Some "scanl") (c Reduce Scanl));
    Alcotest.test_case "lowering region3 reproduces Fig 5" `Quick (fun () ->
        let g = rnn_graph () in
        let lowered = Coarsen.lower g in
        let r3 = find_block lowered "stacked_rnn.region3" in
        Alcotest.(check (array string))
          "operator vector"
          [| "map"; "scanl"; "scanl"; "map" |]
          (Array.map Expr.soac_kind_name r3.Ir.blk_ops);
        checki "one contraction child" 1 (List.length r3.Ir.blk_children);
        let child = List.hd r3.Ir.blk_children in
        Alcotest.(check (array string))
          "child operator" [| "foldl" |]
          (Array.map Expr.soac_kind_name child.Ir.blk_ops);
        (* depth 2, dimension 5 after width-wise coarsening (Fig 5) *)
        checki "depth" 2 (Ir.depth lowered);
        checki "dimension" 5 (Ir.dimension lowered));
    Alcotest.test_case "lowering extends elementwise maps, not contracted ones"
      `Quick (fun () ->
        let g = rnn_graph () in
        let lowered = Coarsen.lower g in
        let r3 = find_block lowered "stacked_rnn.region3" in
        let s = List.find (fun e -> e.Ir.e_label = "s") r3.Ir.blk_edges in
        checki "s gains the column row" 4 (Access_map.out_dim s.Ir.e_access);
        let x = List.find (fun e -> e.Ir.e_label = "x") r3.Ir.blk_edges in
        checki "x stays coarse" 3 (Access_map.out_dim x.Ir.e_access);
        let w = List.find (fun e -> e.Ir.e_label = "w") r3.Ir.blk_edges in
        checki "w stays coarse" 1 (Access_map.out_dim w.Ir.e_access));
    Alcotest.test_case "horizontal merge of independent siblings" `Quick
      (fun () ->
        let g = built (Bigbird.program Bigbird.default) in
        let g1 = find_block g "gqk1.region0" in
        let g2 = find_block g "gqk2.region0" in
        match Coarsen.merge_horizontal g1 g2 with
        | Some m ->
            checki "edges unioned" (List.length m.Ir.blk_edges)
              (List.length
                 (List.sort_uniq compare
                    (List.map
                       (fun e -> (e.Ir.e_buffer, e.Ir.e_access))
                       (g1.Ir.blk_edges @ g2.Ir.blk_edges))))
        | None -> Alcotest.fail "expected a merge");
    Alcotest.test_case "horizontal merge refuses data-dependent blocks" `Quick
      (fun () ->
        let g = built (Bigbird.program Bigbird.default) in
        let producer = find_block g "wqk.region0" in
        let consumer = find_block g "scores.region0" in
        checkb "no merge" true
          (Coarsen.merge_horizontal producer consumer = None));
    Alcotest.test_case "vertical merge composes operators" `Quick (fun () ->
        let g = built (Bigbird.program Bigbird.default) in
        let producer = find_block g "wqk.region0" in
        let consumer = find_block g "scores.region0" in
        match Coarsen.merge_vertical producer consumer with
        | Some m ->
            Alcotest.(check (array string))
              "ops" [| "map"; "map" |]
              (Array.map Expr.soac_kind_name m.Ir.blk_ops)
        | None -> Alcotest.fail "expected a merge");
    Alcotest.test_case "fold-consumer absorbs into the producer" `Quick
      (fun () ->
        let g = built (Flash_attention.program Flash_attention.default) in
        let g = Coarsen.group_regions g in
        match g.Ir.g_blocks with
        | [ acc; norm ] ->
            (match Coarsen.merge_vertical acc norm with
            | Some m -> checki "dims kept" 4 (Ir.block_dim m)
            | None -> Alcotest.fail "expected the absorption merge")
        | _ -> Alcotest.fail "unexpected block structure");
    Alcotest.test_case "depth-wise merge fuses adjacent identity dims" `Quick
      (fun () ->
        (* a 2-dim map block with an identity access over a [2,3] buffer
           flattens into one 6-long dimension *)
        let b =
          {
            Ir.blk_id = 0;
            blk_name = "flat";
            blk_ops = [| Expr.Map; Expr.Map |];
            blk_domain = Domain.of_extents [| 2; 3 |];
            blk_edges =
              [
                { Ir.e_buffer = 0; e_dir = Ir.Read;
                  e_access = Access_map.identity 2; e_label = "x" };
              ];
            blk_children = [];
            blk_body = [];
            blk_results = [];
            blk_consts = [];
          }
        in
        match Coarsen.merge_dims b 0 1 with
        | Some m ->
            checki "dims" 1 (Ir.block_dim m);
            (match Domain.rect_extents m.Ir.blk_domain with
            | Some ext -> checkb "extent" true (ext = [| (0, 6) |])
            | None -> Alcotest.fail "not a box");
            let e = List.hd m.Ir.blk_edges in
            Alcotest.check mat "fused map" [| [| 1 |] |]
              e.Ir.e_access.Access_map.matrix
        | None -> Alcotest.fail "expected a merge");
    Alcotest.test_case "depth-wise merge refuses directional conflict" `Quick
      (fun () ->
        let b =
          {
            Ir.blk_id = 0;
            blk_name = "conflict";
            blk_ops = [| Expr.Scanl; Expr.Scanr |];
            blk_domain = Domain.of_extents [| 2; 3 |];
            blk_edges = [];
            blk_children = [];
            blk_body = [];
            blk_results = [];
            blk_consts = [];
          }
        in
        checkb "no merge" true (Coarsen.merge_dims b 0 1 = None));
    Alcotest.test_case "group_regions collapses the 4 RNN regions" `Quick
      (fun () ->
        let g = Coarsen.group_regions (rnn_graph ()) in
        checki "blocks" 1 (List.length g.Ir.g_blocks);
        let b = List.hd g.Ir.g_blocks in
        match Domain.rect_extents b.Ir.blk_domain with
        | Some ext -> checkb "hull" true (ext = [| (0, 2); (0, 3); (0, 4) |])
        | None -> Alcotest.fail "not a box");
  ]

(* ----------------------- Dependence (Table 4) ----------------------- *)

let dependence_tests =
  [
    Alcotest.test_case "Table 4 distance vectors" `Quick (fun () ->
        let dvs =
          Dependence.distance_vectors
            [| Expr.Map; Expr.Foldl; Expr.Scanl; Expr.Map |]
        in
        checkb "vectors" true (dvs = [ [| 0; 1; 0; 0 |]; [| 0; 0; 1; 0 |] ]));
    Alcotest.test_case "map-only nests are fully parallel" `Quick (fun () ->
        checkb "empty" true
          (Dependence.distance_vectors [| Expr.Map; Expr.Map |] = []));
    Alcotest.test_case "strided access scales the distance" `Quick (fun () ->
        let dvs =
          Dependence.distance_vectors ~strides:[| 1; 4 |]
            [| Expr.Map; Expr.Scanl |]
        in
        checkb "distance 4" true (dvs = [ [| 0; 4 |] ]));
    Alcotest.test_case "block distances read from self-edges" `Quick (fun () ->
        let g = rnn_graph () in
        let r3 = find_block g "stacked_rnn.region3" in
        let dvs = Dependence.block_distance_vectors r3 in
        checkb "two carried deps" true
          (dvs = [ [| 0; 1; 0 |]; [| 0; 0; 1 |] ]));
    Alcotest.test_case "hyperplane legality" `Quick (fun () ->
        let dvs = [ [| 0; 1; 0 |]; [| 0; 0; 1 |] ] in
        checkb "wavefront ok" true (Dependence.legal_schedule [| 0; 1; 1 |] dvs);
        checkb "batch-only not ok" false
          (Dependence.legal_schedule [| 1; 0; 0 |] dvs));
    Alcotest.test_case "transform legality (lexicographic)" `Quick (fun () ->
        let t = [| [| 0; 1; 1 |]; [| 0; 1; 0 |]; [| 1; 0; 0 |] |] in
        checkb "carried" true
          (Dependence.carried ~transform:t [ [| 0; 1; 0 |]; [| 0; 0; 1 |] ]);
        let bad = [| [| 1; 0; 0 |]; [| 0; -1; 0 |]; [| 0; 0; 1 |] |] in
        checkb "violated" false
          (Dependence.carried ~transform:bad [ [| 0; 1; 0 |] ]));
  ]

(* ----------------------- Reordering (Fig 6, Table 5) -------------- *)

let reorder_tests =
  [
    Alcotest.test_case "transformation matrix matches Fig 6" `Quick (fun () ->
        let g = Coarsen.lower (rnn_graph ()) in
        let r3 = find_block g "stacked_rnn.region3" in
        let r = Reorder.apply r3 in
        Alcotest.check mat "T"
          [| [| 0; 1; 1; 0 |]; [| 0; 1; 0; 0 |]; [| 1; 0; 0; 0 |];
             [| 0; 0; 0; 1 |] |]
          r.Reorder.transform;
        checkb "wavefront" true r.Reorder.wavefront;
        Alcotest.(check (list int)) "dep dims" [ 1; 2 ] r.Reorder.dep_dims;
        Alcotest.(check (list int)) "reuse dims" [ 0; 2; 3 ] r.Reorder.reuse_dims);
    Alcotest.test_case "transformed access maps match Table 5" `Quick (fun () ->
        let g = Coarsen.lower (rnn_graph ()) in
        let r3 = find_block g "stacked_rnn.region3" in
        let r = Reorder.apply r3 in
        let b = r.Reorder.block in
        let s = List.find (fun e -> e.Ir.e_label = "s") b.Ir.blk_edges in
        Alcotest.check mat "e13 matrix"
          [| [| 0; 0; 1; 0 |]; [| 0; 1; 0; 0 |]; [| 1; -1; 0; 0 |];
             [| 0; 0; 0; 1 |] |]
          s.Ir.e_access.Access_map.matrix;
        Alcotest.check vec "e13 offset" [| 0; 0; -1; 0 |]
          s.Ir.e_access.Access_map.offset;
        let w = List.find (fun e -> e.Ir.e_label = "w") b.Ir.blk_edges in
        Alcotest.check mat "e14 matrix" [| [| 0; 1; 0; 0 |] |]
          w.Ir.e_access.Access_map.matrix;
        let x = List.find (fun e -> e.Ir.e_label = "x") b.Ir.blk_edges in
        Alcotest.check mat "e12 matrix"
          [| [| 0; 0; 1; 0 |]; [| 0; 1; 0; 0 |]; [| 1; -1; 0; 0 |] |]
          x.Ir.e_access.Access_map.matrix);
    Alcotest.test_case "wavefront bounds match Table 5 ranges" `Quick (fun () ->
        (* default config: D = 3, L = 4, so j in [2, D+L-1) = [2,6) *)
        let g = Coarsen.lower (rnn_graph ()) in
        let r3 = find_block g "stacked_rnn.region3" in
        let r = Reorder.apply r3 in
        checki "steps" 4 (Reorder.sequential_steps r));
    Alcotest.test_case "wavefront parallelism matches enumeration" `Quick
      (fun () ->
        let g = rnn_graph () in
        let r3 = find_block g "stacked_rnn.region3" in
        let r = Reorder.apply r3 in
        let dom = r.Reorder.block.Ir.blk_domain in
        let points = Domain.enumerate dom in
        let lo0 =
          List.fold_left (fun acc p -> Stdlib.min acc p.(0)) max_int points
        in
        for k = 0 to Reorder.sequential_steps r - 1 do
          let expected =
            List.length (List.filter (fun p -> p.(0) = lo0 + k) points)
          in
          checki
            (Printf.sprintf "wave %d" k)
            expected
            (Reorder.parallel_tasks_at r k)
        done);
    Alcotest.test_case "fully parallel blocks keep the identity" `Quick
      (fun () ->
        let g = built (Bigbird.program Bigbird.default) in
        let b = find_block g "scores.region0" in
        let r = Reorder.apply b in
        checkb "identity" true (not r.Reorder.wavefront));
    Alcotest.test_case "grid RNN needs a 3-D wavefront" `Quick (fun () ->
        let g = built (Grid_rnn.program Grid_rnn.default) in
        let r7 = find_block g "grid_rnn.region7" in
        let r = Reorder.apply r7 in
        Alcotest.(check (list int)) "dep dims" [ 1; 2; 3 ] r.Reorder.dep_dims;
        checkb "first row sums the three" true
          (r.Reorder.transform.(0) = [| 0; 1; 1; 1 |]));
    Alcotest.test_case "transformed domain preserves cardinality" `Quick
      (fun () ->
        let g = rnn_graph () in
        List.iter
          (fun b ->
            let r = Reorder.apply b in
            checki
              (b.Ir.blk_name ^ " cardinality")
              (Domain.card b.Ir.blk_domain)
              (Domain.card r.Reorder.block.Ir.blk_domain))
          g.Ir.g_blocks);
  ]

(* ---------------- Reordering is exact (§5.2, Table 5) ------------- *)

(* Emission reorders every block of the emitted graph through
   [Reorder.apply], and nothing re-checks the reordered graph: schedule
   legality is verified before the transform, against the block's own
   dependences.  What a post-reorder bounds check would add is that the
   transform is exact, so that the image of [M T^-1] over [T D] is the
   image of [M] over [D]; this suite proves it on every block of the
   programs the repository compiles. *)

let workload_programs =
  [
    Stacked_rnn.program Stacked_rnn.default;
    Stacked_rnn.program Stacked_rnn.paper;
    Stacked_lstm.program Stacked_lstm.default;
    Stacked_lstm.program Stacked_lstm.paper;
    Dilated_rnn.program Dilated_rnn.default;
    Dilated_rnn.program Dilated_rnn.paper;
    Grid_rnn.program Grid_rnn.default;
    Grid_rnn.program Grid_rnn.paper;
    B2b_gemm.program B2b_gemm.default;
    B2b_gemm.program B2b_gemm.paper;
    Flash_attention.program Flash_attention.default;
    Flash_attention.program Flash_attention.paper;
    Conv1d.program Conv1d.default;
    Conv1d.program Conv1d.large;
    Selective_scan.program Selective_scan.default;
    Selective_scan.program Selective_scan.large;
    Retention.program Retention.default;
    Retention.program Retention.large;
    Bigbird.program Bigbird.default;
    Bigbird.program Bigbird.paper;
  ]

let ft_files () =
  List.concat_map
    (fun dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ft")
      |> List.sort compare
      |> List.map (Filename.concat dir))
    [ "../examples/programs"; "../bench/e2e/programs"; "corpus" ]

let file_program path =
  let p = Parse.program_file path in
  ignore (Typecheck.check_program p);
  p

(* The compiled programs among 200 seeded draws of the conformance
   generator. *)
let generated_programs () =
  let rng = Rng.create 42 in
  List.filter_map
    (fun _ ->
      let sp = Gen.generate rng in
      if Gen.compiled_expected sp then Some (Gen.program sp) else None)
    (List.init 200 Fun.id)

(* Domains are enumerated point for point up to this many points of the
   original domain's bounding box; larger ones get the matrix check. *)
let max_enumerated = 4096

let box_volume (d : Domain.t) =
  Option.map
    (Array.fold_left (fun acc (lo, hi) -> acc * (hi - lo + 1)) 1)
    (Domain.rect_extents d)

(* Returns whether a non-identity transform's domain was small enough
   to enumerate. *)
let check_exact ctx (b : Ir.block) =
  let r = Reorder.apply b in
  let t = r.Reorder.transform in
  let b' = r.Reorder.block in
  checki (ctx ^ ": edge count") (List.length b.Ir.blk_edges)
    (List.length b'.Ir.blk_edges);
  List.iter2
    (fun (e : Ir.edge) (e' : Ir.edge) ->
      let a = e.Ir.e_access and a' = e'.Ir.e_access in
      let what = Printf.sprintf "%s edge %s" ctx e.Ir.e_label in
      Alcotest.check mat (what ^ ": M' T = M") a.Access_map.matrix
        (if Array.length a'.Access_map.matrix = 0 then [||]
         else Linalg.matmul a'.Access_map.matrix t);
      Alcotest.check vec (what ^ ": offset unchanged") a.Access_map.offset
        a'.Access_map.offset)
    b.Ir.blk_edges b'.Ir.blk_edges;
  match box_volume b.Ir.blk_domain with
  | Some v when v <= max_enumerated ->
      let sorted = List.sort compare in
      checkb (ctx ^ ": reordered domain = T D") true
        (sorted (Domain.enumerate b'.Ir.blk_domain)
        = sorted
            (List.map (Linalg.mat_vec t) (Domain.enumerate b.Ir.blk_domain)));
      r.Reorder.wavefront
  | _ -> false

(* Every block of the emitted graph, i.e. what emission reorders. *)
let check_program_exact (p : Expr.program) =
  let g = (Pipeline.compile ~verify:false p).Pipeline.p_emit_graph in
  List.fold_left
    (fun (blocks, wavefronts) b ->
      let ctx = p.Expr.name ^ "/" ^ b.Ir.blk_name in
      (blocks + 1, if check_exact ctx b then wavefronts + 1 else wavefronts))
    (0, 0) g.Ir.g_blocks

let exact_case name programs =
  Alcotest.test_case name `Quick (fun () ->
      let blocks, wavefronts =
        List.fold_left
          (fun (n, m) p ->
            let n', m' = check_program_exact (p ()) in
            (n + n', m + m'))
          (0, 0) (programs ())
      in
      checkb "some block checked" true (blocks > 0);
      checkb "some wavefront domain enumerated" true (wavefronts > 0))

let exactness_tests =
  [
    exact_case "every workload block reorders exactly (default, paper)"
      (fun () -> List.map (fun p () -> p) workload_programs);
    exact_case "every .ft block reorders exactly" (fun () ->
        List.map (fun f () -> file_program f) (ft_files ()));
    exact_case "every generated block reorders exactly (seed 42, 200)"
      (fun () -> List.map (fun p () -> p) (generated_programs ()));
  ]

let suites =
  [
    ("build", build_tests);
    ("coarsen", coarsen_tests);
    ("dependence", dependence_tests);
    ("reorder", reorder_tests);
    ("reorder-exact", exactness_tests);
  ]
