(* Tests for the static memory-effect analysis: footprints, wavefront
   race verdicts (positive and negative paths), flow checks, buffer
   liveness / arena layout, and the VM shadow-memory cross-checker. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let example_dir = "../examples/programs"
let corpus_dir = "corpus"

(* ------------------------ hand-built graphs ----------------------- *)

let buf id name dims role =
  { Ir.buf_id = id; buf_name = name; buf_dims = dims;
    buf_elem = Shape.scalar; buf_role = role }

(* Every iteration point writes the same output cell: a genuine
   same-front write-write race (no dependence, so the scheduler puts
   all four points in one anti-chain). *)
let ww_racy_graph () =
  let block =
    {
      Ir.blk_id = 0;
      blk_name = "clobber";
      blk_ops = [| Expr.Map |];
      blk_domain = Domain.of_extents [| 4 |];
      blk_edges =
        [
          { Ir.e_buffer = 0; e_dir = Ir.Read;
            e_access = Access_map.identity 1; e_label = "x" };
          { Ir.e_buffer = 1; e_dir = Ir.Write;
            e_access = Access_map.make [| [| 0 |] |] [| 0 |];
            e_label = "y" };
        ];
      blk_children = [];
      blk_body =
        [ { Ir.op = Expr.Tanh; operands = [ Ir.O_var "x" ];
            operand_shapes = [ Shape.scalar ];
            result_shape = Shape.scalar } ];
      blk_results = [ Ir.O_op 0 ];
      blk_consts = [];
    }
  in
  {
    Ir.g_name = "ww-racy";
    g_buffers = [ buf 0 "xs" [| 4 |] Ir.Input; buf 1 "ys" [| 1 |] Ir.Output ];
    g_blocks = [ block ];
  }

(* Every point reads cell 0 of the buffer the block itself writes
   (identity): points 1..3 read what their same-front sibling 0
   writes — a read-write race. *)
let rw_racy_graph () =
  let block =
    {
      Ir.blk_id = 0;
      blk_name = "peek";
      blk_ops = [| Expr.Map |];
      blk_domain = Domain.of_extents [| 4 |];
      blk_edges =
        [
          { Ir.e_buffer = 0; e_dir = Ir.Read;
            e_access = Access_map.identity 1; e_label = "x" };
          { Ir.e_buffer = 1; e_dir = Ir.Read;
            e_access = Access_map.make [| [| 0 |] |] [| 0 |];
            e_label = "peek" };
          { Ir.e_buffer = 1; e_dir = Ir.Write;
            e_access = Access_map.identity 1; e_label = "y" };
        ];
      blk_children = [];
      blk_body =
        [ { Ir.op = Expr.Tanh; operands = [ Ir.O_var "x" ];
            operand_shapes = [ Shape.scalar ];
            result_shape = Shape.scalar } ];
      blk_results = [ Ir.O_op 0 ];
      blk_consts = [];
    }
  in
  {
    Ir.g_name = "rw-racy";
    g_buffers = [ buf 0 "xs" [| 4 |] Ir.Input; buf 1 "ys" [| 4 |] Ir.Output ];
    g_blocks = [ block ];
  }

(* One block writes an intermediate nobody reads; a second block maps
   the input straight to the output.  `tmp` is a dead store. *)
let dead_store_graph () =
  let writer label bid =
    [
      { Ir.e_buffer = 0; e_dir = Ir.Read;
        e_access = Access_map.identity 1; e_label = "x" };
      { Ir.e_buffer = bid; e_dir = Ir.Write;
        e_access = Access_map.identity 1; e_label = label };
    ]
  in
  let block id name edges =
    {
      Ir.blk_id = id;
      blk_name = name;
      blk_ops = [| Expr.Map |];
      blk_domain = Domain.of_extents [| 4 |];
      blk_edges = edges;
      blk_children = [];
      blk_body =
        [ { Ir.op = Expr.Tanh; operands = [ Ir.O_var "x" ];
            operand_shapes = [ Shape.scalar ];
            result_shape = Shape.scalar } ];
      blk_results = [ Ir.O_op 0 ];
      blk_consts = [];
    }
  in
  {
    Ir.g_name = "dead-store";
    g_buffers =
      [ buf 0 "xs" [| 4 |] Ir.Input; buf 1 "tmp" [| 4 |] Ir.Intermediate;
        buf 2 "out" [| 4 |] Ir.Output ];
    g_blocks = [ block 0 "spill" (writer "tmp" 1); block 1 "keep" (writer "out" 2) ];
  }

(* A same-front read-write race that the sequential order executes
   legally: "fill" writes ys[0..3]; "chase" (a map, so one front)
   writes ys[i+4] and reads ys[2i], so points 2 and 3 read cells that
   their front siblings 0 and 2 write.  The race guard must downgrade
   "chase" to sequential in every engine, and then every engine
   computes the same values. *)
let chase_graph () =
  let tanh_block id name edges =
    {
      Ir.blk_id = id;
      blk_name = name;
      blk_ops = [| Expr.Map |];
      blk_domain = Domain.of_extents [| 4 |];
      blk_edges = edges;
      blk_children = [];
      blk_body =
        [ { Ir.op = Expr.Tanh; operands = [ Ir.O_var "x" ];
            operand_shapes = [ Shape.scalar ];
            result_shape = Shape.scalar } ];
      blk_results = [ Ir.O_op 0 ];
      blk_consts = [];
    }
  in
  let edge b dir label m o =
    { Ir.e_buffer = b; e_dir = dir; e_access = Access_map.make m o;
      e_label = label }
  in
  {
    Ir.g_name = "chase";
    g_buffers = [ buf 0 "xs" [| 4 |] Ir.Input; buf 1 "ys" [| 8 |] Ir.Output ];
    g_blocks =
      [
        tanh_block 0 "fill"
          [ edge 0 Ir.Read "x" [| [| 1 |] |] [| 0 |];
            edge 1 Ir.Write "y" [| [| 1 |] |] [| 0 |] ];
        tanh_block 1 "chase"
          [ edge 1 Ir.Read "x" [| [| 2 |] |] [| 0 |];
            edge 1 Ir.Write "y" [| [| 1 |] |] [| 4 |] ];
      ];
  }

let has_code code ds = List.exists (fun d -> d.Diagnostic.code = code) ds

(* Run [f] with the race-guard fallback handler recording every
   (block, reason) downgrade; the default stderr warning is restored
   afterwards. *)
let capture_fallbacks f =
  let fired = ref [] in
  Vm.set_fallback_handler (fun blk why -> fired := (blk, why) :: !fired);
  let result =
    Fun.protect
      ~finally:(fun () ->
        Vm.set_fallback_handler (fun blk why ->
            Printf.eprintf
              "vm: warning: block %s falls back to sequential execution \
               — %s\n%!"
              blk why))
      f
  in
  (List.rev !fired, result)

(* ----------------------------- footprints -------------------------- *)

let footprint_tests =
  [
    Alcotest.test_case "stacked_rnn footprints are exact boxes" `Quick
      (fun () ->
        let g = Build.build (Stacked_rnn.program Stacked_rnn.default) in
        let fps = Effects.footprints g in
        checkb "one footprint per block" true
          (List.length fps = List.length g.Ir.g_blocks);
        List.iter
          (fun fp ->
            checkb "has a write" true (fp.Effects.fp_writes <> []);
            List.iter
              (fun r ->
                checkb "must precision" true
                  (r.Effects.rg_precision = Effects.Must);
                checkb "non-empty box" true (Effects.region_cells r > 0))
              (fp.Effects.fp_reads @ fp.Effects.fp_writes))
          fps);
    Alcotest.test_case "buffer_bytes follows the f32 convention" `Quick
      (fun () ->
        let b = buf 0 "b" [| 3; 5 |] Ir.Intermediate in
        checki "4 * 15 * 1" (4 * 15) (Effects.buffer_bytes b));
  ]

(* ----------------------------- race check -------------------------- *)

let race_tests =
  [
    Alcotest.test_case "overlapping same-front writes are a W-W race"
      `Quick (fun () ->
        let g = ww_racy_graph () in
        let rr = List.hd (Effects.race_check g) in
        checks "verdict" "race" (Effects.verdict_name rr.Effects.rr_verdict);
        checkb "kind is WW" true
          (match rr.Effects.rr_verdict with
          | Effects.Race (Effects.WW, _) -> true
          | _ -> false);
        let ds = Effects.race_diagnostics g in
        checkb "V300 error emitted" true (has_code "V300" ds);
        checkb "it is an error" true (List.exists Diagnostic.is_error ds));
    Alcotest.test_case "same-front read of a sibling's write is R-W"
      `Quick (fun () ->
        let g = rw_racy_graph () in
        let rr = List.hd (Effects.race_check g) in
        checkb "kind is RW" true
          (match rr.Effects.rr_verdict with
          | Effects.Race (Effects.RW, _) -> true
          | _ -> false);
        checkb "V301 error emitted" true
          (has_code "V301" (Effects.race_diagnostics g)));
    Alcotest.test_case "stacked_rnn state offset is not a false positive"
      `Quick (fun () ->
        let g = Build.build (Stacked_rnn.program Stacked_rnn.default) in
        List.iter
          (fun rr ->
            checks rr.Effects.rr_block "proven-disjoint"
              (Effects.verdict_name rr.Effects.rr_verdict))
          (Effects.race_check g));
    Alcotest.test_case
      "corpus reversed-aggregate +1 offset is not a false positive" `Quick
      (fun () ->
        (* conform-13300a8b6d.ft: a foldr whose state edge carries a +1
           offset — provably carried across fronts, never same-front *)
        let p =
          Parse.program_file
            (Filename.concat corpus_dir "conform-13300a8b6d.ft")
        in
        ignore (Typecheck.check_program p);
        let g = Build.build p in
        List.iter
          (fun rr ->
            checks rr.Effects.rr_block "proven-disjoint"
              (Effects.verdict_name rr.Effects.rr_verdict))
          (Effects.race_check g));
    Alcotest.test_case "large domains still get a verdict, never silence"
      `Quick (fun () ->
        let g = Build.build (Conv1d.program Conv1d.default) in
        List.iter
          (fun rr ->
            checkb
              (rr.Effects.rr_block ^ " has a verdict")
              true
              (match Effects.verdict_name rr.Effects.rr_verdict with
              | "proven-disjoint" | "unproven" | "race" -> true
              | _ -> false))
          (Effects.race_check g));
  ]

(* ----------------------------- flow checks ------------------------- *)

let flow_tests =
  [
    Alcotest.test_case "write-only intermediate is a dead store (V302)"
      `Quick (fun () ->
        let g = dead_store_graph () in
        checkb "never_read finds tmp" true
          (List.mem "tmp" (Effects.never_read g));
        checkb "V302 emitted" true
          (has_code "V302" (Effects.flow_diagnostics g)));
    Alcotest.test_case "well-formed programs have no flow findings" `Quick
      (fun () ->
        let g = Build.build (Stacked_rnn.program Stacked_rnn.default) in
        checki "no diagnostics" 0 (List.length (Effects.diagnostics g)));
  ]

(* ------------------------- liveness / arena ------------------------ *)

let acc name bytes write =
  { Liveness.ac_buffer = name; ac_bytes = bytes; ac_write = write }

let step name accs = { Liveness.sp_name = name; sp_accesses = accs }

let chain_steps =
  (* a[def 0, use 1], b[def 1, use 2], c[def 2, use 3]: a and c never
     overlap, so c can sit on a's bytes *)
  [
    step "s0" [ acc "in" 64 false; acc "a" 256 true ];
    step "s1" [ acc "a" 256 false; acc "b" 128 true ];
    step "s2" [ acc "b" 128 false; acc "c" 256 true ];
    step "s3" [ acc "c" 256 false; acc "out" 64 true ];
  ]

let liveness_tests =
  [
    Alcotest.test_case "intervals: first def to last use" `Quick (fun () ->
        let ivs =
          Liveness.intervals ~live_in:[ "in" ] ~live_out:[ "out" ]
            chain_steps
        in
        let find n = List.find (fun i -> i.Liveness.iv_buffer = n) ivs in
        checki "a first" 0 (find "a").Liveness.iv_first;
        checki "a last" 1 (find "a").Liveness.iv_last;
        checki "c first" 2 (find "c").Liveness.iv_first;
        checkb "inputs are fixed" true (find "in").Liveness.iv_fixed;
        checkb "outputs are fixed" true (find "out").Liveness.iv_fixed;
        checkb "intermediates are placeable" true
          (not (find "a").Liveness.iv_fixed));
    Alcotest.test_case "interference is the overlap relation" `Quick
      (fun () ->
        let ivs =
          Liveness.intervals ~live_in:[ "in" ] ~live_out:[ "out" ]
            chain_steps
        in
        let pairs = Liveness.interference ivs in
        let mem a b =
          List.mem (a, b) pairs || List.mem (b, a) pairs
        in
        checkb "a-b interfere" true (mem "a" "b");
        checkb "b-c interfere" true (mem "b" "c");
        checkb "a-c do not" false (mem "a" "c"));
    Alcotest.test_case "layout reuses disjoint lifetimes" `Quick (fun () ->
        let a =
          Liveness.layout
            (Liveness.intervals ~live_in:[ "in" ] ~live_out:[ "out" ]
               chain_steps)
        in
        let slot n =
          List.find (fun s -> s.Liveness.sl_buffer = n) a.Liveness.ar_slots
        in
        checki "c reuses a's offset" (slot "a").Liveness.sl_offset
          (slot "c").Liveness.sl_offset;
        checkb "arena smaller than the sum" true
          (a.Liveness.ar_total < a.Liveness.ar_sum));
    Alcotest.test_case "mlp_chain example shows real arena reuse" `Quick
      (fun () ->
        let r =
          Analyze.file (Filename.concat example_dir "mlp_chain.ft")
        in
        let a = r.Analyze.rp_arena in
        checkb "reuse on a real program" true
          (a.Liveness.ar_total < a.Liveness.ar_sum);
        checkb "no errors" false (Analyze.errors r));
    Alcotest.test_case "arena never exceeds the sum of buffer sizes"
      `Quick (fun () ->
        List.iter
          (fun name ->
            let r =
              Analyze.file
                (Filename.concat example_dir (name ^ ".ft"))
            in
            let a = r.Analyze.rp_arena in
            checkb (name ^ " total <= sum") true
              (a.Liveness.ar_total <= a.Liveness.ar_sum))
          [ "stacked_rnn"; "ffn_block"; "attention_block"; "conv1d";
            "mlp_chain" ]);
  ]

(* --------------------------- shadow memory ------------------------- *)

let shadow_tests =
  [
    Alcotest.test_case "recorder raises on a same-front double write"
      `Quick (fun () ->
        let sh = Shadow.create (ww_racy_graph ()) in
        Shadow.on_write sh ~block:"clobber" ~front:0 ~point:[| 0 |]
          ~buffer:1 [| 0 |];
        checkb "second write raises" true
          (match
             Shadow.on_write sh ~block:"clobber" ~front:0 ~point:[| 1 |]
               ~buffer:1 [| 0 |]
           with
          | () -> false
          | exception Shadow.Violation _ -> true));
    Alcotest.test_case "recorder raises on a same-front sibling read"
      `Quick (fun () ->
        let sh = Shadow.create (rw_racy_graph ()) in
        Shadow.on_write sh ~block:"peek" ~front:3 ~point:[| 0 |] ~buffer:1
          [| 0 |];
        checkb "foreign same-front read raises" true
          (match
             Shadow.on_read sh ~block:"peek" ~front:3 ~point:[| 2 |]
               ~buffer:1 [| 0 |]
           with
          | () -> false
          | exception Shadow.Violation _ -> true);
        (* the writing point may re-read its own cell *)
        Shadow.on_read sh ~block:"peek" ~front:3 ~point:[| 0 |] ~buffer:1
          [| 0 |];
        (* and any point may read it from a later front *)
        Shadow.on_read sh ~block:"peek" ~front:4 ~point:[| 2 |] ~buffer:1
          [| 0 |]);
    Alcotest.test_case "cross_check flags a dynamically-read dead store"
      `Quick (fun () ->
        let g = dead_store_graph () in
        let sh = Shadow.create g in
        Shadow.on_read sh ~block:"keep" ~front:0 ~point:[| 0 |] ~buffer:1
          [| 0 |];
        let issues = Shadow.cross_check g (Shadow.finish sh) sh in
        checkb "contradiction reported" true (issues <> []));
    Alcotest.test_case "race guard downgrades a racy block to sequential"
      `Quick (fun () ->
        let fired, () =
          capture_fallbacks (fun () ->
              let g = ww_racy_graph () in
              let xs =
                Fractal.tabulate 4 (fun _ -> Fractal.Leaf (Tensor.scalar 1.))
              in
              (* the graph violates single assignment by construction, so
                 even the sequential fallback must refuse to run it — the
                 point is that the guard fired before any parallel front *)
              match Executor.run g [ ("xs", xs) ] with
              | _ -> Alcotest.fail "racy graph executed"
              | exception Vm.Execution_error _ -> ())
        in
        checkb "fallback handler saw the block" true
          (List.mem_assoc "clobber" fired));
    Alcotest.test_case "race guard: one (block, reason) list for every engine"
      `Quick (fun () ->
        let g = chase_graph () in
        let env =
          [ ("xs",
             Fractal.tabulate 4 (fun i ->
                 Fractal.Leaf (Tensor.scalar (0.25 *. float_of_int i)))) ]
        in
        (* the sequential order never consults the guard *)
        let seq, seq_outs =
          capture_fallbacks (fun () ->
              Executor.run
                ~opts:{ Run_opts.default with Run_opts.order = Vm.Sequential }
                g env)
        in
        let compiled, compiled_outs =
          capture_fallbacks (fun () -> Executor.run g env)
        in
        let dist, rep =
          capture_fallbacks (fun () -> Dist.run ~devices:2 g env)
        in
        let pairs = Alcotest.(list (pair string string)) in
        Alcotest.check pairs "sequential: no downgrade" [] seq;
        checkb "the guard fired on chase" true
          (match compiled with
           | [ ("chase", why) ] -> String.length why > 0
           | _ -> false);
        Alcotest.check pairs "sharded = compiled" compiled dist;
        Alcotest.check pairs "lg_fallbacks = handler" dist
          rep.Dist.rp_log.Dist_exec.lg_fallbacks;
        checkb "compiled values" true
          (Dist.bitwise_equal seq_outs compiled_outs);
        checkb "sharded values" true
          (Dist.bitwise_equal seq_outs rep.Dist.rp_outputs));
    Alcotest.test_case "FT_SHADOW wavefront run matches sequential" `Quick
      (fun () ->
        let cfg = Stacked_rnn.default in
        let inp = Stacked_rnn.gen_inputs (Rng.create 11) cfg in
        let g = Build.build (Stacked_rnn.program cfg) in
        let env = Stacked_rnn.bindings inp in
        let sh = Shadow.create g in
        let par = Compiled.run ~shadow:sh (Compiled.compile g) env in
        let summary = Shadow.finish sh in
        checkb "no static/dynamic contradiction" true
          (Shadow.cross_check g summary sh = []);
        checkb "events recorded" true
          (summary.Shadow.sh_reads > 0 && summary.Shadow.sh_writes > 0);
        let seq =
          Executor.run
            ~opts:
              { Run_opts.default with
                Run_opts.order = Vm.Sequential; shadow = Run_opts.Shadow_off }
            g env
        in
        checkb "bitwise equal under the recorder" true
          (List.for_all2
             (fun (n1, v1) (n2, v2) -> n1 = n2 && Fractal.equal_exact v1 v2)
             seq par));
  ]

let suites =
  [
    ( "effects",
      footprint_tests @ race_tests @ flow_tests @ liveness_tests
      @ shadow_tests );
  ]
