(* Distributed execution: the shard partitioner's plans and legality
   proofs, the interconnect timeline, and — the point of the layer —
   the sharded differential: every workload, executed across simulated
   devices on real OCaml domains with explicit transfers, must be
   *bitwise* identical to the single-device compiled engine. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-6))

let () = Vm.set_fallback_handler (fun _ _ -> ())

(* A map-over-fold program: axis 0 is free (batch-shardable), axis 1
   carries the reduction dependence. *)
let foldy_src =
  {|
program foldy
input qs: [6]f32[4,8]
input ks: [5]f32[4,8]
return qs.map { |q| ks.reduce(zeros[4,4]) { |acc, k| acc + q @T k } }
|}

let graph_and_inputs ?(seed = 7) src =
  let p = Parse.program src in
  let g = Build.build p in
  let rng = Rng.create seed in
  let binds =
    List.map
      (fun (x, t) -> (x, Gen.random_value ~scale:0.3 rng t))
      p.Expr.inputs
  in
  (g, binds)

(* ------------------------- interconnect model ------------------------ *)

let model_tests =
  [
    Alcotest.test_case "transfer time is alpha-beta: latency + bytes/bw"
      `Quick (fun () ->
        checkf "empty" 0.0 (Device.transfer_time_us Device.nvlink 0.0);
        (* 3 MB over 300 GB/s = 10 us on the wire, plus 1.3 us latency *)
        checkf "nvlink 3MB" 11.3 (Device.transfer_time_us Device.nvlink 3e6);
        checkb "pcie slower" true
          (Device.transfer_time_us Device.pcie 3e6
          > Device.transfer_time_us Device.nvlink 3e6));
    Alcotest.test_case "topology: size, link, and validation" `Quick
      (fun () ->
        let topo = Device.topology Device.a100 4 in
        checki "size" 4 (Device.topo_size topo);
        checkb "default link" true (topo.Device.topo_link == Device.nvlink);
        checkb "zero devices rejected" true
          (match Device.topology Device.a100 0 with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "dist timeline: independent devices overlap, one \
                        device serializes" `Quick (fun () ->
        let dev = Device.a100 in
        let k =
          Kernel.make ~name:"k" ~flops:1e12 ~parallel_tasks:1024
            ~dram_read:1e8 ()
        in
        let t_ms = Kernel.total_time_us dev k /. 1e3 in
        let topo = Device.topology dev 2 in
        let two_dev =
          Engine.dist_run topo
            [ Engine.D_compute (0, k); Engine.D_compute (1, k) ]
        in
        checkf "overlapped makespan" t_ms two_dev.Engine.dm_time_ms;
        checki "kernels" 2 two_dev.Engine.dm_kernels;
        checkf "busy dev0" t_ms two_dev.Engine.dm_busy_ms.(0);
        let one_dev =
          Engine.dist_run topo
            [ Engine.D_compute (0, k); Engine.D_compute (0, k) ]
        in
        checkf "serialized makespan" (2.0 *. t_ms) one_dev.Engine.dm_time_ms);
    Alcotest.test_case "dist timeline: a transfer is a rendezvous of both \
                        endpoints" `Quick (fun () ->
        let dev = Device.a100 in
        let k =
          Kernel.make ~name:"k" ~flops:1e12 ~parallel_tasks:1024 ()
        in
        let t_ms = Kernel.total_time_us dev k /. 1e3 in
        let bytes = 4e6 in
        let x_ms = Device.transfer_time_us Device.nvlink bytes /. 1e3 in
        let topo = Device.topology dev 2 in
        let m =
          Engine.dist_run topo
            [
              Engine.D_compute (0, k);
              Engine.D_xfer
                { dx_src = 0; dx_dst = 1; dx_bytes = bytes; dx_label = "h" };
              Engine.D_compute (1, k);
            ]
        in
        (* dev1 is idle until the transfer lands, so the chain is a sum *)
        checkf "chained makespan" ((2.0 *. t_ms) +. x_ms) m.Engine.dm_time_ms;
        checki "xfers" 1 m.Engine.dm_xfers;
        checkf "xfer GB" (bytes /. 1e9) m.Engine.dm_xfer_gb);
    Alcotest.test_case "dist timeline: the host never runs kernels" `Quick
      (fun () ->
        let topo = Device.topology Device.a100 2 in
        let k = Kernel.make ~name:"k" ~flops:1.0 ~parallel_tasks:1 () in
        checkb "rejected" true
          (match
             Engine.dist_timeline topo [ Engine.D_compute (Engine.host, k) ]
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "Plan.scale: linear work, rounded tasks, dropped \
                        GEMM hint" `Quick (fun () ->
        let ks =
          Plan.kernel ~gemm:(8, 8, 8) ~l1_bytes:100.0 ~name:"g" ~flops:1000.0
            ~tasks:3
            [ Plan.read "a" 400.0; Plan.write "b" 200.0 ]
        in
        let h = Plan.scale 0.5 ks in
        checkf "flops" 500.0 h.Plan.ks_flops;
        checkf "read bytes" 200.0
          (List.hd h.Plan.ks_accesses).Plan.a_bytes;
        checkf "l1" 50.0 h.Plan.ks_l1_bytes;
        checki "tasks round up" 2 h.Plan.ks_tasks;
        checkb "gemm dropped" true (h.Plan.ks_gemm = None);
        checkb "identity keeps gemm" true
          ((Plan.scale 1.0 ks).Plan.ks_gemm = Some (8, 8, 8));
        checki "tasks floor at 1" 1 (Plan.scale 0.01 ks).Plan.ks_tasks;
        checkb "fraction validated" true
          (match Plan.scale 1.5 ks with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

(* ----------------------------- shard plans ---------------------------- *)

let axis_sharded sh =
  match sh.Shard.sh_strategy with
  | Shard.Batch | Shard.Sequence -> true
  | Shard.Replicate -> false

let shard_tests =
  [
    Alcotest.test_case "strategy names round-trip; no other name parses"
      `Quick (fun () ->
        List.iter
          (fun s ->
            checkb (Shard.strategy_name s) true
              (Shard.strategy_of_name (Shard.strategy_name s) = Some s))
          [ Shard.Batch; Shard.Sequence; Shard.Replicate ];
        List.iter
          (fun n -> checkb n true (Shard.strategy_of_name n = None))
          [ "pipeline"; "auto"; ""; "Batch" ]);
    Alcotest.test_case "auto partition takes the free axis (batch)" `Quick
      (fun () ->
        let g, _ = graph_and_inputs foldy_src in
        let plan = Shard.partition ~devices:2 g in
        List.iter
          (fun (_, sh) ->
            checkb "batch" true (sh.Shard.sh_strategy = Shard.Batch);
            checki "free axis" 0 sh.Shard.sh_axis)
          plan.Shard.pl_blocks;
        checkb "legal" true (Shard.legal (Shard.verify g plan)));
    Alcotest.test_case "forced sequence shards the dependence axis with a \
                        covering halo" `Quick (fun () ->
        let g, _ = graph_and_inputs foldy_src in
        let plan = Shard.partition ~strategy:Shard.Sequence ~devices:2 g in
        let sh = Shard.block_shard plan "foldy.region1" in
        checkb "sequence" true (sh.Shard.sh_strategy = Shard.Sequence);
        checki "fold axis" 1 sh.Shard.sh_axis;
        checki "halo covers distance" 1 sh.Shard.sh_halo;
        checkb "legal" true (Shard.legal (Shard.verify g plan)));
    Alcotest.test_case "an uncovered halo is statically refuted (D401)"
      `Quick (fun () ->
        let g, _ = graph_and_inputs foldy_src in
        let plan = Shard.partition ~strategy:Shard.Sequence ~devices:2 g in
        let bad =
          {
            plan with
            Shard.pl_blocks =
              List.map
                (fun (n, sh) -> (n, { sh with Shard.sh_halo = 0 }))
                plan.Shard.pl_blocks;
          }
        in
        let diags = Shard.verify g bad in
        checkb "illegal" false (Shard.legal diags);
        checkb "D401" true
          (List.exists (fun d -> d.Diagnostic.code = "D401") diags));
    Alcotest.test_case "batch on a dependence-carrying axis is refuted"
      `Quick (fun () ->
        let g, _ = graph_and_inputs foldy_src in
        let plan = Shard.partition ~strategy:Shard.Sequence ~devices:2 g in
        let bad =
          {
            plan with
            Shard.pl_blocks =
              List.map
                (fun (n, sh) ->
                  ( n,
                    if axis_sharded sh then
                      { sh with Shard.sh_strategy = Shard.Batch;
                        sh_halo = 0 }
                    else sh ))
                plan.Shard.pl_blocks;
          }
        in
        checkb "illegal" false (Shard.legal (Shard.verify g bad)));
    Alcotest.test_case "owner: contiguous chunks partition every domain"
      `Quick (fun () ->
        let cfg = Stacked_rnn.default in
        let g = Build.build (Stacked_rnn.program cfg) in
        let plan = Shard.partition ~devices:3 g in
        List.iter
          (fun (b : Ir.block) ->
            let sh = Shard.block_shard plan b.Ir.blk_name in
            let pts = Domain.enumerate b.Ir.blk_domain in
            let counts = Array.make 3 0 in
            let last = ref (-1) in
            List.iter
              (fun p ->
                let d = Shard.owner sh p in
                checkb "in range" true (d >= 0 && d < 3);
                counts.(d) <- counts.(d) + 1;
                if axis_sharded sh then begin
                  (* enumerate is lexicographic, so along the sharded
                     axis owners never decrease within a row *)
                  if p.(sh.Shard.sh_axis) = sh.Shard.sh_lo then last := -1;
                  checkb "monotone" true (d >= !last);
                  last := d
                end)
              pts;
            checki "partitioned" (List.length pts)
              (Array.fold_left ( + ) 0 counts);
            if axis_sharded sh then
              for d = 0 to Shard.active_devices sh - 1 do
                checkb "active device non-empty" true (counts.(d) > 0)
              done)
          (Ir.dataflow_order g));
    Alcotest.test_case "subrange over the full box equals the block \
                        footprint" `Quick (fun () ->
        let cfg = Stacked_rnn.default in
        let g = Build.build (Stacked_rnn.program cfg) in
        List.iter
          (fun (b : Ir.block) ->
            match Domain.rect_extents b.Ir.blk_domain with
            | None -> ()
            | Some ext ->
                let fp = Effects.block_footprint g b in
                List.iter
                  (fun (e : Ir.edge) ->
                    let r = Effects.subrange_region g b ~ext e in
                    match
                      List.find_opt
                        (fun (f : Effects.region) ->
                          f.Effects.rg_label = r.Effects.rg_label
                          && f.Effects.rg_buffer = r.Effects.rg_buffer)
                        fp.Effects.fp_writes
                    with
                    | None -> ()
                    | Some f ->
                        checkb "lo" true (f.Effects.rg_lo = r.Effects.rg_lo);
                        checkb "hi" true (f.Effects.rg_hi = r.Effects.rg_hi))
                  (Ir.writes b))
          (Ir.dataflow_order g));
    Alcotest.test_case "halo widening grows only the sharded axis" `Quick
      (fun () ->
        let g, _ = graph_and_inputs foldy_src in
        let b =
          List.find
            (fun (b : Ir.block) -> b.Ir.blk_name = "foldy.region1")
            (Ir.dataflow_order g)
        in
        let ext = Option.get (Domain.rect_extents b.Ir.blk_domain) in
        let plan = Shard.partition ~strategy:Shard.Sequence ~devices:2 g in
        let sh = Shard.block_shard plan "foldy.region1" in
        let tight = Shard.device_ext sh ext 1 ~widen:false in
        let wide = Shard.device_ext sh ext 1 ~widen:true in
        Array.iteri
          (fun i (l, h) ->
            let wl, wh = wide.(i) in
            if i = sh.Shard.sh_axis then
              checkb "wider" true (wl <= l - 1 && wh >= h)
            else begin
              checki "same lo" l wl;
              checki "same hi" h wh
            end)
          tight);
  ]

(* ------------------------ sharded differential ----------------------- *)

module type WORKLOAD = sig
  type config
  type inputs

  val default : config
  val program : config -> Expr.program
  val gen_inputs : Rng.t -> config -> inputs
  val bindings : inputs -> (string * Fractal.t) list
end

let workloads :
    (string * (Rng.t -> Ir.graph * (string * Fractal.t) list)) list =
  let w name (module M : WORKLOAD) =
    ( name,
      fun rng ->
        let cfg = M.default in
        let inp = M.gen_inputs rng cfg in
        (Build.build (M.program cfg), M.bindings inp) )
  in
  [
    w "stacked_rnn" (module Stacked_rnn);
    w "stacked_lstm" (module Stacked_lstm);
    w "dilated_rnn" (module Dilated_rnn);
    w "grid_rnn" (module Grid_rnn);
    w "b2b_gemm" (module B2b_gemm);
    w "flash_attention" (module Flash_attention);
    w "conv1d" (module Conv1d);
    w "selective_scan" (module Selective_scan);
    w "retention" (module Retention);
    w "bigbird" (module Bigbird);
  ]

(* A hand-built two-block graph that fails only on device 1: "fill"
   writes cells 0-1 of [ts], "spread" maps all four cells of [ts] —
   a legal, proven-parallel front whose device-1 half (points 2, 3)
   reads cells nobody wrote. *)
let half_filled_graph () =
  let buf id name dims role =
    { Ir.buf_id = id; buf_name = name; buf_dims = dims;
      buf_elem = Shape.scalar; buf_role = role }
  in
  let edge b dir label =
    { Ir.e_buffer = b; e_dir = dir; e_access = Access_map.identity 1;
      e_label = label }
  in
  let tanh_block id name extent ~src ~dst =
    {
      Ir.blk_id = id;
      blk_name = name;
      blk_ops = [| Expr.Map |];
      blk_domain = Domain.of_extents [| extent |];
      blk_edges = [ edge src Ir.Read "x"; edge dst Ir.Write "y" ];
      blk_children = [];
      blk_body =
        [ { Ir.op = Expr.Tanh; operands = [ Ir.O_var "x" ];
            operand_shapes = [ Shape.scalar ]; result_shape = Shape.scalar } ];
      blk_results = [ Ir.O_op 0 ];
      blk_consts = [];
    }
  in
  {
    Ir.g_name = "half-filled";
    g_buffers =
      [ buf 0 "xs" [| 2 |] Ir.Input; buf 1 "ts" [| 4 |] Ir.Intermediate;
        buf 2 "zs" [| 4 |] Ir.Output ];
    g_blocks =
      [ tanh_block 0 "fill" 2 ~src:0 ~dst:1;
        tanh_block 1 "spread" 4 ~src:1 ~dst:2 ];
  }

(* A hand-built one-block graph and plan where two devices write one
   cell: "dup" maps both points of [xs] onto cell 0 of [ys], and the
   plan gives each device one point. *)
let double_write () =
  let g =
    {
      Ir.g_name = "double-write";
      g_buffers =
        [ { Ir.buf_id = 0; buf_name = "xs"; buf_dims = [| 2 |];
            buf_elem = Shape.scalar; buf_role = Ir.Input };
          { Ir.buf_id = 1; buf_name = "ys"; buf_dims = [| 2 |];
            buf_elem = Shape.scalar; buf_role = Ir.Output } ];
      g_blocks =
        [
          {
            Ir.blk_id = 0;
            blk_name = "dup";
            blk_ops = [| Expr.Map |];
            blk_domain = Domain.of_extents [| 2 |];
            blk_edges =
              [ { Ir.e_buffer = 0; e_dir = Ir.Read;
                  e_access = Access_map.identity 1; e_label = "x" };
                { Ir.e_buffer = 1; e_dir = Ir.Write;
                  e_access = Access_map.make [| [| 0 |] |] [| 0 |];
                  e_label = "y" } ];
            blk_children = [];
            blk_body =
              [ { Ir.op = Expr.Tanh; operands = [ Ir.O_var "x" ];
                  operand_shapes = [ Shape.scalar ];
                  result_shape = Shape.scalar } ];
            blk_results = [ Ir.O_op 0 ];
            blk_consts = [];
          };
        ];
    }
  in
  let plan =
    {
      Shard.pl_devices = 2;
      pl_forced = Some Shard.Batch;
      pl_blocks =
        [ ( "dup",
            { Shard.sh_block = "dup"; sh_strategy = Shard.Batch; sh_axis = 0;
              sh_lo = 0; sh_hi = 2; sh_chunk = 1; sh_halo = 0;
              sh_devices = 2 } ) ];
    }
  in
  let xs = Fractal.tabulate 2 (fun i -> Fractal.Leaf (Tensor.scalar (float i))) in
  (g, plan, [ ("xs", xs) ])

(* One-block graphs no engine can run, one per check Compiled.compile
   makes before any value exists: "bad" maps [xs] (two scalars) to
   [ys], with one thing wrong. *)
let malformed =
  let graph ?(elem = Shape.scalar) ?(read = Access_map.identity 1)
      ?(dst = 1) () =
    {
      Ir.g_name = "malformed";
      g_buffers =
        [ { Ir.buf_id = 0; buf_name = "xs"; buf_dims = [| 2 |];
            buf_elem = Shape.scalar; buf_role = Ir.Input };
          { Ir.buf_id = 1; buf_name = "ys"; buf_dims = [| 2 |];
            buf_elem = elem; buf_role = Ir.Output } ];
      g_blocks =
        [
          {
            Ir.blk_id = 0;
            blk_name = "bad";
            blk_ops = [| Expr.Map |];
            blk_domain = Domain.of_extents [| 2 |];
            blk_edges =
              [ { Ir.e_buffer = 0; e_dir = Ir.Read; e_access = read;
                  e_label = "x" };
                { Ir.e_buffer = dst; e_dir = Ir.Write;
                  e_access = Access_map.identity 1; e_label = "y" } ];
            blk_children = [];
            blk_body =
              [ { Ir.op = Expr.Tanh; operands = [ Ir.O_var "x" ];
                  operand_shapes = [ Shape.scalar ];
                  result_shape = Shape.scalar } ];
            blk_results = [ Ir.O_op 0 ];
            blk_consts = [];
          };
        ];
    }
  in
  [
    ("input write", "writes input buffer 0", graph ~dst:0 ());
    ( "stored-shape mismatch", "stored value shape",
      graph ~elem:(Shape.of_array [| 1 |]) () );
    ( "partial access", "partial access of buffer 0",
      graph ~read:(Access_map.make ~in_dim:1 [||] [||]) () );
    ( "arity mismatch", "access arity 2 over a 1-dimensional domain",
      graph ~read:(Access_map.make [| [| 1; 0 |] |] [| 0 |]) () );
    ( "out-of-extent index", "index 2 out of extent 2",
      graph ~read:(Access_map.make [| [| 1 |] |] [| 1 |]) () );
  ]

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let exec_tests =
  [
    Alcotest.test_case "every workload is bitwise-identical at 2 and 4 \
                        devices" `Quick (fun () ->
        List.iter
          (fun (name, mk) ->
            let g, binds = mk (Rng.create 3) in
            List.iter
              (fun devices ->
                let rep, ok = Dist.differential ~devices g binds in
                checkb (Printf.sprintf "%s N=%d" name devices) true ok;
                checkb
                  (Printf.sprintf "%s N=%d plan legal" name devices)
                  true
                  (Shard.legal rep.Dist.rp_diags))
              [ 2; 4 ])
          workloads);
    Alcotest.test_case "one device degenerates to the single-device run"
      `Quick (fun () ->
        List.iter
          (fun name ->
            let g, binds = (List.assoc name workloads) (Rng.create 5) in
            let rep, ok = Dist.differential ~devices:1 g binds in
            checkb (name ^ " bitwise") true ok;
            checki (name ^ " no device traffic") 0 rep.Dist.rp_device_xfers)
          [ "stacked_rnn"; "selective_scan" ]);
    Alcotest.test_case "every forced strategy stays bitwise" `Quick
      (fun () ->
        let g, binds = (List.assoc "stacked_rnn" workloads) (Rng.create 3) in
        List.iter
          (fun s ->
            let _, ok = Dist.differential ~strategy:s ~devices:2 g binds in
            checkb (Shard.strategy_name s) true ok)
          [ Shard.Batch; Shard.Sequence; Shard.Replicate ]);
    Alcotest.test_case "sequence sharding exchanges halos; batch does not"
      `Quick (fun () ->
        let g, binds = (List.assoc "stacked_rnn" workloads) (Rng.create 3) in
        let b, _ = Dist.differential ~strategy:Shard.Batch ~devices:2 g binds in
        checki "batch: no device traffic" 0 b.Dist.rp_device_xfers;
        let s, _ =
          Dist.differential ~strategy:Shard.Sequence ~devices:2 g binds
        in
        checkb "sequence: halo traffic" true (s.Dist.rp_device_xfers > 0));
    Alcotest.test_case "the executor stays bitwise even under a plan the \
                        verifier refuses" `Quick (fun () ->
        (* pull-based fetch makes any ownership partition value-correct;
           the static gate is about the traffic contract, and the
           differential shows refusal is not load-bearing for values *)
        let g, binds = graph_and_inputs foldy_src in
        let plan = Shard.partition ~strategy:Shard.Sequence ~devices:2 g in
        let bad =
          {
            plan with
            Shard.pl_blocks =
              List.map
                (fun (n, sh) -> (n, { sh with Shard.sh_halo = 0 }))
                plan.Shard.pl_blocks;
          }
        in
        checkb "refused" false (Shard.legal (Shard.verify g bad));
        let outs = Dist_exec.execute (Dist_exec.prepare ~plan:bad g) binds in
        checkb "still bitwise" true
          (Dist.bitwise_equal outs (Executor.run g binds)));
    Alcotest.test_case "the priced log conserves work and counts transfers"
      `Quick (fun () ->
        let g, binds = (List.assoc "selective_scan" workloads) (Rng.create 3)
        in
        let rep = Dist.run ~devices:2 g binds in
        let xfers, bytes = Dist_exec.xfer_totals rep.Dist.rp_log in
        checki "xfer count" rep.Dist.rp_xfers xfers;
        checki "sim sees every transfer" xfers rep.Dist.rp_sim.Engine.dm_xfers;
        checkf "sim GB" (bytes /. 1e9) rep.Dist.rp_sim.Engine.dm_xfer_gb;
        checkb "kernels ran" true (rep.Dist.rp_sim.Engine.dm_kernels > 0);
        checkb "makespan positive" true
          (rep.Dist.rp_sim.Engine.dm_time_ms > 0.0);
        (* per-device busy time never exceeds the makespan *)
        Array.iter
          (fun busy ->
            checkb "busy <= makespan" true
              (busy <= rep.Dist.rp_sim.Engine.dm_time_ms +. 1e-9))
          rep.Dist.rp_sim.Engine.dm_busy_ms);
    Alcotest.test_case "a failing shard names its device and block; the \
                        pool survives" `Quick (fun () ->
        let pool = Dist.pool 2 in
        let g = half_filled_graph () in
        let xs =
          Fractal.tabulate 2 (fun i -> Fractal.Leaf (Tensor.scalar (float i)))
        in
        (match Dist.run ~devices:2 g [ ("xs", xs) ] with
        | _ -> Alcotest.fail "a read of an unwritten cell executed"
        | exception Vm.Execution_error m ->
            checkb ("names device 1: " ^ m) true (contains m "device 1");
            checkb ("names the block: " ^ m) true (contains m "block spread");
            checkb ("device 0 is innocent: " ^ m) false
              (contains m "device 0"));
        let g, binds = (List.assoc "stacked_rnn" workloads) (Rng.create 3) in
        let rep = Dist.run ~devices:2 g binds in
        checkb "same pool" true (Dist.pool 2 == pool);
        let compiled =
          Executor.run ~opts:{ Run_opts.default with Run_opts.domains = Some 1 }
            g binds
        in
        checkb "next run bitwise = compiled" true
          (Dist.bitwise_equal rep.Dist.rp_outputs compiled));
  ]

(* ------------------------- prepared entries ------------------------- *)

let compiled_1dev g binds =
  Executor.run ~opts:{ Run_opts.default with Run_opts.domains = Some 1 } g binds

let prepared_tests =
  [
    Alcotest.test_case "warm runs equal cold ones at 2 and 4 devices" `Quick
      (fun () ->
        List.iter
          (fun (name, mk) ->
            let g, binds = mk (Rng.create 3) in
            List.iter
              (fun devices ->
                let tag = Printf.sprintf "%s N=%d" name devices in
                Dist.clear_cache ();
                let first = Dist.run ~devices g binds in
                let warm = Dist.run ~devices g binds in
                checkb (tag ^ " warm reuses the entry") true
                  (warm.Dist.rp_log == first.Dist.rp_log);
                Dist.clear_cache ();
                let cold = Dist.run ~devices g binds in
                checkb (tag ^ " cold prepares afresh") false
                  (cold.Dist.rp_log == warm.Dist.rp_log);
                checkb (tag ^ " log") true (warm.Dist.rp_log = cold.Dist.rp_log);
                checkb (tag ^ " sim") true (warm.Dist.rp_sim = cold.Dist.rp_sim);
                checkb (tag ^ " outputs") true
                  (Dist.bitwise_equal warm.Dist.rp_outputs cold.Dist.rp_outputs);
                checkb (tag ^ " = compiled") true
                  (Dist.bitwise_equal warm.Dist.rp_outputs (compiled_1dev g binds)))
              [ 2; 4 ])
          workloads);
    Alcotest.test_case "inputs changed in place between runs are read afresh"
      `Quick (fun () ->
        List.iter
          (fun (name, mk) ->
            let g, binds = mk (Rng.create 3) in
            let _, other = mk (Rng.create 4) in
            let first = Dist.run ~devices:2 g binds in
            (* same tensors, new contents: weights included *)
            List.iter
              (fun (n, v) ->
                List.iter2
                  (fun src dst -> Tensor.copy_into src ~dst)
                  (Fractal.leaves (List.assoc n other))
                  (Fractal.leaves v))
              binds;
            let second = Dist.run ~devices:2 g binds in
            checkb (name ^ " reuses the entry") true
              (second.Dist.rp_log == first.Dist.rp_log);
            checkb (name ^ " = compiled on the new values") true
              (Dist.bitwise_equal second.Dist.rp_outputs (compiled_1dev g binds));
            checkb (name ^ " = a fresh run on copies") true
              (Dist.bitwise_equal second.Dist.rp_outputs
                 (Dist.run ~devices:2 g other).Dist.rp_outputs))
          workloads);
    Alcotest.test_case "every MiB of outputs handed out brings a minor \
                        collection" `Quick (fun () ->
        let bytes (rep : Dist.report) =
          List.fold_left
            (fun n (_, v) -> n + (8 * Fractal.numel v))
            0 rep.Dist.rp_outputs
        in
        (* the workload returning the most, to keep the loop short *)
        let g, binds, per_call =
          workloads
          |> List.map (fun (_, mk) ->
                 let g, binds = mk (Rng.create 3) in
                 (g, binds, bytes (Dist.run ~devices:2 g binds)))
          |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
          |> List.hd
        in
        let mib = 1024 * 1024 in
        let calls = (4 * mib / per_call) + 1 in
        let before = (Gc.quick_stat ()).Gc.minor_collections in
        for _ = 1 to calls do
          ignore (Dist.run ~devices:2 g binds)
        done;
        (* other collections only add to the count *)
        checkb "at least one per MiB" true
          ((Gc.quick_stat ()).Gc.minor_collections - before
           >= (calls * per_call / mib) - 1));
    Alcotest.test_case "simulate answers a priced log from its entry" `Quick
      (fun () ->
        let g, binds = (List.assoc "stacked_lstm" workloads) (Rng.create 3) in
        Dist.clear_cache ();
        let rep = Dist.run ~devices:2 g binds in
        checkb "stored metrics" true
          (Dist.simulate g rep.Dist.rp_log == rep.Dist.rp_sim);
        (* a copy of the log is priced afresh, to the same numbers *)
        let copy =
          { rep.Dist.rp_log with
            Dist_exec.lg_events = List.map Fun.id rep.Dist.rp_log.Dist_exec.lg_events }
        in
        let fresh = Dist.simulate g copy in
        checkb "fresh pricing" false (fresh == rep.Dist.rp_sim);
        checkb "same metrics" true (fresh = rep.Dist.rp_sim));
    Alcotest.test_case "an illegal plan raises on every call and is not \
                        cached" `Quick (fun () ->
        let g, _, binds = double_write () in
        Dist.clear_cache ();
        List.iter
          (fun call ->
            match Dist.run ~strategy:Shard.Batch ~devices:2 g binds with
            | _ -> Alcotest.failf "call %d: an illegal plan executed" call
            | exception Dist.Illegal_plan diags ->
                checkb (Printf.sprintf "call %d: D400" call) true
                  (List.exists (fun d -> d.Diagnostic.code = "D400") diags))
          [ 1; 2 ];
        checki "nothing cached" 0 (Dist.cache_entries ()));
    Alcotest.test_case "a cross-shard double write fails on every call"
      `Quick (fun () ->
        let g, plan, binds = double_write () in
        let pr = Dist_exec.prepare ~plan g in
        List.iter
          (fun call ->
            match Dist_exec.execute ~pool:(Dist.pool 2) pr binds with
            | _ -> Alcotest.failf "call %d: double write executed" call
            | exception Vm.Execution_error m ->
                checkb m true
                  (contains m
                     "block dup writes a cell of buffer 1 on two shards"))
          [ 1; 2 ]);
    Alcotest.test_case "a graph no engine can run is refused at prepare, \
                        naming the block" `Quick (fun () ->
        List.iter
          (fun (case, why, g) ->
            let xs =
              Fractal.tabulate 2 (fun i ->
                  Fractal.Leaf (Tensor.scalar (float i)))
            in
            let snapshot = Fractal.map_leaves Tensor.copy xs in
            let refused entry f =
              match f () with
              | _ -> Alcotest.failf "%s: %s accepted the graph" case entry
              | exception Vm.Execution_error m ->
                  checkb (Printf.sprintf "%s via %s: %s" case entry m) true
                    (contains m "block bad" && contains m why)
            in
            refused "Executor.prepare" (fun () -> Executor.prepare g);
            refused "Executor.run" (fun () -> Executor.run g [ ("xs", xs) ]);
            refused "Dist_exec.prepare" (fun () ->
                Dist_exec.prepare ~plan:(Shard.partition ~devices:2 g) g);
            Dist.clear_cache ();
            refused "Dist.run" (fun () -> Dist.run ~devices:2 g [ ("xs", xs) ]);
            checki (case ^ ": nothing cached") 0 (Dist.cache_entries ());
            checkb (case ^ ": inputs untouched") true
              (Fractal.equal_exact snapshot xs))
          malformed);
    Alcotest.test_case "a failed run leaves its entry and its neighbours \
                        bitwise-correct" `Quick (fun () ->
        let g, binds = (List.assoc "stacked_rnn" workloads) (Rng.create 3) in
        Dist.clear_cache ();
        let before = Dist.run ~devices:2 g binds in
        let half = half_filled_graph () in
        let xs =
          Fractal.tabulate 2 (fun i -> Fractal.Leaf (Tensor.scalar (float i)))
        in
        let fail () =
          match Dist.run ~devices:2 half [ ("xs", xs) ] with
          | _ -> Alcotest.fail "a read of an unwritten cell executed"
          | exception Vm.Execution_error m -> m
        in
        let m1 = fail () in
        let m2 = fail () in
        Alcotest.(check string) "the warm entry fails the same way" m1 m2;
        let after = Dist.run ~devices:2 g binds in
        checkb "same entry" true (after.Dist.rp_log == before.Dist.rp_log);
        checkb "bitwise = compiled" true
          (Dist.bitwise_equal after.Dist.rp_outputs (compiled_1dev g binds)));
    Alcotest.test_case "the cache keeps cache_limit entries, evicting the \
                        least recently used" `Quick (fun () ->
        let g, binds = graph_and_inputs foldy_src in
        let link i =
          { Device.nvlink with Device.link_name = Printf.sprintf "link%d" i }
        in
        let run i = Dist.run ~link:(link i) ~devices:2 g binds in
        Dist.clear_cache ();
        let first = run 0 in
        let logs = List.init Dist.cache_limit (fun i -> (run (i + 1)).Dist.rp_log) in
        checki "at the limit" Dist.cache_limit (Dist.cache_entries ());
        let newest = run Dist.cache_limit in
        checkb "newest still warm" true
          (newest.Dist.rp_log == List.nth logs (Dist.cache_limit - 1));
        let again = run 0 in
        checkb "oldest evicted" false (again.Dist.rp_log == first.Dist.rp_log);
        checkb "same log" true (again.Dist.rp_log = first.Dist.rp_log);
        checki "still at the limit" Dist.cache_limit (Dist.cache_entries ());
        Dist.clear_cache ();
        checki "cleared" 0 (Dist.cache_entries ()));
    Alcotest.test_case "two domains run one graph concurrently, bitwise"
      `Quick (fun () ->
        let g, binds = (List.assoc "stacked_rnn" workloads) (Rng.create 3) in
        let expected = compiled_1dev g binds in
        Dist.clear_cache ();
        (* both domains start together, so their runs overlap *)
        let ready = Atomic.make 0 in
        let go () =
          Atomic.incr ready;
          while Atomic.get ready < 2 do
            Stdlib.Domain.cpu_relax ()
          done;
          List.init 200 (fun _ -> (Dist.run ~devices:2 g binds).Dist.rp_outputs)
        in
        let other = Stdlib.Domain.spawn go in
        let mine = go () in
        let theirs = Stdlib.Domain.join other in
        List.iter
          (fun outs -> checkb "bitwise" true (Dist.bitwise_equal outs expected))
          (mine @ theirs);
        checkb "one entry per key survives" true (Dist.cache_entries () <= 2);
        checkb "at least one kept" true (Dist.cache_entries () >= 1));
    Alcotest.test_case "the cache counts one hit or miss per run and every \
                        eviction" `Quick (fun () ->
        let g, binds = graph_and_inputs foldy_src in
        let link i =
          { Device.nvlink with Device.link_name = Printf.sprintf "link%d" i }
        in
        let run ?(g = g) i = Dist.run ~link:(link i) ~devices:2 g binds in
        Dist.clear_cache ();
        let logs = List.init Dist.cache_limit (fun i -> (run i).Dist.rp_log) in
        (* the same graph value, then an equal copy found by digest *)
        checkb "warm" true ((run 0).Dist.rp_log == List.hd logs);
        let copy : Ir.graph = Marshal.from_string (Marshal.to_string g []) 0 in
        checkb "warm by digest" true
          ((run ~g:copy 0).Dist.rp_log == List.hd logs);
        (* link 1 is now the least recently used *)
        ignore (run Dist.cache_limit);
        checkb "evicted" false ((run 1).Dist.rp_log == List.nth logs 1);
        let s = Dist.cache_stats () in
        checki "hits" 2 s.Bounded_cache.hits;
        checki "misses" (Dist.cache_limit + 2) s.Bounded_cache.misses;
        checki "evictions" 2 s.Bounded_cache.evictions;
        checki "entries" Dist.cache_limit s.Bounded_cache.entries;
        Dist.clear_cache ());
  ]

(* ------------------------------ the walk ------------------------------ *)

(* Three chained scans, each sharded by sequence: every device hands
   its last state of each to the next device (a halo pull).  The
   liveness arena puts [t2] over the bytes of [hs], dead once [t1] has
   read it, and a device's share of [t2] needs nothing from another
   device: device 0 must not write [t2] before device 1 has pulled its
   halo cell of [hs].  No workload pulls a buffer whose bytes a later
   one reuses, so this is the graph that needs the write-after-read
   wait. *)
let halo_arena_src =
  {|
program halo_arena
input gs: [16]f32[1,8]
input us: [16]f32[1,8]
return
  let hs = zip(gs, us).scanl(zeros[1,8]) { |h, a, b| a * h + b } in
  let t1 = hs.scanl(zeros[1,8]) { |s, h| tanh(s + h) } in
  let t2 = t1.scanl(zeros[1,8]) { |s, x| s * x + x } in
  t2.map { |h| h + h }
|}

(* Hand-built graphs whose points fail on both devices of the auto
   plan.  [scalar_graph blocks buffers]: 1-D scalar tanh blocks
   [(name, extent, src, read map, dst, write map)]. *)
let scalar_graph name buffers blocks =
  let buf (id, n, extent, role) =
    { Ir.buf_id = id; buf_name = n; buf_dims = [| extent |];
      buf_elem = Shape.scalar; buf_role = role }
  in
  let block i (n, extent, src, read, dst, write) =
    {
      Ir.blk_id = i;
      blk_name = n;
      blk_ops = [| Expr.Map |];
      blk_domain = Domain.of_extents [| extent |];
      blk_edges =
        [ { Ir.e_buffer = src; e_dir = Ir.Read; e_access = read; e_label = "x" };
          { Ir.e_buffer = dst; e_dir = Ir.Write; e_access = write;
            e_label = "y" } ];
      blk_children = [];
      blk_body =
        [ { Ir.op = Expr.Tanh; operands = [ Ir.O_var "x" ];
            operand_shapes = [ Shape.scalar ]; result_shape = Shape.scalar } ];
      blk_results = [ Ir.O_op 0 ];
      blk_consts = [];
    }
  in
  { Ir.g_name = name; g_buffers = List.map buf buffers;
    g_blocks = List.mapi block blocks }

let id1 = Access_map.identity 1
let affine a b = Access_map.make [| [| a |] |] [| b |]

(* "fill" writes cells 0 and 4 of [ts]; "spread" reads all eight, so
   each device's half of its one front reads a cell nobody wrote. *)
let both_fail_one_front () =
  scalar_graph "both-fail"
    [ (0, "xs", 2, Ir.Input); (1, "ts", 8, Ir.Intermediate);
      (2, "zs", 8, Ir.Output) ]
    [ ("fill", 2, 0, id1, 1, affine 4 0); ("spread", 8, 1, id1, 2, id1) ]

(* Device 1 fails in block "a" (cells 2 and 3 of [ts] are unwritten);
   device 0 fails later, in block "b" (it reads [ts] backwards), and
   nothing it runs waits on device 1 after "a", so it may fail first. *)
let both_fail_two_phases () =
  scalar_graph "fail-order"
    [ (0, "xs", 2, Ir.Input); (1, "ts", 4, Ir.Intermediate);
      (2, "us", 4, Ir.Intermediate); (3, "vs", 4, Ir.Output) ]
    [ ("fill", 2, 0, id1, 1, id1); ("a", 4, 1, id1, 2, id1);
      ("b", 4, 1, affine (-1) 3, 3, id1) ]

let walk_tests =
  [
    Alcotest.test_case "halo pulls and arena reuse stay bitwise under every \
                        mapping of devices to domains" `Quick (fun () ->
        let seq name = (name, Some Shard.Sequence, (List.assoc name workloads) (Rng.create 3)) in
        let cases =
          [ seq "stacked_rnn"; seq "selective_scan";
            ("halo_arena", None, graph_and_inputs halo_arena_src) ]
        in
        List.iter
          (fun (name, strategy, (g, binds)) ->
            let expected = Executor.run g binds in
            List.iter
              (fun devices ->
                let pr =
                  Dist_exec.prepare
                    ~plan:(Shard.partition ?strategy ~devices g) g
                in
                let tag = Printf.sprintf "%s N=%d" name devices in
                checkb (tag ^ " pulls between devices") true
                  (Dist_exec.device_xfers (Dist_exec.log pr) > 0);
                let pooled n () =
                  Dist_exec.execute ~pool:(Domain_pool.sized n) pr binds
                in
                (* a loop issued from a worker runs inline on it *)
                let in_worker () =
                  let out = ref [] in
                  Domain_pool.parallel_for ~chunk:1 (Domain_pool.sized 2) ~lo:0
                    ~hi:2 (fun i ->
                      if i = 1 then out := pooled devices ());
                  !out
                in
                List.iter
                  (fun (mode, run) ->
                    for i = 1 to 300 do
                      if not (Dist.bitwise_equal (run ()) expected) then
                        Alcotest.failf "%s, %s: run %d differs" tag mode i
                    done)
                  (List.map
                     (fun n -> (Printf.sprintf "pool of %d" n, pooled n))
                     (List.sort_uniq compare [ 1; 2; devices ])
                  @ [ ("inside a pool worker", in_worker) ]))
              [ 2; 4; 8 ])
          cases);
    Alcotest.test_case "the failure reported is the lowest (phase, device), \
                        on every call" `Quick (fun () ->
        let xs =
          Fractal.tabulate 2 (fun i -> Fractal.Leaf (Tensor.scalar (float i)))
        in
        List.iter
          (fun (g, expected) ->
            for i = 1 to 200 do
              match Dist.run ~devices:2 g [ ("xs", xs) ] with
              | _ -> Alcotest.failf "%s: a read of an unwritten cell executed" expected
              | exception Vm.Execution_error m ->
                  if not (contains m expected) then
                    Alcotest.failf "call %d reports %S, not %s" i m expected
            done)
          [ (both_fail_one_front (), "device 0, block spread");
            (both_fail_two_phases (), "device 1, block a") ]);
    Alcotest.test_case "a warm execute allocates nothing on any domain but \
                        the output copies" `Quick (fun () ->
        (* [Gc.minor] is a stop-the-world collection that folds every
           domain's allocation into [Gc.quick_stat]; both sides of the
           comparison pay the same bracket *)
        let words f =
          Gc.minor ();
          let a = (Gc.quick_stat ()).Gc.minor_words in
          let r = f () in
          Gc.minor ();
          ((Gc.quick_stat ()).Gc.minor_words -. a, r)
        in
        let copies outs =
          List.map (fun (n, v) -> (n, Fractal.map_leaves Tensor.copy v)) outs
        in
        List.iter
          (fun (name, strategy, (g, binds)) ->
            List.iter
              (fun (devices, pool) ->
                let tag =
                  Printf.sprintf "%s N=%d pool %s" name devices
                    (match pool with
                    | None -> "none"
                    | Some p -> string_of_int (Domain_pool.size p))
                in
                let pr =
                  Dist_exec.prepare
                    ~plan:(Shard.partition ?strategy ~devices g) g
                in
                for _ = 1 to 3 do
                  ignore (Dist_exec.execute ?pool pr binds)
                done;
                let run, outs =
                  words (fun () -> Dist_exec.execute ?pool pr binds)
                in
                let copy, _ = words (fun () -> copies outs) in
                Alcotest.(check (float 0.)) (tag ^ ": minor words") copy run)
              [ (2, Some (Domain_pool.sized 2)); (2, Some (Domain_pool.sized 1));
                (2, None); (1, None) ])
          [ ("stacked_rnn", None, (List.assoc "stacked_rnn" workloads) (Rng.create 3));
            ("halo_arena", None, graph_and_inputs halo_arena_src) ]);
  ]

let suites =
  [
    ("dist.model", model_tests);
    ("dist.shard", shard_tests);
    ("dist.exec", exec_tests);
    ("dist.prepared", prepared_tests);
    ("dist.walk", walk_tests);
  ]
