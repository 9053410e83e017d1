(* Each block's schedule facts — its points, its hyperplane, its
   fronts, its race verdict, the inverse of its reordering transform —
   are derived once and handed to every consumer.  These suites check
   that the shared facts give exactly what each consumer derived on its
   own before: the race guard's one grouping of fronts against a
   standalone [Effects.block_race] and a standalone grouping,
   the edge-derived liveness steps against footprint-derived ones, and
   the single-inverse [Reorder.apply] against a per-edge
   [Access_map.after_transform].  Every workload (default and paper
   sizes), every .ft in the repository and the compiled programs among
   200 generated ones, on both the built and the emitted graph. *)

let checkb = Alcotest.(check bool)

let programs () =
  List.map (fun p -> (p.Expr.name, p)) Test_compiler_suite.workload_programs
  @ List.map
      (fun f -> (f, Test_compiler_suite.file_program f))
      (Test_compiler_suite.ft_files ())
  @ List.mapi
      (fun i p -> (Printf.sprintf "generated %d" i, p))
      (Test_compiler_suite.generated_programs ())

(* The built graph (what [Executor.prepare] guards) and the emitted one
   (what emission reorders). *)
let graphs (name, p) =
  let built = Build.build p in
  [
    (name ^ " (built)", built);
    (name ^ " (emitted)", (Pipeline.compile ~verify:false p).Pipeline.p_emit_graph);
  ]

let every_block f () =
  let blocks = ref 0 in
  List.iter
    (fun prog ->
      List.iter
        (fun (ctx, g) ->
          List.iter
            (fun (b : Ir.block) ->
              incr blocks;
              f (ctx ^ "/" ^ b.Ir.blk_name) g b)
            g.Ir.g_blocks)
        (graphs prog))
    (programs ());
  checkb "some block checked" true (!blocks > 100)

(* The hyperplane as the whole transform gives it. *)
let reference_hyperplane b =
  if Dependence.block_distance_vectors b = [] then None
  else Some (Reorder.transform_matrix b).(0)

(* The wavefront schedule grouped on its own: one front per hyperplane
   value in ascending order, each front's points in reverse enumeration
   order, the whole domain as enumerated without a hyperplane. *)
let reference_fronts pi points =
  match pi with
  | None -> Vm.Fronts [ (0, Array.of_list points) ]
  | Some pi ->
      let key p =
        let acc = ref 0 in
        Array.iteri (fun i c -> acc := !acc + (c * p.(i))) pi;
        !acc
      in
      let keys = List.sort_uniq compare (List.map key points) in
      Vm.Fronts
        (List.map
           (fun k ->
             ( k,
               Array.of_list
                 (List.rev (List.filter (fun p -> key p = k) points)) ))
           keys)

let guard_parity_of ctx g (b : Ir.block) =
  let points = Domain.enumerate b.Ir.blk_domain in
  let pi = Reorder.hyperplane b in
  checkb (ctx ^ ": hyperplane is T's first row") true
    (pi = reference_hyperplane b);
  (* the enumerated and the algebraic path alike *)
  List.iter
    (fun threshold ->
      checkb
        (Printf.sprintf "%s: shared facts give the standalone report \
                         (threshold %d)" ctx threshold)
        true
        (Effects.block_race ~threshold
           ~fronts:(Effects.group_fronts b points) g b
        = Effects.block_race ~threshold g b))
    [ 0; 1; Effects.default_threshold ];
  let expected_reason = Vm.race_downgrade g b in
  let sched, reason = Vm.guard g Vm.Wavefront b points in
  checkb (ctx ^ ": guard verdict") true (reason = expected_reason);
  checkb (ctx ^ ": guard schedule") true
    (sched
    = Vm.schedule
        (if expected_reason = None then Vm.Wavefront else Vm.Sequential)
        b points);
  checkb (ctx ^ ": shared fronts are the standalone grouping") true
    (Vm.schedule Vm.Wavefront b points = reference_fronts pi points)

(* The guard enumerates every point and groups the fronts; the paper
   sizes (up to millions of points per block) stay to the other two
   checks, the default sizes of every workload run it. *)
let max_guarded = 1 lsl 16

let guard_parity ctx g (b : Ir.block) =
  if Domain.card b.Ir.blk_domain <= max_guarded then guard_parity_of ctx g b

(* Liveness steps as the footprints gave them: each region's buffer at
   full size, reads then writes. *)
let footprint_steps g =
  List.map
    (fun b ->
      let fp = Effects.block_footprint g b in
      let acc (r : Effects.region) =
        {
          Liveness.ac_buffer = r.Effects.rg_name;
          ac_bytes = Effects.buffer_bytes (Ir.buffer g r.Effects.rg_buffer);
          ac_write = r.Effects.rg_write;
        }
      in
      {
        Liveness.sp_name = b.Ir.blk_name;
        sp_accesses =
          List.map acc fp.Effects.fp_reads @ List.map acc fp.Effects.fp_writes;
      })
    (Ir.dataflow_order g)

let steps_parity ctx g =
  let steps = Analyze.steps g and reference = footprint_steps g in
  checkb (ctx ^ ": edge-derived steps") true (steps = reference);
  let layout s =
    Liveness.layout
      (Liveness.intervals ~live_in:[] ~live_out:[] s)
  in
  checkb (ctx ^ ": same arena") true (layout steps = layout reference)

(* [Reorder.apply]'s block, rebuilt the per-edge way: the domain through
   [Domain.transform] and every map through [after_transform], each
   inverting [T] again. *)
let reorder_parity ctx (b : Ir.block) =
  let r = Reorder.apply b in
  let tm = r.Reorder.transform in
  let expected =
    if not r.Reorder.wavefront then b
    else
      {
        b with
        Ir.blk_domain = Domain.transform tm b.Ir.blk_domain;
        blk_edges =
          List.map
            (fun (e : Ir.edge) ->
              { e with Ir.e_access = Access_map.after_transform e.Ir.e_access tm })
            b.Ir.blk_edges;
      }
  in
  checkb (ctx ^ ": transform") true (tm = Reorder.transform_matrix b);
  checkb (ctx ^ ": domain") true
    (r.Reorder.block.Ir.blk_domain = expected.Ir.blk_domain);
  checkb (ctx ^ ": access maps") true
    (List.for_all2
       (fun (e : Ir.edge) (e' : Ir.edge) ->
         Access_map.equal e.Ir.e_access e'.Ir.e_access)
       r.Reorder.block.Ir.blk_edges expected.Ir.blk_edges)

let steps_case () =
  let n = ref 0 in
  List.iter
    (fun prog ->
      List.iter
        (fun (ctx, g) ->
          incr n;
          steps_parity ctx g)
        (graphs prog))
    (programs ());
  checkb "some graph checked" true (!n > 50)

let suites =
  [
    ( "schedule-facts",
      [
        Alcotest.test_case
          "the guard's shared fronts give the standalone race report and \
           schedule"
          `Quick (every_block guard_parity);
        Alcotest.test_case
          "edge-derived liveness steps equal footprint-derived ones" `Quick
          steps_case;
        Alcotest.test_case
          "the single-inverse Reorder.apply equals per-edge \
           after_transform"
          `Quick
          (every_block (fun ctx _ b -> reorder_parity ctx b));
      ] );
  ]
