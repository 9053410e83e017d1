type prepared = {
  pr_pool : Domain_pool.t option;  (* resolved once, at prepare time *)
  pr_exe : Compiled.t;
}

(* [None] means "run inline": no pool object at all, which is what lets
   the compiled engine's steady state stay allocation-free. *)
let resolve_pool (opts : Run_opts.t) =
  let n =
    match opts.Run_opts.domains with
    | Some n -> n
    | None -> Domain_pool.num_domains ()
  in
  if n > 1 then Some (Domain_pool.sized n) else None

let prepare ?(opts = Run_opts.default) (g : Ir.graph) =
  let pool = resolve_pool opts in
  let workers = match pool with Some p -> Domain_pool.size p | None -> 1 in
  let schedule = Vm.guarded_schedule g opts.Run_opts.order in
  let exe =
    Compiled.compile ~schedule ~workers ~fuse:opts.Run_opts.fuse g
  in
  { pr_pool = pool; pr_exe = exe }

let execute pr inputs =
  let exe = pr.pr_exe in
  Compiled.load exe inputs;
  Compiled.execute ?pool:pr.pr_pool exe;
  Compiled.outputs exe

let run ?opts g inputs = execute (prepare ?opts g) inputs

(* ------------------------------ introspection ------------------------ *)

let compiled pr = Some pr.pr_exe

(* ------------------------------ simulator front ----------------------- *)

let resolve_plan device (p : Plan.t) =
  let cache = Exec.Cache.create (float_of_int device.Device.l2_bytes) in
  List.map (Exec.resolve_kernel device cache) p.Plan.kernels

let simulate ?(device = Device.a100) ?trace (p : Plan.t) =
  let go () =
    let samples = Engine.timeline device (resolve_plan device p) in
    {
      Exec.r_plan = p.Plan.plan_name;
      r_device = device;
      r_metrics = Engine.metrics_of samples;
      r_kernels =
        List.map
          (fun (s : Engine.sample) ->
            {
              Exec.kr_name = s.Engine.s_kernel.Kernel.k_name;
              kr_start_us = s.Engine.s_start_us;
              kr_time_us = s.Engine.s_time_us;
              kr_metrics = Engine.sample_metrics s;
            })
          samples;
    }
  in
  match trace with None -> go () | Some s -> Trace.with_sink s go

let metrics ?device p = (simulate ?device p).Exec.r_metrics

(* The same sum [Engine.metrics_of] takes over [simulate]'s timeline, in
   the same order, but with no timeline built: nothing reaches an
   installed trace sink, so the tuner can price candidates under one. *)
let time_us ?(device = Device.a100) p =
  List.fold_left
    (fun acc k -> acc +. Kernel.total_time_us device k)
    0. (resolve_plan device p)

let time_ms ?device p = time_us ?device p /. 1e3

let profile ?(device = Device.a100) (p : Plan.t) =
  let samples = Engine.timeline device (resolve_plan device p) in
  Profile.make ~plan:p.Plan.plan_name ~device:device.Device.name
    ~peak_gflops:device.Device.fp32_gflops
    ~peak_dram_gbs:device.Device.dram_bw_gbs
    (List.map
       (fun (s : Engine.sample) ->
         let k = s.Engine.s_kernel in
         {
           Profile.s_name = k.Kernel.k_name;
           s_time_us = s.Engine.s_time_us;
           s_flops = k.Kernel.flops;
           s_dram_bytes = k.Kernel.dram_read +. k.Kernel.dram_write;
           s_l2_bytes = k.Kernel.l2_bytes;
           s_l1_bytes = k.Kernel.l1_bytes;
           s_tasks = k.Kernel.parallel_tasks;
           s_peak_gflops =
             (if k.Kernel.uses_tensor_core then device.Device.tensor_gflops
              else device.Device.fp32_gflops);
           s_bound = Kernel.bound_name device k;
         })
       samples)
