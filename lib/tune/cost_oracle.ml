(* Candidate cost models for the auto-tuner.

   Three implementations behind one closure type:

   - [analytical]: a pure roofline over the plan's kernels — wave-
     quantized compute against the device's occupancy granularity, and
     byte counts against the memory-level bandwidths.  Instant, and
     (at fixed tiles) monotone non-decreasing in problem size, which
     the property tests rely on.
   - [simulated]: [Executor.time_ms] — the full simulator including the
     L2 residency model.  Still fast, but stateful across kernels.
   - [measured]: caller-supplied runner (wall-clock of the compiled
     engine and/or the simulator), median of [repeats] runs.

   Costs are microseconds (analytical/simulated) or whatever the
   runner returns (measured) — searches only compare, never mix
   oracles. *)

type t = {
  o_name : string;
  o_eval : Knobs.candidate -> float;
}

let name o = o.o_name
let eval o c = o.o_eval c

(* --------------------- analytical kernel model --------------------- *)

let bytes_per_us gbs = gbs *. 1e3     (* GB/s = 10^9 B/s = 10^3 B/µs *)
let flops_per_us gflops = gflops *. 1e3

(* Wave-quantized compute time: a device retires thread blocks in
   waves of [blocks_for_full_occupancy]; a partial wave still occupies
   the machine for a full per-task quantum.  Charging
   ceil(tasks/B) * B * flops_per_task keeps the model monotone in the
   problem size at fixed tiles — occupancy-ratio models are not (the
   ratio jumps when a dimension crosses a tile boundary). *)
let compute_us (dev : Device.t) ~flops ~tasks ~tensor_core =
  let tasks = Stdlib.max 1 tasks in
  let peak =
    flops_per_us
      (if tensor_core then dev.Device.tensor_gflops
       else dev.Device.fp32_gflops)
  in
  let b = Stdlib.max 1 dev.Device.blocks_for_full_occupancy in
  let waves = Tile.ceil_div tasks b in
  float_of_int (waves * b) *. (flops /. float_of_int tasks) /. peak

let kernel_us (dev : Device.t) (ks : Plan.kernel_spec) =
  let dram, l2, l1h =
    List.fold_left
      (fun (d, l2, l1) (a : Plan.access) ->
        match a.Plan.a_hint with
        | Plan.L2_only -> (d, l2 +. a.Plan.a_bytes, l1)
        | Plan.L1_only -> (d, l2, l1 +. a.Plan.a_bytes)
        | Plan.Auto | Plan.Dram -> (d +. a.Plan.a_bytes, l2, l1))
      (0., 0., 0.) ks.Plan.ks_accesses
  in
  let t_compute =
    compute_us dev ~flops:ks.Plan.ks_flops ~tasks:ks.Plan.ks_tasks
      ~tensor_core:ks.Plan.ks_tensor_core
  in
  let t_dram = dram /. bytes_per_us dev.Device.dram_bw_gbs in
  let t_l2 = l2 /. bytes_per_us dev.Device.l2_bw_gbs in
  let t_l1 =
    (l1h +. ks.Plan.ks_l1_bytes) /. bytes_per_us dev.Device.l1_bw_gbs
  in
  let launch =
    if ks.Plan.ks_launch_free then 0. else dev.Device.kernel_launch_us
  in
  Stdlib.max t_compute (Stdlib.max t_dram (Stdlib.max t_l2 t_l1))
  +. launch +. ks.Plan.ks_host_us

let plan_cost ?(device = Device.a100) (p : Plan.t) =
  List.fold_left (fun acc ks -> acc +. kernel_us device ks) 0. p.Plan.kernels

(* Analytical cost of one GEMM under a tile choice, from the Tile
   staging model alone — the formula the monotonicity property tests
   exercise directly.  [None] is legacy emission: one task covering
   the whole problem. *)
let gemm_cost ?(device = Device.a100) ?(tensor_core = true) ~tiles ~m ~n ~k ()
    =
  let m = Stdlib.max 1 m and n = Stdlib.max 1 n and k = Stdlib.max 1 k in
  let flops, tasks, l1 =
    match tiles with
    | None ->
        ( 2.0 *. float_of_int m *. float_of_int n *. float_of_int k,
          1,
          Tile.gemm_l1_bytes ~m ~n ~k () )
    | Some t ->
        let em = Tile.eff t.Tile.t_m m and en = Tile.eff t.Tile.t_n n in
        let pk = Tile.padded k t.Tile.t_k in
        let tasks = Tile.gemm_tile_tasks t ~m ~n in
        ( float_of_int tasks *. (2.0 *. float_of_int (em * en * pk)),
          tasks,
          Tile.gemm_tile_l1_bytes t ~m ~n ~k )
  in
  let dram = float_of_int (4 * ((m * k) + (k * n) + (m * n))) in
  let t_compute = compute_us device ~flops ~tasks ~tensor_core in
  let t_dram = dram /. bytes_per_us device.Device.dram_bw_gbs in
  let t_l1 = l1 /. bytes_per_us device.Device.l1_bw_gbs in
  Stdlib.max t_compute (Stdlib.max t_dram t_l1)

(* ----------------------------- oracles ----------------------------- *)

let analytical ?(device = Device.a100) plan_of =
  {
    o_name = "analytical";
    o_eval = (fun c -> plan_cost ~device (plan_of c));
  }

let simulated ?(device = Device.a100) plan_of =
  {
    o_name = "simulated";
    o_eval = (fun c -> Executor.time_ms ~device (plan_of c) *. 1e3);
  }

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Cost_oracle.median: empty"
  | sorted -> List.nth sorted (List.length sorted / 2)

let measured ?(repeats = 3) run =
  let repeats = Stdlib.max 1 repeats in
  {
    o_name = "measured";
    o_eval =
      (fun c -> median (List.init repeats (fun _ -> run c)));
  }
