type t = {
  k_name : string;
  flops : float;
  dram_read : float;
  dram_write : float;
  l2_bytes : float;
  l1_bytes : float;
  parallel_tasks : int;
  uses_tensor_core : bool;
  host_overhead_us : float;
  launch_free : bool;
}

let make ?(dram_read = 0.0) ?(dram_write = 0.0) ?(l2_bytes = 0.0)
    ?(l1_bytes = 0.0) ?(uses_tensor_core = false) ?(host_overhead_us = 0.0)
    ?(launch_free = false) ~name ~flops ~parallel_tasks () =
  {
    k_name = name;
    flops;
    dram_read;
    dram_write;
    l2_bytes;
    l1_bytes;
    parallel_tasks;
    uses_tensor_core;
    host_overhead_us;
    launch_free;
  }

type breakdown = {
  bd_compute_us : float;
  bd_dram_us : float;
  bd_l2_us : float;
  bd_l1_us : float;
  bd_overhead_us : float;
}

let breakdown dev k =
  let peak =
    if k.uses_tensor_core then dev.Device.tensor_gflops
    else dev.Device.fp32_gflops
  in
  let occ = Device.occupancy dev k.parallel_tasks in
  {
    bd_compute_us = k.flops /. (peak *. occ *. 1e3);
    bd_dram_us = (k.dram_read +. k.dram_write) /. (dev.Device.dram_bw_gbs *. 1e3);
    bd_l2_us = k.l2_bytes /. (dev.Device.l2_bw_gbs *. 1e3);
    bd_l1_us = k.l1_bytes /. (dev.Device.l1_bw_gbs *. 1e3);
    bd_overhead_us =
      (if k.launch_free then 0.0
       else Float.max dev.Device.kernel_launch_us k.host_overhead_us);
  }

(* The roofline: a kernel runs as long as its slowest term. *)
let exec_us bd =
  Float.max
    (Float.max bd.bd_compute_us bd.bd_dram_us)
    (Float.max bd.bd_l2_us bd.bd_l1_us)

let exec_time_us dev k = exec_us (breakdown dev k)

let total_time_us dev k =
  let bd = breakdown dev k in
  exec_us bd +. bd.bd_overhead_us

(* The roofline term a kernel's time sits on — what to optimise next. *)
let bound_name dev k =
  let bd = breakdown dev k in
  let exec = exec_us bd in
  if bd.bd_overhead_us > exec then "launch"
  else if exec = bd.bd_compute_us then "compute"
  else if exec = bd.bd_dram_us then "dram"
  else if exec = bd.bd_l2_us then "l2"
  else "l1"
