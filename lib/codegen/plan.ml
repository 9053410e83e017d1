type dir = R | W

type hint = Auto | Dram | L2_only | L1_only

type access = {
  a_buffer : string;
  a_bytes : float;
  a_dir : dir;
  a_hint : hint;
}

type kernel_spec = {
  ks_name : string;
  ks_flops : float;
  ks_accesses : access list;
  ks_l1_bytes : float;
  ks_tasks : int;
  ks_tensor_core : bool;
  ks_host_us : float;
  ks_launch_free : bool;
  ks_gemm : (int * int * int) option;
}

type t = {
  plan_name : string;
  kernels : kernel_spec list;
}

let kernel ?(l1_bytes = 0.0) ?(tensor_core = false) ?(host_us = 0.0)
    ?(launch_free = false) ?gemm ~name ~flops ~tasks accesses =
  {
    ks_name = name;
    ks_flops = flops;
    ks_accesses = accesses;
    ks_l1_bytes = l1_bytes;
    ks_tasks = tasks;
    ks_tensor_core = tensor_core;
    ks_host_us = host_us;
    ks_launch_free = launch_free;
    ks_gemm = gemm;
  }

let read ?(hint = Auto) b bytes =
  { a_buffer = b; a_bytes = bytes; a_dir = R; a_hint = hint }

let write ?(hint = Auto) b bytes =
  { a_buffer = b; a_bytes = bytes; a_dir = W; a_hint = hint }

let concat name plans =
  { plan_name = name; kernels = List.concat_map (fun p -> p.kernels) plans }

let repeat n p =
  if n < 0 then invalid_arg "Plan.repeat: negative count";
  { p with kernels = List.concat (List.init n (fun _ -> p.kernels)) }

(* A device's share of a kernel under the distributed partitioner:
   work and traffic scale with the fraction of iteration points the
   shard owns; the GEMM shape hint is dropped (a fractional tile is
   not a GEMM the tensor-core model should special-case). *)
let scale f ks =
  if f < 0.0 || f > 1.0 then invalid_arg "Plan.scale: fraction outside [0,1]";
  {
    ks with
    ks_flops = ks.ks_flops *. f;
    ks_accesses =
      List.map (fun a -> { a with a_bytes = a.a_bytes *. f }) ks.ks_accesses;
    ks_l1_bytes = ks.ks_l1_bytes *. f;
    ks_tasks =
      Stdlib.max 1 (int_of_float (ceil (float_of_int ks.ks_tasks *. f)));
    ks_gemm = (if f = 1.0 then ks.ks_gemm else None);
  }

let total_kernels p = List.length p.kernels
