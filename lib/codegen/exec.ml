(* LRU of logical buffers resident in L2, bounded by byte capacity. *)
module Cache = struct
  type t = {
    capacity : float;
    mutable entries : (string * float) list; (* most recent first *)
    mutable used : float;
  }

  let create capacity = { capacity; entries = []; used = 0.0 }

  let evict_to_fit c =
    let rec go () =
      if c.used > c.capacity then
        match List.rev c.entries with
        | [] -> ()
        | (name, bytes) :: _ ->
            c.entries <- List.filter (fun (n, _) -> n <> name) c.entries;
            c.used <- c.used -. bytes;
            go ()
    in
    go ()

  let touch c name bytes =
    (* Returns true when the buffer was already resident. *)
    let hit = List.mem_assoc name c.entries in
    if hit then begin
      let old = List.assoc name c.entries in
      c.entries <-
        (name, Float.max old bytes)
        :: List.filter (fun (n, _) -> n <> name) c.entries;
      c.used <- c.used -. old +. Float.max old bytes
    end
    else if bytes <= c.capacity then begin
      c.entries <- (name, bytes) :: c.entries;
      c.used <- c.used +. bytes
    end;
    evict_to_fit c;
    hit
end

let resolve_kernel dev cache (ks : Plan.kernel_spec) =
  let dram_read = ref 0.0
  and dram_write = ref 0.0
  and l2 = ref 0.0 in
  let pinned_l1 = ref 0.0 in
  List.iter
    (fun (a : Plan.access) ->
      match a.Plan.a_hint with
      | Plan.L1_only -> pinned_l1 := !pinned_l1 +. a.Plan.a_bytes
      | Plan.L2_only -> l2 := !l2 +. a.Plan.a_bytes
      | Plan.Dram ->
          l2 := !l2 +. a.Plan.a_bytes;
          (match a.Plan.a_dir with
          | Plan.R -> dram_read := !dram_read +. a.Plan.a_bytes
          | Plan.W -> dram_write := !dram_write +. a.Plan.a_bytes)
      | Plan.Auto -> (
          match a.Plan.a_dir with
          | Plan.R ->
              let hit = Cache.touch cache a.Plan.a_buffer a.Plan.a_bytes in
              l2 := !l2 +. a.Plan.a_bytes;
              if not hit then dram_read := !dram_read +. a.Plan.a_bytes
          | Plan.W ->
              ignore (Cache.touch cache a.Plan.a_buffer a.Plan.a_bytes);
              l2 := !l2 +. a.Plan.a_bytes;
              dram_write := !dram_write +. a.Plan.a_bytes))
    ks.Plan.ks_accesses;
  let l1 =
    !pinned_l1
    +.
    if ks.Plan.ks_l1_bytes > 0.0 then ks.Plan.ks_l1_bytes
    else
      List.fold_left
        (fun acc (a : Plan.access) -> acc +. a.Plan.a_bytes)
        0.0 ks.Plan.ks_accesses
  in
  ignore dev;
  Kernel.make ~name:ks.Plan.ks_name ~flops:ks.Plan.ks_flops
    ~parallel_tasks:ks.Plan.ks_tasks ~dram_read:!dram_read
    ~dram_write:!dram_write ~l2_bytes:!l2 ~l1_bytes:l1
    ~uses_tensor_core:ks.Plan.ks_tensor_core
    ~host_overhead_us:ks.Plan.ks_host_us
    ~launch_free:ks.Plan.ks_launch_free ()

type kernel_run = {
  kr_name : string;
  kr_start_us : float;
  kr_time_us : float;
  kr_metrics : Engine.metrics;
}

type report = {
  r_plan : string;
  r_device : Device.t;
  r_metrics : Engine.metrics;
  r_kernels : kernel_run list;
}
