(* Front door for distributed execution: partition, verify, plan and
   price once per graph, then execute each call on real domains through
   the prepared plan. *)

exception Illegal_plan of Diagnostic.t list

type report = {
  rp_devices : int;
  rp_strategy : string;  (* "auto" or the forced strategy *)
  rp_link : Device.link;
  rp_plan : Shard.plan;
  rp_diags : Diagnostic.t list;  (* notes survive on a legal plan *)
  rp_outputs : (string * Fractal.t) list;
  rp_log : Dist_exec.log;
  rp_xfers : int;
  rp_xfer_gb : float;
  rp_device_xfers : int;  (* halo / re-shard traffic, endpoints on devices *)
  rp_sim : Engine.dist_metrics;
}

let pool = Domain_pool.sized

(* ------------------------------ pricing ------------------------------ *)

(* Replay the execution log on the interconnect model: each E_front
   becomes per-device kernels — the block's plan specs scaled by the
   fraction of iteration points the device ran in that front — resolved
   against that device's own L2 residency; each E_xfer becomes a
   rendezvous transfer.  After a (block, device) pair's first front its
   kernels go launch-free: the shard runs as a persistent kernel fed by
   the exchanges. *)
let price ~link ~device (g : Ir.graph) (log : Dist_exec.log) =
  let ndev = log.Dist_exec.lg_devices in
  let topo = Device.topology ~link device ndev in
  let caches =
    Array.init ndev (fun _ ->
        Exec.Cache.create (float_of_int device.Device.l2_bytes))
  in
  let blocks =
    List.map (fun (b : Ir.block) -> (b.Ir.blk_name, b)) (Ir.dataflow_order g)
  in
  let plans : (string, Plan.kernel_spec list * int) Hashtbl.t =
    Hashtbl.create 8
  in
  let block_plan name =
    match Hashtbl.find_opt plans name with
    | Some sp -> sp
    | None ->
        let b = List.assoc name blocks in
        let sp = (Emit.block_plan g b, Domain.card b.Ir.blk_domain) in
        Hashtbl.replace plans name sp;
        sp
  in
  let launched : (string * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let events =
    List.concat_map
      (fun ev ->
        match ev with
        | Dist_exec.E_xfer x ->
            [
              Engine.D_xfer
                {
                  dx_src = x.Dist_exec.x_src;
                  dx_dst = x.Dist_exec.x_dst;
                  dx_bytes = x.Dist_exec.x_bytes;
                  dx_label = x.Dist_exec.x_label;
                };
            ]
        | Dist_exec.E_front { ef_block; ef_points } ->
            let specs, total = block_plan ef_block in
            let out = ref [] in
            Array.iteri
              (fun d pts ->
                if pts > 0 then begin
                  let frac =
                    if total <= 0 then 1.0
                    else float_of_int pts /. float_of_int total
                  in
                  let free = Hashtbl.mem launched (ef_block, d) in
                  Hashtbl.replace launched (ef_block, d) ();
                  List.iter
                    (fun ks ->
                      let ks = Plan.scale frac ks in
                      let ks =
                        if free then { ks with Plan.ks_launch_free = true }
                        else ks
                      in
                      out :=
                        Engine.D_compute
                          (d, Exec.resolve_kernel device caches.(d) ks)
                        :: !out)
                    specs
                end)
              ef_points;
            List.rev !out)
      log.Dist_exec.lg_events
  in
  Engine.dist_run topo events

(* ----------------------------- prepared runs ----------------------------- *)

(* The cache key: graph digest, devices, strategy, link, device. *)
type key = string * int * Shard.strategy option * Device.link * Device.t

(* Everything a run needs that does not depend on input values:
   partition, legality, the static transfer plan, the device
   executables, and the priced log. *)
type entry = {
  en_key : key;
  en_graph : Ir.graph;
  en_plan : Shard.plan;
  en_diags : Diagnostic.t list;
  en_exec : Dist_exec.prepared;
  en_sim : Engine.dist_metrics;
  en_xfers : int;
  en_xfer_bytes : float;
  en_device_xfers : int;
  en_output_bytes : int;  (* off-heap bytes of one call's outputs *)
}

let cache_limit = 16

(* Idle entries, exclusive: a running entry is checked out, so concurrent
   runs of one graph never share executables. *)
let cache : (key, entry) Bounded_cache.t =
  Bounded_cache.create ~limit:cache_limit

let clear_cache () = Bounded_cache.clear cache
let cache_entries () = (Bounded_cache.stats cache).Bounded_cache.entries
let cache_stats () = Bounded_cache.stats cache

let graph_digest g = Digest.string (Marshal.to_string g [])

let prepare ?strategy ~link ~device ~devices g ~digest =
  let plan = Shard.partition ?strategy ~devices g in
  let diags = Shard.verify g plan in
  if not (Shard.legal diags) then raise (Illegal_plan diags);
  let exec = Dist_exec.prepare ~plan g in
  let log = Dist_exec.log exec in
  let xfers, bytes = Dist_exec.xfer_totals log in
  {
    en_key = (digest, devices, strategy, link, device);
    en_graph = g;
    en_plan = plan;
    en_diags = diags;
    en_exec = exec;
    en_sim = price ~link ~device g log;
    en_xfers = xfers;
    en_xfer_bytes = bytes;
    en_device_xfers = Dist_exec.device_xfers log;
    en_output_bytes =
      List.fold_left
        (fun n (bf : Ir.buffer) ->
          if bf.Ir.buf_role <> Ir.Output then n
          else
            n
            + 8 * Shape.numel bf.Ir.buf_elem
              * Array.fold_left ( * ) 1 bf.Ir.buf_dims)
        0 g.Ir.g_buffers;
  }

(* Pricing is a pure function of (graph, log, link, device): a log an
   entry priced is answered from the entry. *)
let simulate ?(link = Device.nvlink) ?(device = Device.a100) g log =
  let priced =
    Bounded_cache.peek_where cache (fun (_, _, _, l, d) en ->
        Dist_exec.log en.en_exec == log && l = link && d = device)
  in
  match priced with
  | Some ({ en_key = digest, _, _, _, _; _ } as en)
    when en.en_graph == g || digest = graph_digest g ->
      en.en_sim
  | _ -> price ~link ~device g log

(* An entry for the call: the same graph value first (no digest to
   compute on the warm path), then any graph with the same digest, else
   a fresh prepare. *)
let checkout ?strategy ~link ~device ~devices g =
  let warm en =
    (* the race guard decided at prepare; report it on every run *)
    List.iter
      (fun (blk, why) -> Vm.report_fallback blk why)
      (Dist_exec.log en.en_exec).Dist_exec.lg_fallbacks;
    en
  in
  let same_params (_, n, s, l, d) =
    n = devices && s = strategy && l = link && d = device
  in
  match
    Bounded_cache.take_where cache (fun k en ->
        en.en_graph == g && same_params k)
  with
  | Some en -> warm en
  | None -> (
      let digest = graph_digest g in
      match
        Bounded_cache.take cache (digest, devices, strategy, link, device)
      with
      | Some en -> warm { en with en_graph = g }
      | None -> prepare ?strategy ~link ~device ~devices g ~digest)

(* Outputs are fresh tensors whose data lives off the OCaml heap.  The
   runtime accounts it, but lets such memory float until it reaches the
   minor heap's size (custom_minor_ratio, 2 MiB per domain by default),
   and a warm run allocates so little on the heap itself that nothing
   else collects earlier: the dead outputs of earlier calls then hold
   that much memory.  So the bytes of the outputs handed out are
   counted, and once they reach [output_budget] the next call asks for
   one minor collection first. *)
let output_budget = 1024 * 1024
let output_bytes = Atomic.make 0

let account_outputs bytes =
  if Atomic.fetch_and_add output_bytes bytes >= output_budget then begin
    Atomic.set output_bytes 0;
    Gc.minor ()
  end

let run ?strategy ?(link = Device.nvlink) ?(device = Device.a100) ~devices g
    inputs =
  let en = checkout ?strategy ~link ~device ~devices g in
  account_outputs en.en_output_bytes;
  let outputs =
    Fun.protect
      ~finally:(fun () -> Bounded_cache.put cache en.en_key en)
      (fun () -> Dist_exec.execute ~pool:(pool devices) en.en_exec inputs)
  in
  {
    rp_devices = devices;
    rp_strategy =
      (match strategy with None -> "auto" | Some s -> Shard.strategy_name s);
    rp_link = link;
    rp_plan = en.en_plan;
    rp_diags = en.en_diags;
    rp_outputs = outputs;
    rp_log = Dist_exec.log en.en_exec;
    rp_xfers = en.en_xfers;
    rp_xfer_gb = en.en_xfer_bytes /. 1e9;
    rp_device_xfers = en.en_device_xfers;
    rp_sim = en.en_sim;
  }

let bitwise_equal a b =
  List.length a = List.length b
  && List.for_all
       (fun (name, v) ->
         match List.assoc_opt name b with
         | Some w -> Fractal.equal_exact v w
         | None -> false)
       a

let differential ?strategy ?link ?device ~devices g inputs =
  let rep = run ?strategy ?link ?device ~devices g inputs in
  let base = Executor.run g inputs in
  (rep, bitwise_equal rep.rp_outputs base)
