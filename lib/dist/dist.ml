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
  rp_device_xfers : int;  (* halo / pipeline traffic, endpoints on devices *)
  rp_sim : Engine.dist_metrics;
  rp_engine : string;  (* "compiled" or "vm-fallback" *)
  rp_fallback_reason : string option;
}

(* One pool per device count, shared across runs (domain spawn is the
   expensive part) — same shape as Executor's explicit-domains cache. *)
let pools : (int, Domain_pool.t) Hashtbl.t = Hashtbl.create 4
let pools_mu = Mutex.create ()

let pool devices =
  Mutex.lock pools_mu;
  let p =
    match Hashtbl.find_opt pools devices with
    | Some p -> p
    | None ->
        let p = Domain_pool.create ~domains:devices in
        Hashtbl.replace pools devices p;
        p
  in
  Mutex.unlock pools_mu;
  p

let reset_pools () =
  Mutex.lock pools_mu;
  Hashtbl.iter (fun _ p -> Domain_pool.shutdown p) pools;
  Hashtbl.reset pools;
  Mutex.unlock pools_mu

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

(* Everything a run needs that does not depend on input values:
   partition, legality, the static transfer plan, the device
   executables, and the priced log. *)
type entry = {
  en_graph : Ir.graph;
  en_digest : string;  (* of the graph *)
  en_devices : int;
  en_strategy : Shard.strategy option;
  en_link : Device.link;
  en_device : Device.t;
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

(* Idle entries, most recently used first.  A running entry is checked
   out (absent from the list), so concurrent runs of one graph never
   share executables: the second prepares its own. *)
let idle : entry list ref = ref []
let idle_mu = Mutex.create ()

let with_idle f =
  Mutex.lock idle_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock idle_mu) f

(* Remove and return the first idle entry satisfying [p]. *)
let take p =
  with_idle (fun () ->
      let rec go skipped = function
        | [] -> None
        | en :: rest when p en ->
            idle := List.rev_append skipped rest;
            Some en
        | en :: rest -> go (en :: skipped) rest
      in
      go [] !idle)

(* The cache key, graph aside. *)
let same_params en ~devices ~strategy ~link ~device =
  en.en_devices = devices && en.en_strategy = strategy && en.en_link = link
  && en.en_device = device

let checkin en =
  let same e =
    e.en_digest = en.en_digest
    && same_params e ~devices:en.en_devices ~strategy:en.en_strategy
         ~link:en.en_link ~device:en.en_device
  in
  with_idle (fun () ->
      idle :=
        List.filteri
          (fun i _ -> i < cache_limit)
          (en :: List.filter (fun e -> not (same e)) !idle))

let clear_cache () = with_idle (fun () -> idle := [])
let cache_entries () = with_idle (fun () -> List.length !idle)

let graph_digest g = Digest.string (Marshal.to_string g [])

let prepare ?strategy ~link ~device ~devices g ~digest =
  let plan = Shard.partition ?strategy ~devices g in
  let diags = Shard.verify g plan in
  if not (Shard.legal diags) then raise (Illegal_plan diags);
  let exec = Dist_exec.prepare ~plan g in
  let log = Dist_exec.log exec in
  let xfers, bytes = Dist_exec.xfer_totals log in
  {
    en_graph = g;
    en_digest = digest;
    en_devices = devices;
    en_strategy = strategy;
    en_link = link;
    en_device = device;
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
    with_idle (fun () ->
        List.find_opt
          (fun en ->
            Dist_exec.log en.en_exec == log
            && en.en_link = link && en.en_device = device)
          !idle)
  in
  match priced with
  | Some en when en.en_graph == g || en.en_digest = graph_digest g -> en.en_sim
  | _ -> price ~link ~device g log

(* An entry for the call: the same graph value first (no digest to
   compute on the warm path), then any graph with the same digest, else
   a fresh prepare. *)
let checkout ?strategy ~link ~device ~devices g =
  let params en = same_params en ~devices ~strategy ~link ~device in
  let warm en =
    (* the race guard decided at prepare; report it on every run *)
    List.iter
      (fun (blk, why) -> Vm.report_fallback blk why)
      (Dist_exec.log en.en_exec).Dist_exec.lg_fallbacks;
    en
  in
  match take (fun en -> en.en_graph == g && params en) with
  | Some en -> warm en
  | None -> (
      let digest = graph_digest g in
      match take (fun en -> en.en_digest = digest && params en) with
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
      ~finally:(fun () -> checkin en)
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
    rp_engine = Dist_exec.engine en.en_exec;
    rp_fallback_reason = Dist_exec.fallback_reason en.en_exec;
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
