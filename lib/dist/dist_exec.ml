(* Placement plus pull transfers over Vm's interpreter core (the
   design is documented in dist_exec.mli).  Every device evaluates its
   points through Vm.point_evaluator against its own stores, so a
   sharded run is bitwise identical to Vm.run by construction — which
   the differential suite checks rather than assumes.  The home table
   doubles as a dynamic shard-legality monitor: two devices (or two
   fronts) writing one cell collide in it and fail the run, the runtime
   counterpart of Shard.verify's static write-disjointness proof. *)

let host = -1

type xfer = {
  x_src : int;  (* device, or [host] *)
  x_dst : int;
  x_bytes : float;
  x_cells : int;
  x_label : string;  (* buffer name *)
}

type event =
  | E_xfer of xfer
  | E_front of { ef_block : string; ef_points : int array (* per device *) }

type log = {
  lg_devices : int;
  lg_events : event list;  (* program order *)
  lg_fallbacks : (string * string) list;  (* block, reason *)
}

let err fmt = Format.kasprintf (fun s -> raise (Vm.Execution_error s)) fmt

(* 4-byte/f32 convention, matching Effects.buffer_bytes and the plan
   emitter. *)
let cell_bytes t = 4.0 *. float_of_int (Tensor.numel t)

let blit t =
  let dst = Tensor.uninit (Tensor.shape t) in
  Tensor.copy_into t ~dst;
  dst

let run ?pool ~(plan : Shard.plan) (g : Ir.graph) inputs =
  let ndev = plan.Shard.pl_devices in
  (* stores.(d) is device d's private memory; one more for the host *)
  let stores = Array.init ndev (fun _ -> Hashtbl.create 16) in
  let host_store = Hashtbl.create 16 in
  let store_of d = if d = host then host_store else stores.(d) in
  let storage d buf = Hashtbl.find (store_of d) buf in
  (* (buffer, cell offset) -> device that produced the cell *)
  let home : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let events = ref [] in
  let emit e = events := e :: !events in
  let fallbacks = ref [] in
  (* One phase's transfers, aggregated per (src, dst, buffer name):
     [pull] blits a cell from [src]'s store into [dst]'s and tallies
     it, [flush] emits the tallies in key order. *)
  let pull tally ~src ~dst buf off =
    match (storage src buf).Vm.st_cells.(off) with
    | None -> ()
    | Some t ->
        (storage dst buf).Vm.st_cells.(off) <- Some (blit t);
        let key = (src, dst, (Ir.buffer g buf).Ir.buf_name) in
        let bytes, cells =
          match Hashtbl.find_opt tally key with
          | Some bc -> bc
          | None ->
              let bc = (ref 0.0, ref 0) in
              Hashtbl.add tally key bc;
              bc
        in
        bytes := !bytes +. cell_bytes t;
        incr cells
  in
  let flush tally =
    Hashtbl.fold (fun k bc acc -> (k, bc) :: acc) tally []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun ((src, dst, name), (bytes, cells)) ->
           emit
             (E_xfer
                {
                  x_src = src;
                  x_dst = dst;
                  x_bytes = !bytes;
                  x_cells = !cells;
                  x_label = name;
                }))
  in
  List.iter
    (fun (bf : Ir.buffer) ->
      (match bf.Ir.buf_role with
      | Ir.Input -> (
          let st = Vm.alloc bf.Ir.buf_dims in
          (match List.assoc_opt bf.Ir.buf_name inputs with
          | Some v -> Vm.load st v
          | None -> err "missing input %s" bf.Ir.buf_name);
          Array.iteri
            (fun off c ->
              if c <> None then Hashtbl.replace home (bf.Ir.buf_id, off) host)
            st.Vm.st_cells;
          Hashtbl.replace host_store bf.Ir.buf_id st)
      | Ir.Intermediate | Ir.Output ->
          Hashtbl.replace host_store bf.Ir.buf_id (Vm.alloc bf.Ir.buf_dims));
      Array.iter
        (fun s -> Hashtbl.replace s bf.Ir.buf_id (Vm.alloc bf.Ir.buf_dims))
        stores)
    g.Ir.g_buffers;
  let exec_block (b : Ir.block) =
    let sh = Shard.block_shard plan b.Ir.blk_name in
    let owner p = Shard.owner sh p in
    let evals =
      Array.init ndev (fun d -> Vm.point_evaluator ~storage:(storage d) b)
    in
    (* Device [d]'s share of a front: reads and writes touch only
       [d]'s stores, which is what makes the per-device fan-out safe.
       A failing point names its device and block. *)
    let run_shard d front pts =
      try Array.iter (evals.(d) front) pts
      with Vm.Execution_error m ->
        err "device %d, block %s: %s" d b.Ir.blk_name m
    in
    let writes = Ir.writes b in
    (* Prefetch only what evaluation consults: a dead edge would demand
       cells no execution ever reads. *)
    let live_reads = Vm.live_reads b in
    (* Coordinator: make every cell the points will read present on
       their owner devices, blitting from each cell's home.  A cell
       with no home yet may still be produced locally later in the
       segment (a scan's own trail); if it never is, the evaluator
       raises the same illegal-order error Vm would. *)
    let fetch pts =
      let tally = Hashtbl.create 16 in
      Array.iter
        (fun p ->
          let d = owner p in
          List.iter
            (fun (e : Ir.edge) ->
              let st = storage d e.Ir.e_buffer in
              if Access_map.out_dim e.Ir.e_access = Array.length st.Vm.st_dims
              then begin
                let off = Vm.ravel st (Access_map.apply e.Ir.e_access p) in
                if st.Vm.st_cells.(off) = None then
                  match Hashtbl.find_opt home (e.Ir.e_buffer, off) with
                  | Some h when h <> d ->
                      pull tally ~src:h ~dst:d e.Ir.e_buffer off
                  | _ -> ()
              end)
            live_reads)
        pts;
      flush tally
    in
    (* Coordinator, after a front/segment: record who produced each
       written cell.  A collision is a cross-shard double write — the
       dynamic refutation of an illegal plan (same-device double writes
       already failed inside the evaluator). *)
    let record_homes pts =
      Array.iter
        (fun p ->
          let d = owner p in
          List.iter
            (fun (w : Ir.edge) ->
              let st = storage d w.Ir.e_buffer in
              let off = Vm.ravel st (Access_map.apply w.Ir.e_access p) in
              let key = (w.Ir.e_buffer, off) in
              if Hashtbl.mem home key then
                err
                  "block %s writes a cell of buffer %d on two shards — \
                   shard plan is illegal"
                  b.Ir.blk_name w.Ir.e_buffer
              else Hashtbl.replace home key d)
            writes)
        pts
    in
    let points_per_dev pts =
      let counts = Array.make ndev 0 in
      Array.iter (fun p -> counts.(owner p) <- counts.(owner p) + 1) pts;
      counts
    in
    (* A per-device partition of a proven front is a subset family,
       still disjoint, so the shared race guard applies unchanged. *)
    let sched, reason =
      Vm.guarded_schedule g Vm.Wavefront b (Domain.enumerate b.Ir.blk_domain)
    in
    Option.iter (fun r -> fallbacks := (b.Ir.blk_name, r) :: !fallbacks) reason;
    let phase pts run =
      fetch pts;
      run ();
      record_homes pts;
      emit
        (E_front { ef_block = b.Ir.blk_name; ef_points = points_per_dev pts })
    in
    match sched with
    | Vm.Ordered ps ->
        (* Sequential order: maximal same-owner runs, executed in turn
           on the coordinator; transfers happen at run boundaries, the
           point where a scan's trail crosses a shard boundary. *)
        let rec segments = function
          | [] -> []
          | p :: _ as ps ->
              let d = owner p in
              let rec split acc = function
                | q :: rest when owner q = d -> split (q :: acc) rest
                | rest -> (Array.of_list (List.rev acc), rest)
              in
              let seg, rest = split [] ps in
              (d, seg) :: segments rest
        in
        List.iteri
          (fun i (d, seg) -> phase seg (fun () -> run_shard d i seg))
          (segments ps)
    | Vm.Fronts fronts ->
        List.iter
          (fun (front, pts) ->
            let per_dev = Array.make ndev [] in
            Array.iter
              (fun p ->
                let d = owner p in
                per_dev.(d) <- p :: per_dev.(d))
              pts;
            let shards = Array.map (fun l -> Array.of_list (List.rev l)) per_dev in
            (* one OCaml domain per device; each device walks only its
               own shard of the front, against its own store *)
            phase pts (fun () ->
                match pool with
                | Some pl when Array.length pts > 1 && ndev > 1 ->
                    Domain_pool.parallel_for ~chunk:1 pl ~lo:0 ~hi:ndev
                      (fun d -> run_shard d front shards.(d))
                | _ -> Array.iteri (fun d s -> run_shard d front s) shards))
          fronts
  in
  List.iter exec_block (Ir.dataflow_order g);
  (* Gather: blit every output cell from its home device back to the
     host, one transfer per (device, buffer). *)
  let outputs =
    List.filter_map
      (fun (bf : Ir.buffer) ->
        if bf.Ir.buf_role <> Ir.Output then None
        else begin
          let buf = bf.Ir.buf_id in
          let hst = storage host buf in
          let tally = Hashtbl.create 4 in
          Array.iteri
            (fun off _ ->
              match Hashtbl.find_opt home (buf, off) with
              | Some h when h <> host -> pull tally ~src:h ~dst:host buf off
              | _ -> ())
            hst.Vm.st_cells;
          flush tally;
          Some (bf.Ir.buf_name, Vm.unload bf.Ir.buf_name hst)
        end)
      g.Ir.g_buffers
  in
  ( outputs,
    {
      lg_devices = ndev;
      lg_events = List.rev !events;
      lg_fallbacks = List.rev !fallbacks;
    } )

let xfer_totals log =
  List.fold_left
    (fun (n, bytes) e ->
      match e with
      | E_xfer x -> (n + 1, bytes +. x.x_bytes)
      | E_front _ -> (n, bytes))
    (0, 0.0) log.lg_events

let device_xfers log =
  (* transfers with both endpoints on devices: the halo-exchange and
     pipeline traffic, as opposed to input scatter / output gather *)
  List.filter
    (function
      | E_xfer x -> x.x_src <> host && x.x_dst <> host
      | E_front _ -> false)
    log.lg_events
  |> List.length
