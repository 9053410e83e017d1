(* Placement plus pull transfers, planned once and run on per-device
   compiled executables (the design is documented in dist_exec.mli).
   [prepare] compiles the executables first, so a graph no engine can
   run is refused before anything is planned; then it walks the
   guarded schedule symbolically: it knows which device holds which
   cell after every phase, so it decides every pull, every home and
   every cross-shard double write before a value exists.  [execute]
   replays that plan: blits, then each device's point ranges through
   its own executable.  Values are bitwise identical to the 1-device
   compiled engine by construction (same schedules, same kernels,
   copies are blits), which the differential suite checks rather than
   assumes. *)

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

(* The home of a cell nobody has written. *)
let nowhere = -2

(* A host input cell between calls. *)
let unbound = Tensor.scalar 0.0

(* One phase: a wavefront front, or a maximal same-owner run of a
   sequentially scheduled block. *)
type phase = {
  ph_block : int;  (* position in dataflow order *)
  ph_pulls : int array;  (* (src, dst, store, offset) quadruples, in order *)
  ph_ranges : int array array;  (* per device: [lo; hi) pairs of point indices *)
  ph_fan_out : bool;  (* at least two devices have points *)
}

type gather = {
  ga_store : int;
  ga_homes : int array;  (* device holding each cell, or [nowhere] *)
}

type prepared = {
  pr_devices : int;
  pr_buffers : Ir.buffer array;  (* store index = position in g_buffers *)
  pr_blocks : Ir.block array;  (* dataflow order *)
  pr_phases : phase array;
  pr_fail : string option;  (* raised once the phases have run *)
  pr_gather : gather list;  (* output buffers, in buffer order *)
  pr_log : log;
  pr_host : Tensor.t array array;  (* input cells of the current call *)
  pr_exes : Compiled.t array;  (* one executable per device *)
}

let ncells dims = Stdlib.max 1 (Array.fold_left ( * ) 1 dims)

(* Device [d]'s indices among [idx], as [lo; hi) pairs. *)
let ranges ndev owner idx =
  let acc = Array.make ndev [] in
  Array.iter
    (fun i ->
      let d = owner.(i) in
      match acc.(d) with
      | (lo, hi) :: rest when hi = i -> acc.(d) <- (lo, i + 1) :: rest
      | l -> acc.(d) <- (i, i + 1) :: l)
    idx;
  Array.map
    (fun l ->
      Array.of_list (List.concat_map (fun (lo, hi) -> [ lo; hi ]) (List.rev l)))
    acc

let span rs =
  let n = ref 0 in
  for k = 0 to (Array.length rs / 2) - 1 do
    n := !n + rs.((2 * k) + 1) - rs.(2 * k)
  done;
  !n

let prepare ~(plan : Shard.plan) (g : Ir.graph) =
  let ndev = plan.Shard.pl_devices in
  let buffers = Array.of_list g.Ir.g_buffers in
  let store_ix = Hashtbl.create 16 in
  Array.iteri
    (fun i (bf : Ir.buffer) -> Hashtbl.replace store_ix bf.Ir.buf_id i)
    buffers;
  let store id = Hashtbl.find store_ix id in
  (* index arithmetic only: the executables proved every access in
     bounds at compile time *)
  let strides =
    Array.map (fun (bf : Ir.buffer) -> Vm.strides bf.Ir.buf_dims) buffers
  in
  let offset s (e : Ir.edge) point =
    let st = strides.(s) in
    let off = ref 0 in
    Array.iteri (fun i v -> off := !off + (v * st.(i)))
      (Access_map.apply e.Ir.e_access point);
    !off
  in
  let cell_bytes =
    Array.map
      (fun (bf : Ir.buffer) -> 4.0 *. float_of_int (Shape.numel bf.Ir.buf_elem))
      buffers
  in
  (* home.(s).(off): the endpoint that produced the cell; present.(d)
     marks what device d holds, written there or pulled *)
  let home =
    Array.map
      (fun (bf : Ir.buffer) ->
        Array.make (ncells bf.Ir.buf_dims)
          (if bf.Ir.buf_role = Ir.Input then host else nowhere))
      buffers
  in
  let present =
    Array.init ndev (fun _ ->
        Array.map
          (fun (bf : Ir.buffer) -> Bytes.make (ncells bf.Ir.buf_dims) '\000')
          buffers)
  in
  let events = ref [] in
  let emit e = events := e :: !events in
  (* One phase's pulls, aggregated per (src, dst, buffer name) and
     logged in key order. *)
  let flush tally =
    Hashtbl.fold (fun k bc acc -> (k, bc) :: acc) tally []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun ((src, dst, name), (bytes, cells)) ->
           emit
             (E_xfer
                { x_src = src; x_dst = dst; x_bytes = !bytes; x_cells = !cells;
                  x_label = name }))
  in
  let pull tally pulls ~src ~dst s off =
    pulls := off :: s :: dst :: src :: !pulls;
    let key = (src, dst, buffers.(s).Ir.buf_name) in
    let bytes, cells =
      match Hashtbl.find_opt tally key with
      | Some bc -> bc
      | None ->
          let bc = (ref 0.0, ref 0) in
          Hashtbl.add tally key bc;
          bc
    in
    bytes := !bytes +. cell_bytes.(s);
    incr cells
  in
  let blocks = Array.of_list (Ir.dataflow_order g) in
  (* The shared race guard, once per block: it reports each downgrade
     once, and every device executable numbers points by it. *)
  let fallbacks = ref [] in
  let scheds =
    Array.map
      (fun (b : Ir.block) ->
        let ((_, reason) as s) =
          Vm.guarded_schedule g Vm.Wavefront b (Domain.enumerate b.Ir.blk_domain)
        in
        Option.iter
          (fun r -> fallbacks := (b.Ir.blk_name, r) :: !fallbacks)
          reason;
        s)
      blocks
  in
  let exes =
    let sched_of = Hashtbl.create 16 in
    Array.iteri
      (fun bi (b : Ir.block) ->
        Hashtbl.replace sched_of b.Ir.blk_name scheds.(bi))
      blocks;
    let schedule (b : Ir.block) _ = Hashtbl.find sched_of b.Ir.blk_name in
    Array.init ndev (fun _ -> Compiled.compile ~schedule g)
  in
  let points =
    Array.map
      (fun (sched, _) ->
        match sched with
        | Vm.Ordered ps -> Array.of_list ps
        | Vm.Fronts fs -> Array.concat (List.map snd fs))
      scheds
  in
  let phases = ref [] in
  (* Plan one phase: pull every cell its points read but their owner lacks
     from the cell's home, then record who produced each written cell.  A
     cell with no home yet may still be produced locally later in the
     segment (a scan's own trail); if it never is, the executable raises its
     illegal-order (unwritten read) error.  A cell written on two shards (or
     twice, across phases) is the dynamic refutation of an illegal plan; it
     fails the run after that phase, so every device's earlier work still
     runs and a point's own errors come first. *)
  let plan_phase bi ~owner idx ~fan_out =
    let b = blocks.(bi) in
    let pts = points.(bi) in
    let tally = Hashtbl.create 16 and pulls = ref [] in
    let live_reads = Vm.live_reads b in
    Array.iter
      (fun i ->
        let d = owner.(i) in
        List.iter
          (fun (e : Ir.edge) ->
            let s = store e.Ir.e_buffer in
            let off = offset s e pts.(i) in
            if Bytes.get present.(d).(s) off = '\000' then begin
              let h = home.(s).(off) in
              if h <> nowhere && h <> d then begin
                pull tally pulls ~src:h ~dst:d s off;
                Bytes.set present.(d).(s) off '\001'
              end
            end)
          live_reads)
      idx;
    flush tally;
    let rs = ranges ndev owner idx in
    phases :=
      {
        ph_block = bi;
        ph_pulls = Array.of_list (List.rev !pulls);
        ph_ranges = rs;
        ph_fan_out =
          fan_out
          && Array.fold_left (fun n r -> if r = [||] then n else n + 1) 0 rs > 1;
      }
      :: !phases;
    Array.iter
      (fun i ->
        let d = owner.(i) in
        List.iter
          (fun (w : Ir.edge) ->
            let s = store w.Ir.e_buffer in
            let off = offset s w pts.(i) in
            if home.(s).(off) <> nowhere then
              err "block %s writes a cell of buffer %d on two shards — \
                   shard plan is illegal"
                b.Ir.blk_name w.Ir.e_buffer;
            home.(s).(off) <- d;
            Bytes.set present.(d).(s) off '\001')
          (Ir.writes b))
      idx;
    emit (E_front { ef_block = b.Ir.blk_name; ef_points = Array.map span rs })
  in
  let plan_block bi (sched, _) =
    let b = blocks.(bi) in
    let sh = Shard.block_shard plan b.Ir.blk_name in
    let owner = Array.map (Shard.owner sh) points.(bi) in
    match sched with
    | Vm.Ordered _ ->
        (* sequential order: maximal same-owner runs, each on its
           device in turn; transfers happen at run boundaries, the
           point where a scan's trail crosses a shard boundary *)
        let n = Array.length owner in
        let rec segments lo =
          if lo < n then begin
            let hi = ref (lo + 1) in
            while !hi < n && owner.(!hi) = owner.(lo) do incr hi done;
            plan_phase bi ~owner (Array.init (!hi - lo) (( + ) lo))
              ~fan_out:false;
            segments !hi
          end
        in
        segments 0
    | Vm.Fronts fronts ->
        ignore
          (List.fold_left
             (fun lo (_, pts) ->
               let w = Array.length pts in
               plan_phase bi ~owner (Array.init w (( + ) lo)) ~fan_out:true;
               lo + w)
             0 fronts)
  in
  let fail =
    match Array.iteri plan_block scheds with
    | () -> None
    | exception Vm.Execution_error m -> Some m
  in
  (* Gather: every output cell comes back to the host from its home,
     one transfer per (device, buffer). *)
  let gather =
    if fail <> None then []
    else
      List.filter_map
        (fun s ->
          if buffers.(s).Ir.buf_role <> Ir.Output then None
          else begin
            let tally = Hashtbl.create 4 and pulls = ref [] in
            Array.iteri
              (fun off h ->
                if h <> nowhere && h <> host then
                  pull tally pulls ~src:h ~dst:host s off)
              home.(s);
            flush tally;
            Some { ga_store = s; ga_homes = home.(s) }
          end)
        (List.init (Array.length buffers) Fun.id)
  in
  {
    pr_devices = ndev;
    pr_buffers = buffers;
    pr_blocks = blocks;
    pr_phases = Array.of_list (List.rev !phases);
    pr_fail = fail;
    pr_gather = gather;
    pr_log =
      {
        lg_devices = ndev;
        lg_events = List.rev !events;
        lg_fallbacks = List.rev !fallbacks;
      };
    pr_host =
      Array.map
        (fun (bf : Ir.buffer) ->
          if bf.Ir.buf_role = Ir.Input then
            Array.make (ncells bf.Ir.buf_dims) unbound
          else [||])
        buffers;
    pr_exes = exes;
  }

let log pr = pr.pr_log

(* Forget the call: no device store or binding keeps a caller's
   tensor, so the next call starts clean even after a failure. *)
let release pr =
  Array.iter
    (fun cells -> Array.fill cells 0 (Array.length cells) unbound)
    pr.pr_host;
  Array.iter Compiled.reset pr.pr_exes

let run_phases ?pool pr inputs =
  let ndev = pr.pr_devices in
  Array.iteri
    (fun s (bf : Ir.buffer) ->
      if bf.Ir.buf_role = Ir.Input then
        match List.assoc_opt bf.Ir.buf_name inputs with
        | Some v ->
            let cells = pr.pr_host.(s) in
            Vm.iter_cells bf.Ir.buf_dims v (fun pos t -> cells.(pos) <- t)
        | None -> err "missing input %s" bf.Ir.buf_name)
    pr.pr_buffers;
  let exes = pr.pr_exes in
  (* Device [d]'s share of a phase touches only [d]'s memory, which is
     what makes the per-device fan-out safe.  A failing point names its
     device and block. *)
  let run_shard ph d =
    let rs = ph.ph_ranges.(d) in
    try
      for k = 0 to (Array.length rs / 2) - 1 do
        Compiled.exec_range exes.(d) ph.ph_block rs.(2 * k) rs.((2 * k) + 1)
      done
    with Vm.Execution_error m ->
      err "device %d, block %s: %s" d pr.pr_blocks.(ph.ph_block).Ir.blk_name m
  in
  Array.iter
    (fun ph ->
      let q = ph.ph_pulls in
      for k = 0 to (Array.length q / 4) - 1 do
        let src = q.(4 * k) and dst = q.((4 * k) + 1) in
        let s = q.((4 * k) + 2) and off = q.((4 * k) + 3) in
        if src = host then
          Compiled.bind_input exes.(dst) ~store:s off pr.pr_host.(s).(off)
        else Compiled.copy_cell ~src:exes.(src) ~dst:exes.(dst) ~store:s off
      done;
      match pool with
      | Some pl when ph.ph_fan_out ->
          (* one OCaml domain per device *)
          Domain_pool.parallel_for ~chunk:1 pl ~lo:0 ~hi:ndev (run_shard ph)
      | _ ->
          for d = 0 to ndev - 1 do
            run_shard ph d
          done)
    pr.pr_phases;
  Option.iter (fun m -> raise (Vm.Execution_error m)) pr.pr_fail;
  List.map
    (fun ga ->
      let bf = pr.pr_buffers.(ga.ga_store) in
      ( bf.Ir.buf_name,
        Vm.of_cells bf.Ir.buf_dims (fun pos ->
            let h = ga.ga_homes.(pos) in
            let cell =
              if h < 0 then None
              else Compiled.written_cell exes.(h) ~store:ga.ga_store pos
            in
            match cell with
            | Some t -> Tensor.copy t
            | None ->
                err "output buffer %s has an unwritten cell" bf.Ir.buf_name) ))
    pr.pr_gather

let execute ?pool pr inputs =
  Fun.protect
    ~finally:(fun () -> release pr)
    (fun () -> run_phases ?pool pr inputs)

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
