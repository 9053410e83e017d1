(* Placement plus pull transfers, planned once and run on per-device
   compiled executables (the design is documented in dist_exec.mli).
   [prepare] compiles the executables first, so a graph no engine can
   run is refused before anything is planned; then it walks the
   guarded schedule symbolically: it knows which device holds which
   cell after every phase, so it decides every pull, every home and
   every cross-shard double write before a value exists, and from them
   each device's walk: its own steps, and the waits on other devices
   that its pulls (read after write) and its reuse of pulled-from
   memory (write after read) imply.  [execute] forks once; each device
   walks its steps, blits and its point ranges through its own
   executable, and waits only where its walk says.  Values are bitwise
   identical to the 1-device compiled engine by construction (same
   schedules, same kernels, copies are blits), which the differential
   suite checks rather than assumes. *)

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
  ph_pulls : int array;
      (* (src, dst, store, offset, born) quintuples, in order; born:
         the phase that wrote the cell, -1 for a host cell *)
  ph_ranges : int array array;  (* per device: [lo; hi) pairs of point indices *)
}

(* One step of a device's walk: a phase where it pulls or runs points. *)
type step = {
  sp_phase : int;
  sp_block : int;
  sp_pulls : int array;  (* (src, store, offset) triples; src = [host] binds *)
  sp_ranges : int array;  (* [lo; hi) pairs of point indices *)
  sp_waits : int array;
      (* (device, phase) pairs: wait until that device has finished
         that phase *)
}

(* Slots a domain writes per step sit [pad] words apart, so no two
   devices' or runners' slots share a line pair (as Compiled.line_pad). *)
let pad = 16

(* What the walkers of one call share.  A runner is one domain's share
   of the fork: it claims devices through [st_claim] and holds them to
   the end of the call; only the holder moves a device's cursor. *)
type state = {
  st_devices : int;
  st_walks : step array array;  (* per device, in phase order *)
  st_exes : Compiled.t array;  (* one executable per device *)
  st_host : Tensor.t array array;  (* input cells of the current call *)
  st_progress : Progress.t;  (* per device: the last phase it finished *)
  st_cursor : int array;  (* device d's next step, at [d * pad] *)
  st_held : int array;
      (* runner r's row at [r * st_row]: how many devices it holds,
         then the devices *)
  st_row : int;
  st_claim : int Atomic.t;  (* the next unclaimed device *)
  st_failed : int Atomic.t;
      (* the lowest failing (phase, device) as [phase * devices +
         device], or [max_int] *)
  st_errors : (int * exn * Printexc.raw_backtrace) option array;
      (* per device: the block it failed in, and why *)
  mutable st_spins : int;  (* the pool's spin bound for this call *)
}

type prepared = {
  pr_buffers : Ir.buffer array;  (* store index = position in g_buffers *)
  pr_blocks : Ir.block array;  (* dataflow order *)
  pr_fail : string option;  (* raised once every device has stopped *)
  pr_gather : (int * int array) array;
      (* output stores, in buffer order, with the device holding each
         cell, or [nowhere] *)
  pr_outputs : (string * Fractal.t) list;
      (* the output buffers over their home cells, wrapped once: output
         cells are never rebound *)
  pr_log : log;
  pr_bind : (int -> Tensor.t -> unit) array;  (* per input store *)
  pr_state : state;
  pr_drive : int -> int -> int -> unit;  (* the pool body: one runner *)
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

(* The latest phase waited on per device, as (device, phase) pairs: a
   device's progress only grows. *)
let latest ndev waits =
  let last = Array.make ndev (-1) in
  List.iter (fun (e, x) -> last.(e) <- Stdlib.max last.(e) x) waits;
  Array.to_list last
  |> List.mapi (fun e x -> if x < 0 then [] else [ e; x ])
  |> List.concat |> Array.of_list

(* Each device's walk over the planned phases: a step wherever it
   pulls or runs points, and the waits the plan implies.
   - Read after write: a pull from device [src] waits until [src] has
     finished the phase that wrote the cell.
   - Write after read: a device must not overwrite memory another
     device has yet to pull from.  Cells are written once, but the
     liveness arena places a buffer born after another died over the
     dead one's bytes ([shares]), and a pulled buffer dies on its home
     device only once every device has read it.  So the home's first
     later step that writes a buffer sharing the pulled one's bytes,
     by its points or by a pull landing, waits until the puller has
     finished the pulling phase.  Pulled buffers stay in the arena:
     the wait costs nothing where no such reuse exists, which is every
     plan without device pulls and every workload's auto plan. *)
let plan_walks ndev (phases : phase array) ~block_writes ~shares =
  (* per device, reversed: (step without waits, its read-after-write waits) *)
  let drafts = Array.make ndev [] in
  Array.iteri
    (fun ph p ->
      let q = p.ph_pulls in
      for d = 0 to ndev - 1 do
        let pulls = ref [] and waits = ref [] in
        for k = 0 to (Array.length q / 5) - 1 do
          let src = q.(5 * k) in
          if q.((5 * k) + 1) = d then begin
            pulls := q.((5 * k) + 3) :: q.((5 * k) + 2) :: src :: !pulls;
            if src <> host then waits := (src, q.((5 * k) + 4)) :: !waits
          end
        done;
        let rs = p.ph_ranges.(d) in
        if !pulls <> [] || rs <> [||] then
          drafts.(d) <-
            ( { sp_phase = ph; sp_block = p.ph_block;
                sp_pulls = Array.of_list (List.rev !pulls); sp_ranges = rs;
                sp_waits = [||] },
              !waits )
            :: drafts.(d)
      done)
    phases;
  let drafts = Array.map (fun l -> Array.of_list (List.rev l)) drafts in
  let waits = Array.map (Array.map snd) drafts in
  (* whether step [sp] writes a buffer sharing bytes with store [s] *)
  let overwrites s (sp, _) =
    (sp.sp_ranges <> [||] && List.exists (shares s) block_writes.(sp.sp_block))
    || List.exists (shares s)
         (List.init (Array.length sp.sp_pulls / 3) (fun k -> sp.sp_pulls.((3 * k) + 1)))
  in
  Array.iteri
    (fun ph p ->
      let q = p.ph_pulls in
      for k = 0 to (Array.length q / 5) - 1 do
        let src = q.(5 * k) and s = q.((5 * k) + 2) in
        if src <> host then
          match
            Array.find_index
              (fun ((sp, _) as d) -> sp.sp_phase > ph && overwrites s d)
              drafts.(src)
          with
          | Some j -> waits.(src).(j) <- (q.((5 * k) + 1), ph) :: waits.(src).(j)
          | None -> ()
      done)
    phases;
  Array.mapi
    (fun d ds ->
      Array.mapi (fun j (sp, _) -> { sp with sp_waits = latest ndev waits.(d).(j) }) ds)
    drafts

(* ------------------------------ the walk ------------------------------ *)

let rec lower a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then lower a v

let waits_met st sp =
  let w = sp.sp_waits and ok = ref true and i = ref 0 in
  while !ok && !i < Array.length w do
    ok := Progress.get st.st_progress w.(!i) >= w.(!i + 1);
    i := !i + 2
  done;
  !ok

(* A step ordered after the lowest failure so far never runs: the
   device stops there. *)
let stopped st d sp = (sp.sp_phase * st.st_devices) + d > Atomic.get st.st_failed

(* Device [d] can take its next step, or must stop. *)
let can_move st d =
  let w = st.st_walks.(d) and k = st.st_cursor.(d * pad) in
  k < Array.length w && (stopped st d w.(k) || waits_met st w.(k))

let finished st d = st.st_cursor.(d * pad) >= Array.length st.st_walks.(d)

(* Device [d]'s step [k]: its pulls, then its point ranges.  A failure
   is recorded, not raised: the device stops, and so does every step
   ordered after it, on any device. *)
let step st d k =
  let sp = st.st_walks.(d).(k) and exe = st.st_exes.(d) in
  match
    let q = sp.sp_pulls in
    for i = 0 to (Array.length q / 3) - 1 do
      let src = q.(3 * i) and s = q.((3 * i) + 1) and off = q.((3 * i) + 2) in
      if src = host then Compiled.bind_input exe ~store:s off st.st_host.(s).(off)
      else Compiled.copy_cell ~src:st.st_exes.(src) ~dst:exe ~store:s off
    done;
    let rs = sp.sp_ranges in
    for i = 0 to (Array.length rs / 2) - 1 do
      Compiled.exec_range exe sp.sp_block rs.(2 * i) rs.((2 * i) + 1)
    done
  with
  | () ->
      st.st_cursor.(d * pad) <- k + 1;
      Progress.publish st.st_progress d sp.sp_phase
  | exception e ->
      st.st_errors.(d) <- Some (sp.sp_block, e, Printexc.get_raw_backtrace ());
      st.st_cursor.(d * pad) <- Array.length st.st_walks.(d);
      lower st.st_failed ((sp.sp_phase * st.st_devices) + d);
      Progress.wake st.st_progress

(* Move device [d] until it finishes, stops or must wait; whether it
   moved at all. *)
let advance st d =
  let moved = ref false in
  while can_move st d do
    let w = st.st_walks.(d) and k = st.st_cursor.(d * pad) in
    if stopped st d w.(k) then st.st_cursor.(d * pad) <- Array.length w
    else step st d k;
    moved := true
  done;
  !moved

(* Some device runner [r] holds can move. *)
let held_can_move st r =
  let row = r * st.st_row in
  let ok = ref false and j = ref 1 in
  while (not !ok) && !j <= st.st_held.(row) do
    ok := can_move st st.st_held.(row + !j);
    incr j
  done;
  !ok

(* One runner: move the devices it holds in turn, each as far as it
   goes; when none moves, claim the next unclaimed device, and when
   none is left, wait for another runner's progress.  The lowest
   unfinished step of the whole run waits on nothing unfinished (every
   wait names an earlier phase), so whichever runner holds it can move
   it, and the walk ends whatever the mapping of devices to domains. *)
let drive st r =
  let row = r * st.st_row in
  let fin = ref false in
  while not !fin do
    let held = st.st_held.(row) in
    let moved = ref false and live = ref false in
    for j = 1 to held do
      let d = st.st_held.(row + j) in
      if advance st d then moved := true;
      if not (finished st d) then live := true
    done;
    if (not !moved) || not !live then begin
      let c = Atomic.fetch_and_add st.st_claim 1 in
      if c < st.st_devices then begin
        st.st_held.(row + held + 1) <- c;
        st.st_held.(row) <- held + 1
      end
      else if not !live then fin := true
      else Progress.await st.st_progress ~spins:st.st_spins held_can_move st r
    end
  done

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
  (* born.(s).(off): the phase that wrote the cell *)
  let born =
    Array.map (fun (bf : Ir.buffer) -> Array.make (ncells bf.Ir.buf_dims) (-1))
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
    pulls := born.(s).(off) :: off :: s :: dst :: src :: !pulls;
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
  let phases = ref [] and nphases = ref 0 in
  (* Plan one phase: pull every cell its points read but their owner lacks
     from the cell's home, then record who produced each written cell.  A
     cell with no home yet may still be produced locally later in the
     segment (a scan's own trail); if it never is, the executable raises its
     illegal-order (unwritten read) error.  A cell written on two shards (or
     twice, across phases) is the dynamic refutation of an illegal plan:
     planning stops there, and the run fails once every device has walked
     the phases up to it, so a point's own errors come first. *)
  let plan_phase bi ~owner idx =
    let b = blocks.(bi) in
    let pts = points.(bi) in
    let tally = Hashtbl.create 16 and pulls = ref [] in
    let live_reads = Ir.live_reads b in
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
    let ph = !nphases in
    phases :=
      { ph_block = bi; ph_pulls = Array.of_list (List.rev !pulls); ph_ranges = rs }
      :: !phases;
    incr nphases;
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
            born.(s).(off) <- ph;
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
            plan_phase bi ~owner (Array.init (!hi - lo) (( + ) lo));
            segments !hi
          end
        in
        segments 0
    | Vm.Fronts fronts ->
        ignore
          (List.fold_left
             (fun lo (_, pts) ->
               let w = Array.length pts in
               plan_phase bi ~owner (Array.init w (( + ) lo));
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
    if fail <> None then [||]
    else
      Array.of_list
        (List.filter_map
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
               Some (s, home.(s))
             end)
           (List.init (Array.length buffers) Fun.id))
  in
  let phases = Array.of_list (List.rev !phases) in
  let walks =
    let block_writes =
      Array.map
        (fun b -> List.map (fun (w : Ir.edge) -> store w.Ir.e_buffer) (Ir.writes b))
        blocks
    in
    plan_walks ndev phases ~block_writes ~shares:(Compiled.shares_storage exes.(0))
  in
  let host_cells =
    Array.map
      (fun (bf : Ir.buffer) ->
        if bf.Ir.buf_role = Ir.Input then Array.make (ncells bf.Ir.buf_dims) unbound
        else [||])
      buffers
  in
  let row = ndev + 1 + pad in
  let st =
    {
      st_devices = ndev;
      st_walks = walks;
      st_exes = exes;
      st_host = host_cells;
      st_progress = Progress.create ndev;
      st_cursor = Array.make ((ndev + 1) * pad) 0;
      st_held = Array.make (ndev * row) 0;
      st_row = row;
      st_claim = Atomic.make 0;
      st_failed = Atomic.make max_int;
      st_errors = Array.make ndev None;
      st_spins = 0;
    }
  in
  {
    pr_buffers = buffers;
    pr_blocks = blocks;
    pr_fail = fail;
    pr_gather = gather;
    pr_outputs =
      Array.to_list
        (Array.map
           (fun (s, homes) ->
             ( buffers.(s).Ir.buf_name,
               Vm.of_cells buffers.(s).Ir.buf_dims (fun pos ->
                   let h = homes.(pos) in
                   if h < 0 then unbound else Compiled.cell exes.(h) ~store:s pos) ))
           gather);
    pr_log =
      {
        lg_devices = ndev;
        lg_events = List.rev !events;
        lg_fallbacks = List.rev !fallbacks;
      };
    pr_bind = Array.map (fun cells pos t -> cells.(pos) <- t) host_cells;
    pr_state = st;
    pr_drive = (fun _ r _ -> drive st r);
  }

let log pr = pr.pr_log

(* Forget the call: no device store or binding keeps a caller's
   tensor, so the next call starts clean even after a failure. *)
let release pr =
  Array.iter
    (fun cells -> Array.fill cells 0 (Array.length cells) unbound)
    pr.pr_state.st_host;
  Array.iter Compiled.reset pr.pr_state.st_exes

let rec bind_named pr s (bf : Ir.buffer) = function
  | [] -> err "missing input %s" bf.Ir.buf_name
  | (name, v) :: rest ->
      if String.equal name bf.Ir.buf_name then
        Vm.iter_cells bf.Ir.buf_dims v pr.pr_bind.(s)
      else bind_named pr s bf rest

let rewind st =
  Progress.reset st.st_progress;
  for d = 0 to st.st_devices - 1 do
    st.st_cursor.(d * pad) <- 0;
    st.st_errors.(d) <- None;
    st.st_held.(d * st.st_row) <- 0
  done;
  Atomic.set st.st_claim 0;
  Atomic.set st.st_failed max_int

(* One fork for the whole call: each runner claims devices and walks
   them (see [drive]); without a pool, or inside a pool worker, one
   runner on the caller walks them all. *)
let walk ?pool pr =
  let st = pr.pr_state in
  let ndev = st.st_devices in
  rewind st;
  match pool with
  | Some pl when ndev > 1 && Domain_pool.size pl > 1 ->
      st.st_spins <- Domain_pool.spins pl;
      Domain_pool.parallel_chunks ~chunk:1 pl ~lo:0
        ~hi:(Stdlib.min ndev (Domain_pool.size pl))
        pr.pr_drive
  | _ -> drive st 0

(* The failure with the lowest (phase, device), the order a
   phase-major run meets them in, then the plan's static one. *)
let report pr =
  let st = pr.pr_state in
  let f = Atomic.get st.st_failed in
  if f <> max_int then begin
    let d = f mod st.st_devices in
    match st.st_errors.(d) with
    | Some (b, Vm.Execution_error m, _) ->
        err "device %d, block %s: %s" d pr.pr_blocks.(b).Ir.blk_name m
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end;
  Option.iter (fun m -> raise (Vm.Execution_error m)) pr.pr_fail

let gather pr =
  let exes = pr.pr_state.st_exes in
  for i = 0 to Array.length pr.pr_gather - 1 do
    let s, homes = pr.pr_gather.(i) in
    for pos = 0 to Array.length homes - 1 do
      let h = homes.(pos) in
      if h < 0 || not (Compiled.written exes.(h) ~store:s pos) then
        err "output buffer %s has an unwritten cell" pr.pr_buffers.(s).Ir.buf_name
    done
  done;
  List.map (fun (name, v) -> (name, Fractal.map_leaves Tensor.copy v)) pr.pr_outputs

let run ?pool pr inputs =
  for s = 0 to Array.length pr.pr_buffers - 1 do
    let bf = pr.pr_buffers.(s) in
    if bf.Ir.buf_role = Ir.Input then bind_named pr s bf inputs
  done;
  walk ?pool pr;
  report pr;
  gather pr

let execute ?pool pr inputs =
  match run ?pool pr inputs with
  | outputs ->
      release pr;
      outputs
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      release pr;
      Printexc.raise_with_backtrace e bt

let xfer_totals log =
  List.fold_left
    (fun (n, bytes) e ->
      match e with
      | E_xfer x -> (n + 1, bytes +. x.x_bytes)
      | E_front _ -> (n, bytes))
    (0, 0.0) log.lg_events

let device_xfers log =
  (* transfers with both endpoints on devices: halo exchange and
     re-sharding between blocks, as opposed to input scatter / output
     gather *)
  List.filter
    (function
      | E_xfer x -> x.x_src <> host && x.x_dst <> host
      | E_front _ -> false)
    log.lg_events
  |> List.length
