(* Partitioning the coarsened ETDG across N simulated devices.

   A shard plan assigns every top-level block a strategy and, for the
   axis-sharded strategies, a contiguous chunk of one iteration-domain
   axis per device:

   - [Batch]: a free (dependence-carrying-nowhere) axis splits into
     equal chunks — pure data parallelism, no cross-device traffic
     beyond input scatter and output gather;
   - [Sequence]: the dependence-carrying axis splits; each device owns
     a contiguous span and reads a halo of [sh_halo] boundary cells
     produced by its neighbour — the halo-exchange pattern;
   - [Pipeline]: whole blocks pin to devices round-robin in dataflow
     order — depth pipelining across stacked layers;
   - [Replicate]: the degenerate plan (everything on device 0), the
     fallback when a block has nothing shardable.

   Legality is checked statically ([verify]): per-device write
   footprints (interval images of the shard boxes under the access
   maps, via {!Effects.subrange_region}) must be pairwise disjoint —
   halos widen only reads — and a declared halo must cover every
   dependence distance along the sharded axis. *)

type strategy = Batch | Sequence | Pipeline | Replicate

let strategy_name = function
  | Batch -> "batch"
  | Sequence -> "sequence"
  | Pipeline -> "pipeline"
  | Replicate -> "replicate"

let strategy_of_name = function
  | "batch" -> Some Batch
  | "sequence" -> Some Sequence
  | "pipeline" -> Some Pipeline
  | "replicate" -> Some Replicate
  | _ -> None

type block_shard = {
  sh_block : string;
  sh_strategy : strategy;
  sh_axis : int;  (* sharded iteration axis; -1 when not axis-sharded *)
  sh_lo : int;    (* axis lower bound, inclusive *)
  sh_hi : int;    (* axis upper bound, exclusive *)
  sh_chunk : int; (* axis points per device (last device may get less) *)
  sh_halo : int;  (* read halo along [sh_axis] (Sequence) *)
  sh_pin : int;   (* owning device when not axis-sharded *)
  sh_devices : int;
}

let owner sh (p : int array) =
  match sh.sh_strategy with
  | Replicate | Pipeline -> sh.sh_pin
  | Batch | Sequence ->
      if sh.sh_axis < 0 || sh.sh_axis >= Array.length p then sh.sh_pin
      else
        Stdlib.min (sh.sh_devices - 1)
          ((p.(sh.sh_axis) - sh.sh_lo) / sh.sh_chunk)

type plan = {
  pl_devices : int;
  pl_forced : strategy option;
  pl_blocks : (string * block_shard) list; (* top level, dataflow order *)
}

let block_shard plan name =
  match List.assoc_opt name plan.pl_blocks with
  | Some sh -> sh
  | None -> invalid_arg ("Shard.block_shard: unknown block " ^ name)

(* ----------------------------- partition ----------------------------- *)

(* Axis [i] carries no dependence iff every distance vector is zero
   there — the data-parallel axes the batch split may take. *)
let axis_free dvs i =
  List.for_all (fun d -> i >= Array.length d || d.(i) = 0) dvs

let replicate ~devices name pin =
  {
    sh_block = name;
    sh_strategy = Replicate;
    sh_axis = -1;
    sh_lo = 0;
    sh_hi = 0;
    sh_chunk = 1;
    sh_halo = 0;
    sh_pin = pin;
    sh_devices = devices;
  }

(* Widest qualifying axis; sharding a 1-extent axis buys nothing. *)
let pick_axis ext pred =
  let best = ref (-1) and best_n = ref 1 in
  Array.iteri
    (fun i (l, h) ->
      let n = h - l in
      if n > !best_n && pred i then begin
        best := i;
        best_n := n
      end)
    ext;
  if !best >= 0 then Some !best else None

let partition ?strategy ~devices (g : Ir.graph) =
  if devices < 1 then invalid_arg "Shard.partition: need at least one device";
  let blocks = Ir.dataflow_order g in
  let shard_of k (b : Ir.block) =
    let name = b.Ir.blk_name in
    let fallback = replicate ~devices name 0 in
    match Domain.rect_extents b.Ir.blk_domain with
    | None -> fallback (* non-rectangular domains stay whole *)
    | Some ext ->
        let dvs = Dependence.block_distance_vectors b in
        let axis_shard strat axis halo =
          let l, h = ext.(axis) in
          {
            sh_block = name;
            sh_strategy = strat;
            sh_axis = axis;
            sh_lo = l;
            sh_hi = h;
            sh_chunk = (h - l + devices - 1) / devices;
            sh_halo = halo;
            sh_pin = 0;
            sh_devices = devices;
          }
        in
        let batch () =
          Option.map
            (fun a -> axis_shard Batch a 0)
            (pick_axis ext (axis_free dvs))
        in
        let sequence () =
          Option.map
            (fun a ->
              let halo =
                List.fold_left
                  (fun acc d ->
                    if a < Array.length d then Stdlib.max acc (abs d.(a))
                    else acc)
                  1 dvs
              in
              axis_shard Sequence a halo)
            (pick_axis ext (fun a -> not (axis_free dvs a)))
        in
        let or_fallback = Option.value ~default:fallback in
        (match strategy with
        | Some Replicate -> fallback
        | Some Pipeline -> { fallback with sh_strategy = Pipeline; sh_pin = k mod devices }
        | Some Batch -> or_fallback (batch ())
        | Some Sequence -> or_fallback (sequence ())
        | None ->
            (* auto: data parallelism when an axis is free, halo-sharded
               sequence otherwise, replication as the last resort *)
            or_fallback
              (match batch () with Some s -> Some s | None -> sequence ()))
  in
  {
    pl_devices = devices;
    pl_forced = strategy;
    pl_blocks =
      List.mapi (fun k b -> (b.Ir.blk_name, shard_of k b)) blocks;
  }

(* ------------------------------ legality ----------------------------- *)

(* The sub-box of the iteration space device [d] owns, as the
   (lo, hi-exclusive) extents Effects.subrange_region consumes.
   [widen] grows the sharded axis by the halo — reads only. *)
let device_ext sh ext d ~widen =
  let sub = Array.copy ext in
  if sh.sh_axis >= 0 then begin
    let l = sh.sh_lo + (d * sh.sh_chunk) in
    let h = Stdlib.min sh.sh_hi (l + sh.sh_chunk) in
    let l, h =
      if widen then (l - sh.sh_halo, h + sh.sh_halo) else (l, h)
    in
    sub.(sh.sh_axis) <- (Stdlib.max sh.sh_lo l, Stdlib.min sh.sh_hi h)
  end;
  sub

(* Devices whose chunk is non-empty. *)
let active_devices sh =
  if sh.sh_axis < 0 then 1
  else
    Stdlib.min sh.sh_devices
      ((sh.sh_hi - sh.sh_lo + sh.sh_chunk - 1) / sh.sh_chunk)

let verify (g : Ir.graph) plan =
  let diags = ref [] in
  let push d = diags := d :: !diags in
  List.iter
    (fun (b : Ir.block) ->
      let sh = block_shard plan b.Ir.blk_name in
      let ctx = b.Ir.blk_name in
      match (sh.sh_strategy, Domain.rect_extents b.Ir.blk_domain) with
      | (Replicate | Pipeline), _ | _, None -> ()
      | (Batch | Sequence), Some ext ->
          let ndev = active_devices sh in
          if ndev > 1 then begin
            (* A dependence distance along the sharded axis larger than
               the halo means a device reads cells its neighbour has
               not agreed to export. *)
            (let dvs = Dependence.block_distance_vectors b in
             let need =
               List.fold_left
                 (fun acc d ->
                   if sh.sh_axis < Array.length d then
                     Stdlib.max acc (abs d.(sh.sh_axis))
                   else acc)
                 0 dvs
             in
             if need > sh.sh_halo then
               push
                 (Diagnostic.errorf ~context:ctx "D401"
                    "%s halo %d on axis %d does not cover dependence \
                     distance %d"
                    (strategy_name sh.sh_strategy) sh.sh_halo sh.sh_axis
                    need));
            (* Per-device write footprints must be pairwise disjoint —
               halos never widen writes, so overlap here is a genuine
               cross-device double write. *)
            let writes = Ir.writes b in
            let regions d =
              List.map
                (fun e ->
                  Effects.subrange_region g b
                    ~ext:(device_ext sh ext d ~widen:false)
                    e)
                writes
            in
            let per_dev = Array.init ndev regions in
            for d1 = 0 to ndev - 1 do
              for d2 = d1 + 1 to ndev - 1 do
                List.iter
                  (fun r1 ->
                    List.iter
                      (fun r2 ->
                        if not (Effects.regions_disjoint r1 r2) then
                          if
                            r1.Effects.rg_precision = Effects.Must
                            && r2.Effects.rg_precision = Effects.Must
                          then
                            push
                              (Diagnostic.errorf ~context:ctx "D400"
                                 "devices %d and %d write overlapping \
                                  cells of buffer %s under %s sharding \
                                  on axis %d"
                                 d1 d2 r1.Effects.rg_name
                                 (strategy_name sh.sh_strategy)
                                 sh.sh_axis)
                          else
                            push
                              (Diagnostic.notef ~context:ctx "D402"
                                 "per-device write disjointness on \
                                  buffer %s is unproven (may-level \
                                  footprints)"
                                 r1.Effects.rg_name))
                      per_dev.(d2))
                  per_dev.(d1)
              done
            done;
            (* Cross-device anti-chains: a front is executed as a
               per-device partition of the single-device front.  Any
               subset family of a proven-disjoint front is disjoint, so
               [Proven] extends to the sharded run; anything weaker
               downgrades the block to sequential order at run time —
               record it so the plan's parallelism story is honest. *)
            match Vm.race_downgrade g b with
            | None -> ()
            | Some why ->
                push
                  (Diagnostic.notef ~context:ctx "D403"
                     "cross-device fronts fall back to sequential \
                      order: %s" why)
          end)
    (Ir.dataflow_order g);
  Diagnostic.sort !diags

let legal diags = Diagnostic.count_errors diags = 0

let pp_shard fmt sh =
  match sh.sh_strategy with
  | Replicate -> Format.fprintf fmt "%s: replicate on device %d" sh.sh_block sh.sh_pin
  | Pipeline -> Format.fprintf fmt "%s: pipeline stage on device %d" sh.sh_block sh.sh_pin
  | Batch | Sequence ->
      Format.fprintf fmt "%s: %s axis %d [%d,%d) chunk %d%s over %d device(s)"
        sh.sh_block
        (strategy_name sh.sh_strategy)
        sh.sh_axis sh.sh_lo sh.sh_hi sh.sh_chunk
        (if sh.sh_halo > 0 then Printf.sprintf " halo %d" sh.sh_halo else "")
        sh.sh_devices
