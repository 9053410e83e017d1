let op_flops (o : Ir.op_node) =
  match (o.Ir.op, o.Ir.operand_shapes) with
  | (Expr.Matmul | Expr.Matmul_t), [ a; b ] ->
      let m = Shape.dim a 0 and k = Shape.dim a 1 in
      let n =
        match o.Ir.op with
        | Expr.Matmul -> Shape.dim b 1
        | _ -> Shape.dim b 0
      in
      float_of_int (2 * m * n * k)
  | Expr.Softmax, [ s ] -> float_of_int (4 * Shape.numel s)
  | _, _ -> float_of_int (Shape.numel o.Ir.result_shape)

let rec block_point_flops (b : Ir.block) =
  let own =
    List.fold_left (fun acc o -> acc +. op_flops o) 0.0 b.Ir.blk_body
  in
  (* children re-describe work already counted in the parent body
     (lowered contractions), so only count them when the parent body
     is empty *)
  if b.Ir.blk_body = [] then
    List.fold_left (fun acc c -> acc +. block_point_flops c) own b.Ir.blk_children
  else own

let first_matmul_dims b =
  List.find_map
    (fun (o : Ir.op_node) ->
      match (o.Ir.op, o.Ir.operand_shapes) with
      | Expr.Matmul, [ a; bb ] ->
          Some (Shape.dim a 0, Shape.dim bb 1, Shape.dim a 1)
      | Expr.Matmul_t, [ a; bb ] ->
          Some (Shape.dim a 0, Shape.dim bb 0, Shape.dim a 1)
      | _ -> None)
    b.Ir.blk_body

(* Per-access payload of an edge: the buffer element plus every buffer
   dimension the access map leaves unaddressed (streamed whole). *)
let bytes_per_access g (e : Ir.edge) =
  let bf = Ir.buffer g e.Ir.e_buffer in
  let rank = Array.length bf.Ir.buf_dims in
  let addressed = Access_map.out_dim e.Ir.e_access in
  let whole = ref (Shape.numel bf.Ir.buf_elem) in
  for d = addressed to rank - 1 do
    whole := !whole * bf.Ir.buf_dims.(d)
  done;
  float_of_int (4 * !whole)

(* Block dims along which the access repeats the same data: non-zero
   coordinates of the access matrix's null-space basis. *)
let reuse_support (e : Ir.edge) =
  let d = Access_map.in_dim e.Ir.e_access in
  let marks = Array.make d false in
  Array.iter
    (fun basis ->
      Array.iteri (fun i v -> if v <> 0 then marks.(i) <- true) basis)
    (Access_map.reuse_directions e.Ir.e_access);
  List.filter (fun i -> marks.(i)) (List.init d Fun.id)

let block_extents b =
  match Domain.rect_extents b.Ir.blk_domain with
  | Some ext -> Array.map (fun (lo, hi) -> hi - lo) ext
  | None -> Array.make (Ir.block_dim b) 1

let is_fold_dim b i =
  match b.Ir.blk_ops.(i) with
  | Expr.Foldl | Expr.Foldr | Expr.Reduce -> true
  | Expr.Map | Expr.Scanl | Expr.Scanr -> false

(* A self-edge reading the block's own output at offset -1 (foldl /
   reduce) or +1 (foldr) along a fold/reduce dimension is the running
   accumulator: it lives in registers inside the emitted macro-kernel
   and moves no memory. *)
let is_register_state b (e : Ir.edge) =
  e.Ir.e_dir = Ir.Read
  && List.exists
       (fun w -> w.Ir.e_dir = Ir.Write && w.Ir.e_buffer = e.Ir.e_buffer)
       b.Ir.blk_edges
  &&
  let a = e.Ir.e_access in
  Array.exists
    (fun row_off -> row_off <> 0)
    a.Access_map.offset
  &&
  (* every offset row is driven by a fold/reduce dim *)
  let ok = ref true in
  Array.iteri
    (fun row off ->
      if off <> 0 then begin
        let driven_fold = ref false in
        Array.iteri
          (fun col c -> if c <> 0 && is_fold_dim b col then driven_fold := true)
          a.Access_map.matrix.(row);
        if not !driven_fold then ok := false
      end)
    a.Access_map.offset;
  !ok

(* Total traffic of an edge over the whole block execution, after
   deferred materialization: reads collapse along every reuse
   direction; writes of fold/reduce dimensions only materialise the
   final accumulator instance. *)
let edge_total_bytes ?(collapse_reuse = true) g (b : Ir.block) (e : Ir.edge) =
  let cells = Domain.card b.Ir.blk_domain in
  let ext = block_extents b in
  let per = bytes_per_access g e in
  match e.Ir.e_dir with
  | Ir.Read ->
      let collapse =
        if not collapse_reuse then 1
        else
          List.fold_left
            (fun acc d -> acc * Stdlib.max 1 ext.(d))
            1 (reuse_support e)
      in
      per *. Float.max 1.0 (float_of_int cells /. float_of_int collapse)
  | Ir.Write ->
      let fold_collapse = ref 1 in
      Array.iteri
        (fun i _ -> if is_fold_dim b i then fold_collapse := !fold_collapse * Stdlib.max 1 ext.(i))
        b.Ir.blk_ops;
      per *. Float.max 1.0 (float_of_int cells /. float_of_int !fold_collapse)

let block_kernels ?(others = []) ?(collapse_reuse = true)
    ?(tile = Tile.default_config) g (b : Ir.block) =
  let r = Reorder.apply b in
  let point_flops = block_point_flops b in
  let cells_total = Domain.card b.Ir.blk_domain in
  if cells_total = 0 then []
  else begin
    let touched_elsewhere id =
      List.exists
        (fun (ob : Ir.block) ->
          ob.Ir.blk_id <> b.Ir.blk_id
          && List.exists (fun e -> e.Ir.e_buffer = id) ob.Ir.blk_edges)
        others
    in
    let internal id =
      (Ir.buffer g id).Ir.buf_role = Ir.Intermediate
      && List.exists
           (fun e -> e.Ir.e_dir = Ir.Write && e.Ir.e_buffer = id)
           b.Ir.blk_edges
      && List.exists
           (fun e -> e.Ir.e_dir = Ir.Read && e.Ir.e_buffer = id)
           b.Ir.blk_edges
      && not (touched_elsewhere id)
    in
    (* A transient buffer: an intermediate whose only readers are this
       block's own state reads (previous wavefront step).  Its slices
       live in L2 between steps and never reach HBM. *)
    let transient id =
      (Ir.buffer g id).Ir.buf_role = Ir.Intermediate
      && not (touched_elsewhere id)
      && List.for_all
           (fun e ->
             e.Ir.e_dir = Ir.Write
             || e.Ir.e_buffer <> id
             || Array.exists (fun o -> o < 0) e.Ir.e_access.Access_map.offset)
           b.Ir.blk_edges
    in
    let edges =
      List.filter
        (fun e ->
          (not (is_register_state b e)) && not (internal e.Ir.e_buffer))
        b.Ir.blk_edges
    in
    (* Reads of one buffer whose access matrices coincide (offsets may
       differ, e.g. overlapping window members) touch essentially the
       same data: deferred materialisation fetches it once. *)
    let edges =
      List.fold_left
        (fun acc (e : Ir.edge) ->
          if
            e.Ir.e_dir = Ir.Read
            && List.exists
                 (fun (e' : Ir.edge) ->
                   e'.Ir.e_dir = Ir.Read
                   && e'.Ir.e_buffer = e.Ir.e_buffer
                   && e'.Ir.e_access.Access_map.matrix
                      = e.Ir.e_access.Access_map.matrix)
                 acc
          then acc
          else e :: acc)
        [] edges
      |> List.rev
    in
    let totals =
      List.map (fun e -> (e, edge_total_bytes ~collapse_reuse g b e)) edges
    in
    let gemm_dims = first_matmul_dims b in
    let block_tiles = Tile.tiles_for tile b.Ir.blk_name in
    let l1_per_cell =
      (* per-cell staging.  Legacy (no explicit tiles): the result tile
         round-trips shared memory; operand tiles are shared across
         cells and already counted via the reuse-collapsed access
         bytes.  Under an explicit (tuned) tile shape the full tile
         model applies: padded result round-trip plus operand strips
         re-staged once per tile row / column. *)
      match (gemm_dims, block_tiles) with
      | Some (m, n, k), Some tl -> Tile.gemm_tile_l1_bytes tl ~m ~n ~k
      | Some (m, n, _), None -> float_of_int (4 * m * n)
      | None, _ -> 0.0
    in
    (* thread blocks per iteration cell: one in the legacy emission,
       one per output tile under explicit tiles *)
    let tasks_per_cell =
      match (gemm_dims, block_tiles) with
      | Some (m, n, _), Some tl -> Tile.gemm_tile_tasks tl ~m ~n
      | _ -> 1
    in
    let tensor_core =
      match first_matmul_dims b with
      | Some (_, n, k) -> n >= Tile.base_tile && k >= Tile.base_tile
      | None -> false
    in
    let steps = Reorder.sequential_steps r in
    let self_written id =
      List.exists
        (fun e -> e.Ir.e_dir = Ir.Write && e.Ir.e_buffer = id)
        b.Ir.blk_edges
    in
    let make_step k cells =
      if cells = 0 then None
      else
        let share = float_of_int cells /. float_of_int cells_total in
        let accesses =
          List.map
            (fun ((e : Ir.edge), total) ->
              let bf = Ir.buffer g e.Ir.e_buffer in
              let bytes = total *. share in
              match e.Ir.e_dir with
              | Ir.Read ->
                  (* each wavefront step of a persistent kernel reads a
                     fresh slice of its inputs; only self-state reads
                     revisit what the previous step wrote *)
                  let name =
                    if r.Reorder.wavefront && not (self_written e.Ir.e_buffer)
                    then Printf.sprintf "%s@%d" bf.Ir.buf_name k
                    else bf.Ir.buf_name
                  in
                  if transient e.Ir.e_buffer then
                    Plan.read ~hint:Plan.L2_only name bytes
                  else Plan.read name bytes
              | Ir.Write ->
                  if transient e.Ir.e_buffer then
                    Plan.write ~hint:Plan.L2_only bf.Ir.buf_name bytes
                  else Plan.write bf.Ir.buf_name bytes)
            totals
        in
        let access_bytes =
          List.fold_left
            (fun acc (a : Plan.access) -> acc +. a.Plan.a_bytes)
            0.0 accesses
        in
        let l1 =
          if l1_per_cell > 0.0 then
            (2.0 *. access_bytes) +. (l1_per_cell *. float_of_int cells)
          else Tile.elementwise_l1_bytes access_bytes
        in
        Some
          (Plan.kernel ~l1_bytes:l1 ~tensor_core ~launch_free:(k > 0)
             ?gemm:gemm_dims
             ~name:
               (if steps = 1 then b.Ir.blk_name
                else Printf.sprintf "%s.wave%d" b.Ir.blk_name k)
             ~flops:(point_flops *. float_of_int cells)
             ~tasks:(cells * tasks_per_cell) accesses)
    in
    if not r.Reorder.wavefront then
      Option.to_list (make_step 0 cells_total)
    else
      List.filter_map
        (fun k -> make_step k (Reorder.parallel_tasks_at r k))
        (List.init steps Fun.id)
  end

let block_plan g b = block_kernels g b

(* The plan for an already-coarsened graph, reordering each block as it
   goes (block_kernels).  Not a user entry point: {!Pipeline.compile}
   is the one compile path and calls this after running (and
   optionally verifying) the coarsening stages. *)
let emit_plan ?(collapse_reuse = true) ?(tile = Tile.default_config)
    (g : Ir.graph) =
  Trace.timed ~cat:"pass" "emit" (fun () ->
      let blocks = Ir.dataflow_order g in
      {
        Plan.plan_name = "FractalTensor";
        kernels =
          List.concat_map
            (fun b -> block_kernels ~others:blocks ~collapse_reuse ~tile g b)
            blocks;
      })

let graph_flops (g : Ir.graph) =
  List.fold_left
    (fun acc (b : Ir.block) ->
      acc +. (block_point_flops b *. float_of_int (Domain.card b.Ir.blk_domain)))
    0.0 g.Ir.g_blocks
