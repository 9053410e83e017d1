let strength = function
  | Expr.Map -> 0
  | Expr.Reduce -> 1
  | Expr.Foldl | Expr.Foldr -> 2
  | Expr.Scanl | Expr.Scanr -> 3

let direction = function
  | Expr.Foldl | Expr.Scanl -> Some `L
  | Expr.Foldr | Expr.Scanr -> Some `R
  | Expr.Map | Expr.Reduce -> None

let compose_ops a b =
  match (direction a, direction b) with
  | Some `L, Some `R | Some `R, Some `L -> None
  | da, db ->
      let dir =
        match da with
        | Some d -> Some d
        | None -> db
      in
      let s = Stdlib.max (strength a) (strength b) in
      Some
        (match (s, dir) with
        | 0, _ -> Expr.Map
        | 1, _ -> Expr.Reduce
        | 2, Some `R -> Expr.Foldr
        | 2, _ -> Expr.Foldl
        | _, Some `R -> Expr.Scanr
        | _, _ -> Expr.Scanl)

(* ------------------------------------------------------------------ *)
(* Operation-node lowering                                             *)
(* ------------------------------------------------------------------ *)

(* Axes of a static shape worth a loop dimension. *)
let nontrivial_axes (s : Shape.t) =
  Array.to_list (Shape.dims s)
  |> List.mapi (fun axis e -> (axis, e))
  |> List.filter (fun (_, e) -> e > 1)

(* Vars whose every use feeds a matmul operand are contracted: their
   innermost axes are consumed by the child contraction block, so the
   lowered parent dimensions do not index them (paper Fig. 5: x and w
   keep coarse access maps, s gains the column dimension). *)
let contracted_vars (body : Ir.op_node list) =
  let uses = Hashtbl.create 8 in
  List.iteri
    (fun _i (o : Ir.op_node) ->
      let is_mm = match o.Ir.op with Expr.Matmul | Expr.Matmul_t -> true | _ -> false in
      List.iter
        (function
          | Ir.O_var v ->
              let prev = try Hashtbl.find uses v with Not_found -> true in
              Hashtbl.replace uses v (prev && is_mm)
          | Ir.O_op _ | Ir.O_const _ -> ())
        o.Ir.operands)
    body;
  Hashtbl.fold (fun v only_mm acc -> if only_mm then v :: acc else acc) uses []

let first_matmul_k (body : Ir.op_node list) =
  List.find_map
    (fun (o : Ir.op_node) ->
      match (o.Ir.op, o.Ir.operand_shapes) with
      | (Expr.Matmul | Expr.Matmul_t), lhs :: _ -> Some (Shape.dim lhs 1)
      | _ -> None)
    body

let first_row_reduce_n (body : Ir.op_node list) =
  List.find_map
    (fun (o : Ir.op_node) ->
      match (o.Ir.op, o.Ir.operand_shapes) with
      | (Expr.Row_max | Expr.Row_sum | Expr.Softmax), [ s ] ->
          Some (Shape.dim s 1)
      | _ -> None)
    body

(* Promotion: a buffer's non-unit static axes become programmable
   dimensions appended after the original ones. *)
let promoted_axes (bf : Ir.buffer) = nontrivial_axes bf.Ir.buf_elem

let promote_buffer (bf : Ir.buffer) =
  let axes = promoted_axes bf in
  {
    bf with
    Ir.buf_dims =
      Array.append bf.Ir.buf_dims
        (Array.of_list (List.map snd axes));
    buf_elem = Shape.scalar;
  }

let widen_map extra (a : Access_map.t) =
  Access_map.make
    (Array.map (fun row -> Array.append row (Array.make extra 0)) a.Access_map.matrix)
    a.Access_map.offset

(* Append rows binding the new block dimensions to the buffer's
   promoted dimensions, matched axis-by-axis against the result
   shape's non-trivial axes (broadcast axes of extent 1 are skipped). *)
let add_elementwise_rows (g : Ir.graph) new_axes d_old (a : Access_map.t) buf_id =
  let bf = Ir.buffer g buf_id in
  let b_axes = promoted_axes bf in
  let old_rank = Array.length bf.Ir.buf_dims in
  let rows = ref (Array.to_list a.Access_map.matrix)
  and offs = ref (Array.to_list a.Access_map.offset) in
  List.iteri
    (fun k (axis, extent) ->
      match
        List.find_map
          (fun (i, (ba, be)) ->
            if ba = axis && be = extent then Some i else None)
          (List.mapi (fun i ax -> (i, ax)) b_axes)
      with
      | None -> () (* broadcast axis on this operand *)
      | Some pos ->
          ignore pos;
          let d_new = Array.length (List.hd !rows) in
          ignore d_new;
          let row = Array.make (d_old + List.length new_axes) 0 in
          row.(d_old + k) <- 1;
          rows := !rows @ [ row ];
          offs := !offs @ [ 0 ])
    new_axes;
  ignore old_rank;
  Access_map.make (Array.of_list !rows) (Array.of_list !offs)

let lower_block (g : Ir.graph) (b : Ir.block) : Ir.block =
  let d_old = Ir.block_dim b in
  let out_elem =
    match Ir.writes b with
    | [] -> Shape.scalar
    | e :: _ -> (Ir.buffer g e.Ir.e_buffer).Ir.buf_elem
  in
  let new_axes = nontrivial_axes out_elem in
  let extra = List.length new_axes in
  let contracted = contracted_vars b.Ir.blk_body in
  let ops' =
    Array.append b.Ir.blk_ops (Array.make extra Expr.Map)
  in
  let domain' =
    Domain.extend b.Ir.blk_domain
      (Array.of_list (List.map snd new_axes))
  in
  let edges' =
    List.map
      (fun e ->
        let widened = widen_map extra e.Ir.e_access in
        let bind =
          match e.Ir.e_dir with
          | Ir.Write -> true
          | Ir.Read -> not (List.mem e.Ir.e_label contracted)
        in
        if bind && extra > 0 then
          { e with Ir.e_access = add_elementwise_rows g new_axes d_old widened e.Ir.e_buffer }
        else { e with Ir.e_access = widened })
      b.Ir.blk_edges
  in
  let child =
    match first_matmul_k b.Ir.blk_body with
    | Some k ->
        [
          {
            Ir.blk_id = -b.Ir.blk_id - 1;
            blk_name = b.Ir.blk_name ^ ".contract";
            blk_ops = [| Expr.Foldl |];
            blk_domain = Domain.of_extents [| k |];
            blk_edges = [];
            blk_children = [];
            blk_body =
              List.filter
                (fun (o : Ir.op_node) ->
                  match o.Ir.op with
                  | Expr.Matmul | Expr.Matmul_t -> true
                  | _ -> false)
                b.Ir.blk_body;
            blk_results = [];
            blk_consts = [];
          };
        ]
    | None -> (
        match first_row_reduce_n b.Ir.blk_body with
        | Some n ->
            [
              {
                Ir.blk_id = -b.Ir.blk_id - 1;
                blk_name = b.Ir.blk_name ^ ".rowreduce";
                blk_ops = [| Expr.Reduce |];
                blk_domain = Domain.of_extents [| n |];
                blk_edges = [];
                blk_children = [];
                blk_body =
                  List.filter
                    (fun (o : Ir.op_node) ->
                      match o.Ir.op with
                      | Expr.Row_max | Expr.Row_sum | Expr.Softmax -> true
                      | _ -> false)
                    b.Ir.blk_body;
                blk_results = [];
                blk_consts = [];
              };
            ]
        | None -> [])
  in
  {
    b with
    Ir.blk_ops = ops';
    blk_domain = domain';
    blk_edges = edges';
    blk_children = b.Ir.blk_children @ child;
  }

let lower (g : Ir.graph) : Ir.graph =
  let lowered_blocks = List.map (lower_block g) g.Ir.g_blocks in
  { g with
    Ir.g_buffers = List.map promote_buffer g.Ir.g_buffers;
    g_blocks = lowered_blocks }

let lower g = Trace.timed ~cat:"pass" "coarsen.lower" (fun () -> lower g)

(* ------------------------------------------------------------------ *)
(* Width-wise merging                                                  *)
(* ------------------------------------------------------------------ *)

let domain_equal (a : Domain.t) (b : Domain.t) =
  a.Domain.dim = b.Domain.dim
  && List.sort compare a.Domain.cs = List.sort compare b.Domain.cs

let touches b buf = List.exists (fun e -> e.Ir.e_buffer = buf) b.Ir.blk_edges

let dataflow_between b1 b2 =
  List.exists
    (fun e -> e.Ir.e_dir = Ir.Write && touches b2 e.Ir.e_buffer)
    b1.Ir.blk_edges
  || List.exists
       (fun e -> e.Ir.e_dir = Ir.Write && touches b1 e.Ir.e_buffer)
       b2.Ir.blk_edges

let shift_ops offset body =
  List.map
    (fun (o : Ir.op_node) ->
      { o with
        Ir.operands =
          List.map
            (function
              | Ir.O_op k -> Ir.O_op (k + offset)
              | other -> other)
            o.Ir.operands })
    body

(* Merging concatenates edge lists, but [blk_results] must stay aligned
   with the surviving write edges: pair every write edge with its
   result before deduplication, so a deduplicated write takes its
   result with it.  [shift] renumbers [O_op] operands of a block whose
   body is appended after [shift] earlier operation nodes. *)
let pair_results shift (b : Ir.block) edges =
  let shift_result = function
    | Ir.O_op k -> Ir.O_op (k + shift)
    | other -> other
  in
  let rs = ref (List.map shift_result b.Ir.blk_results) in
  List.map
    (fun (e : Ir.edge) ->
      if e.Ir.e_dir = Ir.Write then
        match !rs with
        | r :: tl ->
            rs := tl;
            (e, Some r)
        | [] -> (e, None)
      else (e, None))
    edges

let dedup_pairs pairs =
  List.fold_left
    (fun acc (((e : Ir.edge), _) as p) ->
      if
        List.exists
          (fun ((e' : Ir.edge), _) ->
            e'.Ir.e_buffer = e.Ir.e_buffer
            && e'.Ir.e_dir = e.Ir.e_dir
            && e'.Ir.e_label = e.Ir.e_label
            && Access_map.equal e'.Ir.e_access e.Ir.e_access)
          acc
      then acc
      else p :: acc)
    [] pairs
  |> List.rev

let pairs_edges pairs = List.map fst pairs

let pairs_results pairs =
  List.filter_map
    (fun ((e : Ir.edge), r) -> if e.Ir.e_dir = Ir.Write then r else None)
    pairs

let merge_horizontal b1 b2 =
  if
    b1.Ir.blk_ops = b2.Ir.blk_ops
    && domain_equal b1.Ir.blk_domain b2.Ir.blk_domain
    && not (dataflow_between b1 b2)
  then
    let shift = List.length b1.Ir.blk_body in
    let pairs =
      dedup_pairs
        (pair_results 0 b1 b1.Ir.blk_edges @ pair_results shift b2 b2.Ir.blk_edges)
    in
    Some
      {
        b1 with
        Ir.blk_name = b1.Ir.blk_name ^ "+" ^ b2.Ir.blk_name;
        blk_edges = pairs_edges pairs;
        blk_results = pairs_results pairs;
        blk_children = b1.Ir.blk_children @ b2.Ir.blk_children;
        blk_body = b1.Ir.blk_body @ shift_ops shift b2.Ir.blk_body;
      }
  else None

(* Widen a d2-dim consumer edge to the producer's d1 dims by adding
   zero columns for the trailing dimensions. *)
let widen_edge d1 (e : Ir.edge) =
  let a = e.Ir.e_access in
  let d2 = Access_map.in_dim a in
  if d1 = d2 then e
  else
    let extra = d1 - d2 in
    let matrix =
      Array.map (fun row -> Array.append row (Array.make extra 0)) a.Access_map.matrix
    in
    { e with Ir.e_access = Access_map.make ~in_dim:d1 matrix a.Access_map.offset }

let is_fold = function
  | Expr.Foldl | Expr.Foldr | Expr.Reduce -> true
  | Expr.Map | Expr.Scanl | Expr.Scanr -> false

let merge_vertical b1 b2 =
  let produces_for =
    List.exists
      (fun e ->
        e.Ir.e_dir = Ir.Write
        && List.exists
             (fun e' -> e'.Ir.e_dir = Ir.Read && e'.Ir.e_buffer = e.Ir.e_buffer)
             b2.Ir.blk_edges)
      b1.Ir.blk_edges
  in
  let d1 = Ir.block_dim b1 and d2 = Ir.block_dim b2 in
  (* A consumer of a fold's final accumulator merges into the producer:
     the consumer's dims align with the producer's prefix and the
     producer's trailing fold/reduce dims are absorbed (the paper's
     unaligned-iteration-space child construction, specialised to the
     case where the leftover dims are the fold's own). *)
  if
    produces_for && d2 < d1
    && Array.for_all is_fold (Array.sub b1.Ir.blk_ops d2 (d1 - d2))
    && Array.to_list (Array.sub b1.Ir.blk_ops 0 d2)
       |> List.for_all (fun _ -> true)
  then begin
    match
      ( Domain.rect_extents b1.Ir.blk_domain,
        Domain.rect_extents b2.Ir.blk_domain )
    with
    | Some e1, Some e2
      when Array.sub e1 0 d2 = e2 ->
        let shift = List.length b1.Ir.blk_body in
        let pairs =
          dedup_pairs
            (pair_results 0 b1 b1.Ir.blk_edges
            @ pair_results shift b2 (List.map (widen_edge d1) b2.Ir.blk_edges))
        in
        Some
          {
            b1 with
            Ir.blk_name = b1.Ir.blk_name ^ ">" ^ b2.Ir.blk_name;
            blk_edges = pairs_edges pairs;
            blk_results = pairs_results pairs;
            blk_children = b1.Ir.blk_children @ b2.Ir.blk_children;
            blk_body = b1.Ir.blk_body @ shift_ops shift b2.Ir.blk_body;
          }
    | _ -> None
  end
  else if
    produces_for
    && d1 = d2
    && domain_equal b1.Ir.blk_domain b2.Ir.blk_domain
  then
    let composed =
      Array.map2
        (fun a b -> compose_ops a b)
        b1.Ir.blk_ops b2.Ir.blk_ops
    in
    if Array.for_all Option.is_some composed then
      let shift = List.length b1.Ir.blk_body in
      let pairs =
        dedup_pairs
          (pair_results 0 b1 b1.Ir.blk_edges
          @ pair_results shift b2 b2.Ir.blk_edges)
      in
      Some
        {
          b1 with
          Ir.blk_name = b1.Ir.blk_name ^ ">" ^ b2.Ir.blk_name;
          blk_ops = Array.map Option.get composed;
          blk_edges = pairs_edges pairs;
          blk_results = pairs_results pairs;
          blk_children = b1.Ir.blk_children @ b2.Ir.blk_children;
          blk_body = b1.Ir.blk_body @ shift_ops shift b2.Ir.blk_body;
        }
    else None
  else None

(* ------------------------------------------------------------------ *)
(* Depth-wise merging                                                  *)
(* ------------------------------------------------------------------ *)

let merge_dims (b : Ir.block) i j =
  if j <> i + 1 then None
  else
    match Domain.rect_extents b.Ir.blk_domain with
    | None -> None
    | Some ext ->
        let d = Ir.block_dim b in
        if i < 0 || j >= d then None
        else if fst ext.(i) <> 0 || fst ext.(j) <> 0 then None
        else
          let ni = snd ext.(i) and nj = snd ext.(j) in
          match compose_ops b.Ir.blk_ops.(i) b.Ir.blk_ops.(j) with
          | None -> None
          | Some op ->
              (* An edge is mergeable when columns i and j are either
                 both zero in every row (invariant), or appear as a
                 consecutive row pair (bd, bd+1) with equal unit
                 coefficients so the two buffer dims fuse row-major. *)
              let try_edge e =
                let m = e.Ir.e_access.Access_map.matrix in
                let off = e.Ir.e_access.Access_map.offset in
                let rows = Array.length m in
                let row_i = ref None and row_j = ref None in
                (try
                   for r = 0 to rows - 1 do
                     if m.(r).(i) <> 0 then
                       if !row_i = None then row_i := Some r else raise Exit;
                     if m.(r).(j) <> 0 then
                       if !row_j = None then row_j := Some r else raise Exit
                   done;
                   let drop_col row =
                     Array.init (d - 1) (fun c ->
                         if c < j then row.(c) else row.(c + 1))
                   in
                   match (!row_i, !row_j) with
                   | None, None ->
                       Some
                         { e with
                           Ir.e_access =
                             Access_map.make (Array.map drop_col m) off }
                   | Some ri, Some rj
                     when rj = ri + 1
                          && m.(ri).(i) = 1
                          && m.(rj).(j) = 1 ->
                       (* fuse rows ri, rj: new index = idx_i * nj + idx_j *)
                       let keep r = r <> rj in
                       let new_rows =
                         Array.to_list m
                         |> List.mapi (fun r row -> (r, row))
                         |> List.filter (fun (r, _) -> keep r)
                         |> List.map (fun (r, row) ->
                                if r = ri then begin
                                  let fused = Array.make d 0 in
                                  Array.blit row 0 fused 0 d;
                                  (* scale outer contribution by nj,
                                     add inner row *)
                                  Array.iteri
                                    (fun c v -> fused.(c) <- (v * nj) + m.(rj).(c))
                                    row;
                                  drop_col fused
                                end
                                else drop_col row)
                       in
                       let new_offs =
                         Array.to_list off
                         |> List.mapi (fun r o -> (r, o))
                         |> List.filter (fun (r, _) -> keep r)
                         |> List.map (fun (r, o) ->
                                if r = ri then (o * nj) + off.(rj) else o)
                       in
                       (* after fusing, the coefficient at the fused
                          column must be 1 * nj from the outer and 1
                          from the inner: (1*nj)+... the merged column
                          now holds nj + ... adjust: column i of the
                          fused row currently holds 1*nj (outer) +
                          1 (inner) = nj + 1?  Recompute directly. *)
                       let fixed =
                         List.mapi
                           (fun r row ->
                             if r = ri then begin
                               let row = Array.copy row in
                               row.(i) <- 1;
                               row
                             end
                             else row)
                           new_rows
                       in
                       Some
                         { e with
                           Ir.e_access =
                             Access_map.make (Array.of_list fixed)
                               (Array.of_list new_offs) }
                   | _ -> None
                 with Exit -> None)
              in
              let edges' = List.map try_edge b.Ir.blk_edges in
              if List.for_all Option.is_some edges' then
                let new_ops =
                  Array.init (d - 1) (fun c ->
                      if c < i then b.Ir.blk_ops.(c)
                      else if c = i then op
                      else b.Ir.blk_ops.(c + 1))
                in
                let new_ext =
                  Array.init (d - 1) (fun c ->
                      if c < i then snd ext.(c)
                      else if c = i then ni * nj
                      else snd ext.(c + 1))
                in
                Some
                  {
                    b with
                    Ir.blk_ops = new_ops;
                    blk_domain = Domain.of_extents new_ext;
                    blk_edges = List.map Option.get edges';
                  }
              else None

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let merge_fixpoint blocks =
  let rec fixpoint blocks =
    let merged = ref false in
    let rec try_pairs acc = function
      | [] -> List.rev acc
      | b :: rest -> (
          let attempt other =
            match merge_horizontal b other with
            | Some m -> Some m
            | None -> (
                match merge_vertical b other with
                | Some m -> Some m
                | None -> merge_vertical other b)
          in
          match
            List.fold_left
              (fun (found, remaining) other ->
                match found with
                | Some _ -> (found, other :: remaining)
                | None -> (
                    match attempt other with
                    | Some m -> (Some m, remaining)
                    | None -> (found, other :: remaining)))
              (None, []) rest
          with
          | Some m, remaining ->
              merged := true;
              try_pairs acc (m :: List.rev remaining)
          | None, _ -> try_pairs (b :: acc) rest)
    in
    let blocks' = try_pairs [] blocks in
    if !merged then fixpoint blocks' else blocks'
  in
  fixpoint blocks

(* A copy block: no math, exactly one read, one identity write. *)
let copy_block (b : Ir.block) =
  match (b.Ir.blk_body, b.Ir.blk_children, Ir.reads b, Ir.writes b) with
  | [], [], [ r ], [ w ]
    when Access_map.equal w.Ir.e_access
           (Access_map.identity (Ir.block_dim b)) ->
      Some (r, w)
  | _ -> None

let fuse_access_maps (g : Ir.graph) : Ir.graph =
  let copies =
    List.filter_map
      (fun b -> Option.map (fun (r, w) -> (b, r, w)) (copy_block b))
      g.Ir.g_blocks
  in
  (* Only eliminate a copy when the copied buffer has no other writer. *)
  let sole_writer (b : Ir.block) buf =
    List.for_all
      (fun b' ->
        b'.Ir.blk_id = b.Ir.blk_id
        || List.for_all
             (fun e -> not (e.Ir.e_dir = Ir.Write && e.Ir.e_buffer = buf))
             b'.Ir.blk_edges)
      g.Ir.g_blocks
  in
  let copies =
    List.filter (fun (b, _, w) -> sole_writer b w.Ir.e_buffer) copies
  in
  let rewritten =
    List.filter_map
      (fun b ->
        match copy_block b with
        | Some (_, w)
          when List.exists (fun (cb, _, _) -> cb.Ir.blk_id = b.Ir.blk_id) copies
          ->
            ignore w;
            None (* the copy block itself disappears *)
        | _ ->
            Some
              {
                b with
                Ir.blk_edges =
                  List.map
                    (fun e ->
                      if e.Ir.e_dir <> Ir.Read then e
                      else
                        match
                          List.find_opt
                            (fun (_, _, w) -> w.Ir.e_buffer = e.Ir.e_buffer)
                            copies
                        with
                        | Some (_, r, _) ->
                            { e with
                              Ir.e_buffer = r.Ir.e_buffer;
                              e_access =
                                Access_map.compose r.Ir.e_access e.Ir.e_access }
                        | None -> e)
                    b.Ir.blk_edges;
              })
      g.Ir.g_blocks
  in
  let still_used buf =
    List.exists
      (fun b -> List.exists (fun e -> e.Ir.e_buffer = buf) b.Ir.blk_edges)
      rewritten
  in
  {
    g with
    Ir.g_blocks = rewritten;
    g_buffers =
      List.filter
        (fun bf ->
          bf.Ir.buf_role <> Ir.Intermediate || still_used bf.Ir.buf_id)
        g.Ir.g_buffers;
  }

let merge_only (g : Ir.graph) : Ir.graph =
  { g with Ir.g_blocks = merge_fixpoint g.Ir.g_blocks }

let merge_only g =
  Trace.timed ~cat:"pass" "coarsen.merge" (fun () -> merge_only g)

(* The 2^a region blocks of one operator nest partition a rectangular
   iteration space; the emitter schedules them as a single predicated
   persistent kernel, so for emission they regroup into one block over
   the hull domain with the union of their edges. *)
let group_regions (g : Ir.graph) : Ir.graph =
  let base_name b =
    match String.index_opt b.Ir.blk_name '.' with
    | Some i when
        String.length b.Ir.blk_name > i + 6
        && String.sub b.Ir.blk_name (i + 1) 6 = "region" ->
        Some (String.sub b.Ir.blk_name 0 i)
    | _ -> None
  in
  let groups = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun b ->
      let key =
        match base_name b with
        | Some base -> base
        | None -> b.Ir.blk_name
      in
      (match Hashtbl.find_opt groups key with
      | None ->
          order := key :: !order;
          Hashtbl.add groups key [ b ]
      | Some bs -> Hashtbl.replace groups key (b :: bs)))
    g.Ir.g_blocks;
  let fuse key =
    match List.rev (Hashtbl.find groups key) with
    | [] -> assert false
    | [ b ] -> b
    | first :: _ as bs ->
        let hull =
          let exts = List.filter_map (fun b -> Domain.rect_extents b.Ir.blk_domain) bs in
          if List.length exts <> List.length bs then first.Ir.blk_domain
          else begin
            let d = Array.length (List.hd exts) in
            let lo = Array.make d max_int and hi = Array.make d min_int in
            List.iter
              (Array.iteri (fun i (a, b) ->
                   lo.(i) <- Stdlib.min lo.(i) a;
                   hi.(i) <- Stdlib.max hi.(i) b))
              exts;
            Domain.rect ~lo ~hi
          end
        in
        (* Regions share a body (the group keeps [first]'s), so results
           pair with each region's own write edges without shifting. *)
        let pairs =
          dedup_pairs (List.concat_map (fun b -> pair_results 0 b b.Ir.blk_edges) bs)
        in
        {
          first with
          Ir.blk_name = key;
          blk_domain = hull;
          blk_edges = pairs_edges pairs;
          blk_results = pairs_results pairs;
        }
  in
  { g with Ir.g_blocks = List.rev_map fuse !order }

let group_regions g =
  Trace.timed ~cat:"pass" "coarsen.group" (fun () -> group_regions g)
