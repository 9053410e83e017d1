exception Verification_failed of string * Diagnostic.t list

let err ?stage ?ctx code fmt =
  let context =
    match (stage, ctx) with
    | Some s, Some c -> Some (s ^ ": " ^ c)
    | Some s, None -> Some s
    | None, c -> c
  in
  Diagnostic.errorf ?context code fmt

(* Work bound for exact decisions: domains with at most this many
   points are enumerated; larger ones get corner/box arguments only. *)
let small_volume = 4096

(* Bounding box implied by the single-variable constraints, as in
   Ir.validate: [None] when some dimension has no such bound. *)
let box_of_domain (d : Domain.t) =
  let lo, hi, _ = Domain.unit_bounds d in
  if Array.exists (fun v -> v = min_int) lo || Array.exists (fun v -> v = max_int) hi
  then None
  else Some (lo, hi)

let box_volume lo hi =
  let v = ref 1 in
  Array.iteri
    (fun i l ->
      if !v <= small_volume then
        v := !v * Stdlib.max 0 (hi.(i) - l + 1))
    lo;
  !v

(* `Empty / `Non_empty are exact; `Unknown means "too big or too
   general to decide cheaply" and is treated as fine. *)
let domain_status (d : Domain.t) =
  if d.Domain.dim = 0 then `Non_empty
  else
    match box_of_domain d with
    | None -> `Unknown
    | Some (lo, hi) ->
        if Array.exists (fun i -> lo.(i) > hi.(i)) (Array.init d.Domain.dim Fun.id)
        then `Empty
        else if box_volume lo hi <= small_volume then
          if Domain.is_empty d then `Empty else `Non_empty
        else `Unknown

(* Sample points witnessing the extremes of any affine map over the
   domain: all corners for a box (an affine function over a box attains
   its per-row min/max at a corner), every point for a small general
   polyhedron, nothing when the domain is too large to decide. *)
let probe_points (d : Domain.t) =
  match Domain.rect_extents d with
  | Some ext ->
      if Array.exists (fun (lo, hi) -> hi <= lo) ext then []
      else
        Array.to_list ext
        |> List.fold_left
             (fun acc (lo, hi) ->
               List.concat_map
                 (fun pt ->
                   if lo = hi - 1 then [ lo :: pt ] else [ lo :: pt; (hi - 1) :: pt ])
                 acc)
             [ [] ]
        |> List.map (fun pt -> Array.of_list (List.rev pt))
  | None -> (
      match box_of_domain d with
      | Some (lo, hi) when box_volume lo hi <= small_volume ->
          Domain.enumerate d
      | _ -> [])

(* ----------------------- structural checks ------------------------- *)

let check_operand ?stage b ~what ~labels ~n_ops ~pos acc (o : Ir.operand) =
  match o with
  | Ir.O_const _ -> acc
  | Ir.O_op i ->
      let limit = match pos with Some p -> p | None -> n_ops in
      if i < 0 || i >= limit then
        err ?stage "V003" "block %s: %s refers to operation node %d of %d%s"
          b.Ir.blk_name what i n_ops
          (if i >= 0 && i < n_ops then " (forward reference)" else "")
        :: acc
      else acc
  | Ir.O_var v ->
      if List.mem v labels then acc
      else
        err ?stage "V004"
          "block %s: %s names '%s', which no read edge or constant binds"
          b.Ir.blk_name what v
        :: acc

let rec check_block_ops ?stage ~outer_labels acc (b : Ir.block) =
  let labels =
    List.map (fun e -> e.Ir.e_label) (Ir.reads b)
    @ List.map fst b.Ir.blk_consts
    @ outer_labels
  in
  let n_ops = List.length b.Ir.blk_body in
  let acc =
    List.fold_left
      (fun acc (i, (o : Ir.op_node)) ->
        let acc =
          if List.length o.Ir.operands <> List.length o.Ir.operand_shapes then
            err ?stage "V002"
              "block %s: operation %d (%s) has %d operands but %d operand \
               shapes"
              b.Ir.blk_name i (Expr.prim_name o.Ir.op)
              (List.length o.Ir.operands)
              (List.length o.Ir.operand_shapes)
            :: acc
          else acc
        in
        List.fold_left
          (check_operand ?stage b
             ~what:(Printf.sprintf "operation %d (%s)" i (Expr.prim_name o.Ir.op))
             ~labels ~n_ops ~pos:(Some i))
          acc o.Ir.operands)
      acc
      (List.mapi (fun i o -> (i, o)) b.Ir.blk_body)
  in
  let n_writes = List.length (Ir.writes b) in
  let acc =
    if List.length b.Ir.blk_results <> n_writes then
      err ?stage "V005" "block %s: %d results for %d write edges"
        b.Ir.blk_name
        (List.length b.Ir.blk_results)
        n_writes
      :: acc
    else acc
  in
  let acc =
    List.fold_left
      (check_operand ?stage b ~what:"result" ~labels ~n_ops ~pos:None)
      acc b.Ir.blk_results
  in
  List.fold_left (check_block_ops ?stage ~outer_labels:labels) acc
    b.Ir.blk_children

let structure ?stage (g : Ir.graph) =
  let acc =
    match Ir.validate g with
    | Ok () -> []
    | Error es -> List.map (fun e -> err ?stage "V001" "%s" e) es
  in
  let acc =
    List.fold_left
      (fun acc (bf : Ir.buffer) ->
        let acc =
          if
            List.exists
              (fun (bf' : Ir.buffer) ->
                bf' != bf && bf'.Ir.buf_id = bf.Ir.buf_id)
              g.Ir.g_buffers
          then
            err ?stage "V006" "duplicate buffer id %d (%s)" bf.Ir.buf_id
              bf.Ir.buf_name
            :: acc
          else acc
        in
        if Array.exists (fun e -> e < 1) bf.Ir.buf_dims then
          err ?stage "V006" "buffer %s has a non-positive extent" bf.Ir.buf_name
          :: acc
        else acc)
      acc g.Ir.g_buffers
  in
  List.rev
    (List.fold_left (check_block_ops ?stage ~outer_labels:[]) acc g.Ir.g_blocks)

(* --------------------- access maps and domains --------------------- *)

let check_access_map ?stage (g : Ir.graph) (b : Ir.block) ~box probes acc
    (e : Ir.edge) =
  let a = e.Ir.e_access in
  let d = Access_map.in_dim a in
  let m = Access_map.out_dim a in
  let ctx = b.Ir.blk_name in
  if Array.exists (fun row -> Array.length row <> d) a.Access_map.matrix then
    err ?stage ~ctx "V012"
      "%s edge '%s': ragged access matrix (declared arity %d)"
      (match e.Ir.e_dir with Ir.Read -> "read" | Ir.Write -> "write")
      e.Ir.e_label d
    :: acc
  else if m = 0 || d <> Domain.(b.Ir.blk_domain.dim) then
    (* arity mismatches against the block are V001 territory *)
    acc
  else
    match List.find_opt (fun bf -> bf.Ir.buf_id = e.Ir.e_buffer) g.Ir.g_buffers with
    | None -> acc (* unknown buffer is V001 *)
    | Some bf ->
        (* A read at a negative offset is boundary-predicated: region
           grouping (§5.1) deliberately widens domains to the hull, and
           the emitter masks the first iterations.  Right-directional
           aggregates (foldr/scanr) carry their state at a {e positive}
           offset and are masked at the last iterations — the mirror
           case, exempt when every positively-offset row is driven by a
           right-directional dimension.  Writes and ordinary reads must
           stay inside the buffer. *)
        let right_state_read () =
          Array.exists (fun o -> o > 0) a.Access_map.offset
          &&
          let ok = ref true in
          Array.iteri
            (fun row off ->
              if off > 0 then begin
                let driven = ref false in
                Array.iteri
                  (fun col c ->
                    if
                      c <> 0
                      && col < Array.length b.Ir.blk_ops
                      && (match b.Ir.blk_ops.(col) with
                         | Expr.Foldr | Expr.Scanr -> true
                         | _ -> false)
                    then driven := true)
                  a.Access_map.matrix.(row);
                if not !driven then ok := false
              end)
            a.Access_map.offset;
          !ok
        in
        if
          e.Ir.e_dir = Ir.Read
          && (Array.exists (fun o -> o < 0) a.Access_map.offset
             || right_state_read ())
        then acc
        else
          let rank = Array.length bf.Ir.buf_dims in
          (* Every row inside its extent over the box's corners: no
             probe can violate, and none is built. *)
          let inside =
            match Lazy.force box with
            | Some ext when Access_map.regular a ->
                Access_map.corners_inside a ~dims:bf.Ir.buf_dims ext
            | _ -> false
          in
          let violation =
            if inside then None
            else
              List.find_map
                (fun t ->
                  let idx = Access_map.apply a t in
                  let bad = ref None in
                  Array.iteri
                    (fun r i ->
                      if !bad = None && r < rank
                         && (i < 0 || i >= bf.Ir.buf_dims.(r))
                      then bad := Some (r, i, t))
                    idx;
                  !bad)
                (Lazy.force probes)
          in
          (match violation with
          | None -> acc
          | Some (row, i, t) ->
              err ?stage ~ctx "V011"
                "%s edge '%s' of buffer %s out of bounds: dimension %d gets \
                 index %d (extent %d) at iteration [%s]"
                (match e.Ir.e_dir with Ir.Read -> "read" | Ir.Write -> "write")
                e.Ir.e_label bf.Ir.buf_name row i
                bf.Ir.buf_dims.(row)
                (String.concat ","
                   (Array.to_list (Array.map string_of_int t)))
              :: acc)

let rec check_block_accesses ?stage g acc (b : Ir.block) =
  let acc =
    match domain_status b.Ir.blk_domain with
    | `Empty ->
        err ?stage "V010" "block %s has an empty iteration domain"
          b.Ir.blk_name
        :: acc
    | `Non_empty | `Unknown ->
        (* one box and one probe set per block, each derived only if
           some edge needs it *)
        let box = lazy (Domain.rect_extents b.Ir.blk_domain) in
        let probes = lazy (probe_points b.Ir.blk_domain) in
        List.fold_left (check_access_map ?stage g b ~box probes) acc
          b.Ir.blk_edges
  in
  List.fold_left (check_block_accesses ?stage g) acc b.Ir.blk_children

let access_maps ?stage (g : Ir.graph) =
  List.rev (List.fold_left (check_block_accesses ?stage g) [] g.Ir.g_blocks)

(* ------------------------- schedule legality ----------------------- *)

let vec_to_string v =
  "[" ^ String.concat "," (Array.to_list (Array.map string_of_int v)) ^ "]"

let schedule ?stage ?dvs (b : Ir.block) (tm : int array array) =
  let d = Ir.block_dim b in
  let ctx = b.Ir.blk_name in
  let dvs =
    match dvs with
    | Some v -> v
    | None -> Dependence.block_distance_vectors b
  in
  if d = 0 then []
  else if
    Array.length tm <> d || Array.exists (fun row -> Array.length row <> d) tm
  then
    [ err ?stage ~ctx "V023"
        "transformation matrix is not %d x %d (block dimension %d)" d d d ]
  else if List.exists (fun dv -> Array.length dv <> d) dvs then
    [ err ?stage ~ctx "V023"
        "a distance vector has the wrong arity for a %d-dim block" d ]
  else if not (Linalg.is_unimodular tm) then
    [ err ?stage ~ctx "V020"
        "transformation matrix is not unimodular (determinant %s)"
        (Linalg.Q.to_string (Linalg.determinant tm)) ]
  else
    let acc =
      List.filter_map
        (fun dv ->
          if Dependence.carried ~transform:tm [ dv ] then None
          else
            Some
              (err ?stage ~ctx "V021"
                 "transform maps dependence distance %s to the \
                  lexicographically non-positive %s"
                 (vec_to_string dv)
                 (vec_to_string (Linalg.mat_vec tm dv))))
        dvs
    in
    if
      acc = [] && dvs <> []
      && tm <> Linalg.identity d
      && not (Dependence.legal_schedule tm.(0) dvs)
    then
      [ err ?stage ~ctx "V022"
          "hyperplane %s fails Lamport's condition pi . d >= 1 for some \
           dependence distance"
          (vec_to_string tm.(0)) ]
    else acc

let schedules ?stage (g : Ir.graph) =
  List.concat_map
    (fun b ->
      let dvs = Dependence.block_distance_vectors b in
      schedule ?stage ~dvs b (Reorder.transform_matrix ~dvs b))
    g.Ir.g_blocks

(* ------------------------------ driver ----------------------------- *)

let graph ?stage ?(check_races = true) g =
  structure ?stage g @ access_maps ?stage g @ schedules ?stage g
  (* A structurally broken graph gets its V0xx findings first; the
     race prover skips edges it cannot do arithmetic with. *)
  @ if check_races then Effects.race_diagnostics ?stage g else []

let graph_exn ?stage ?check_races g =
  let ds = graph ?stage ?check_races g in
  if List.exists Diagnostic.is_error ds then
    raise (Verification_failed (Option.value stage ~default:"verify", ds))

let exit_on_failure ?(ppf = Format.err_formatter) f =
  match f () with
  | code -> code
  | exception Verification_failed (stage, ds) ->
      Format.fprintf ppf "verification failed after stage %s:@\n%a@." stage
        (Diagnostic.pp_list ?path:None)
        ds;
      1
