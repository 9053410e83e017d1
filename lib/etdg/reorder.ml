type result = {
  transform : int array array;
  block : Ir.block;
  dep_dims : int list;
  reuse_dims : int list;
  wavefront : bool;
}

let reuse_dims (b : Ir.block) =
  let d = Ir.block_dim b in
  let marks = Array.make d false in
  List.iter
    (fun e ->
      if e.Ir.e_dir = Ir.Read then
        Array.iter
          (fun basis ->
            Array.iteri (fun i v -> if v <> 0 then marks.(i) <- true) basis)
          (Access_map.reuse_directions e.Ir.e_access))
    b.Ir.blk_edges;
  List.filter (fun i -> marks.(i)) (List.init d Fun.id)

let dep_dims_of b =
  let d = Ir.block_dim b in
  let dvs = Dependence.block_distance_vectors b in
  List.filter
    (fun i -> List.exists (fun dv -> dv.(i) <> 0) dvs)
    (List.init d Fun.id)

let transform_matrix (b : Ir.block) =
  let d = Ir.block_dim b in
  let deps = dep_dims_of b in
  if deps = [] || d <= 1 then Linalg.identity d
  else begin
    let reuse = reuse_dims b in
    let dvs = Dependence.block_distance_vectors b in
    (* first row: the hyperplane over the dependence dimensions, with
       each coefficient signed like its distance so that right-
       directional aggregates (negative storage distance) reverse *)
    let first = Array.make d 0 in
    List.iter
      (fun i ->
        let sign =
          if
            List.exists (fun dv -> dv.(i) < 0) dvs
          then -1
          else 1
        in
        first.(i) <- sign)
      deps;
    (* remaining rows: unit vectors for all dims except the last
       dependence dim (absorbed by the hyperplane), reuse dims pushed
       innermost by a stable partition *)
    let drop = List.nth deps (List.length deps - 1) in
    let keep = List.filter (fun i -> i <> drop) (List.init d Fun.id) in
    let no_reuse, with_reuse =
      List.partition (fun i -> not (List.mem i reuse)) keep
    in
    let order = no_reuse @ with_reuse in
    let rows =
      first
      :: List.map
           (fun i ->
             let row = Array.make d 0 in
             row.(i) <- 1;
             row)
           order
    in
    Array.of_list rows
  end

let sequential_extent (dom : Domain.t) =
  match Domain.bounds dom 0 ~outer:[||] with
  | Some (lo, hi) -> hi - lo + 1
  | None -> 0

let apply (b : Ir.block) : result =
  let tm = transform_matrix b in
  let d = Ir.block_dim b in
  let identity = tm = Linalg.identity d in
  if not (Linalg.is_unimodular tm) then
    invalid_arg
      (Printf.sprintf "Reorder.apply: non-unimodular transform for %s"
         b.Ir.blk_name);
  let dvs = Dependence.block_distance_vectors b in
  if not (Dependence.carried ~transform:tm dvs) then
    invalid_arg
      (Printf.sprintf "Reorder.apply: transform for %s violates a dependence"
         b.Ir.blk_name);
  let block =
    if identity then b
    else
      {
        b with
        Ir.blk_domain = Domain.transform tm b.Ir.blk_domain;
        blk_edges =
          List.map
            (fun e ->
              { e with Ir.e_access = Access_map.after_transform e.Ir.e_access tm })
            b.Ir.blk_edges;
      }
  in
  {
    transform = tm;
    block;
    dep_dims = dep_dims_of b;
    reuse_dims = reuse_dims b;
    wavefront = not identity;
  }

let sequential_steps r =
  if not r.wavefront then 1 else sequential_extent r.block.Ir.blk_domain

let parallel_tasks_at r k =
  let dom = r.block.Ir.blk_domain in
  let d = dom.Domain.dim in
  if d = 0 then 1
  else begin
    let lo0 =
      match Domain.bounds dom 0 ~outer:[||] with
      | Some (lo, _) -> lo
      | None -> 0
    in
    (* Exact count of points with the first coordinate fixed to
       lo0 + k.  Dimensions constrained only by single-variable bounds
       factor out as plain extents; dimensions coupled to others (the
       skewed wavefront dims) are enumerated — there are at most as
       many of those as dependence dimensions, so this stays cheap. *)
    let decoupled =
      Array.init d (fun i ->
          List.for_all
            (fun (c : Domain.ineq) ->
              c.Domain.coeffs.(i) = 0
              || Array.for_all
                   (fun v -> v = 0)
                   (Array.mapi
                      (fun j v -> if j = i then 0 else v)
                      c.Domain.coeffs))
            dom.Domain.cs)
    in
    let outer = Array.make d 0 in
    outer.(0) <- lo0 + k;
    let rec go i =
      if i = d then 1
      else
        match Domain.bounds dom i ~outer:(Array.sub outer 0 i) with
        | None -> 0
        | Some (lo, hi) ->
            if decoupled.(i) then begin
              outer.(i) <- lo;
              (hi - lo + 1) * go (i + 1)
            end
            else begin
              let total = ref 0 in
              for v = lo to hi do
                outer.(i) <- v;
                total := !total + go (i + 1)
              done;
              !total
            end
    in
    go 1
  end
