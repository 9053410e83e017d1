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

let dep_dims_of d dvs =
  List.filter
    (fun i -> List.exists (fun dv -> dv.(i) <> 0) dvs)
    (List.init d Fun.id)

(* The hyperplane over the dependence dimensions, with each
   coefficient signed like its distance so that right-directional
   aggregates (negative storage distance) reverse; the identity's first
   row when the block has no dependence or a single dimension. *)
let first_row d deps dvs =
  let first = Array.make d 0 in
  if deps = [] || d <= 1 then (if d > 0 then first.(0) <- 1)
  else
    List.iter
      (fun i ->
        first.(i) <- (if List.exists (fun dv -> dv.(i) < 0) dvs then -1 else 1))
      deps;
  first

(* [T] from the facts [apply] derives once: the distance vectors, the
   dimensions they touch and (forced only for a wavefront) the reuse
   dimensions. *)
let transform_of d dvs deps reuse =
  if deps = [] || d <= 1 then Linalg.identity d
  else begin
    let reuse = Lazy.force reuse in
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
      first_row d deps dvs
      :: List.map
           (fun i ->
             let row = Array.make d 0 in
             row.(i) <- 1;
             row)
           order
    in
    Array.of_list rows
  end

let transform_matrix ?dvs (b : Ir.block) =
  let d = Ir.block_dim b in
  let dvs =
    match dvs with Some v -> v | None -> Dependence.block_distance_vectors b
  in
  transform_of d dvs (dep_dims_of d dvs) (lazy (reuse_dims b))

let hyperplane (b : Ir.block) =
  match Dependence.block_distance_vectors b with
  | [] -> None
  | dvs ->
      let d = Ir.block_dim b in
      Some (first_row d (dep_dims_of d dvs) dvs)

let sequential_extent (dom : Domain.t) =
  match Domain.bounds dom 0 ~outer:[||] with
  | Some (lo, hi) -> hi - lo + 1
  | None -> 0

(* Every fact is derived once: [T] is inverted once, and the domain and
   every access map are rewritten with that one inverse. *)
let apply (b : Ir.block) : result =
  let d = Ir.block_dim b in
  let dvs = Dependence.block_distance_vectors b in
  let deps = dep_dims_of d dvs in
  let reuse = reuse_dims b in
  let tm = transform_of d dvs deps (Lazy.from_val reuse) in
  let identity = tm = Linalg.identity d in
  let inv =
    if identity then None
    else
      match Linalg.inverse_unimodular tm with
      | inv -> Some inv
      | exception Invalid_argument _ ->
          invalid_arg
            (Printf.sprintf "Reorder.apply: non-unimodular transform for %s"
               b.Ir.blk_name)
  in
  if not (Dependence.carried ~transform:tm dvs) then
    invalid_arg
      (Printf.sprintf "Reorder.apply: transform for %s violates a dependence"
         b.Ir.blk_name);
  let block =
    match inv with
    | None -> b
    | Some inv ->
        {
          b with
          Ir.blk_domain = Domain.preimage inv b.Ir.blk_domain;
          blk_edges =
            List.map
              (fun e ->
                { e with Ir.e_access = Access_map.precompose e.Ir.e_access inv })
              b.Ir.blk_edges;
        }
  in
  { transform = tm; block; dep_dims = deps; reuse_dims = reuse; wavefront = not identity }

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
