let distance_vectors ?strides (ops : Expr.soac_kind array) =
  let d = Array.length ops in
  let strides =
    match strides with
    | Some s ->
        if Array.length s <> d then
          invalid_arg "Dependence.distance_vectors: stride arity mismatch";
        s
    | None -> Array.make d 1
  in
  let vecs = ref [] in
  for i = d - 1 downto 0 do
    if Expr.is_aggregate ops.(i) then begin
      let v = Array.make d 0 in
      (* right-directional aggregates depend on the *next* storage
         index: the distance is negative in storage coordinates *)
      v.(i) <-
        (if Expr.is_r_directional ops.(i) then -strides.(i) else strides.(i));
      vecs := v :: !vecs
    end
  done;
  !vecs

(* Refine distances from the block's own state reads: a self-edge
   reading the written buffer at offset -s along aggregate dim i means
   the true dependence distance there is s. *)
let block_distance_vectors (b : Ir.block) =
  let d = Ir.block_dim b in
  let written = List.map (fun e -> e.Ir.e_buffer) (Ir.writes b) in
  let strides = Array.make d 1 in
  List.iter
    (fun e ->
      if e.Ir.e_dir = Ir.Read && List.mem e.Ir.e_buffer written then begin
        let a = e.Ir.e_access in
        Array.iteri
          (fun row off ->
            if off <> 0 then
              (* which block dim drives this buffer row? *)
              for col = 0 to d - 1 do
                if a.Access_map.matrix.(row).(col) <> 0 && Expr.is_aggregate b.Ir.blk_ops.(col)
                then strides.(col) <- Stdlib.max strides.(col) (abs off)
              done)
          a.Access_map.offset
      end)
    b.Ir.blk_edges;
  distance_vectors ~strides b.Ir.blk_ops

let legal_schedule a dvs =
  List.for_all
    (fun dv ->
      let dot = ref 0 in
      Array.iteri (fun i x -> dot := !dot + (a.(i) * x)) dv;
      !dot >= 1)
    dvs

let lex_positive v =
  let rec go i =
    if i >= Array.length v then false
    else if v.(i) > 0 then true
    else if v.(i) < 0 then false
    else go (i + 1)
  in
  go 0

let carried ~transform dvs =
  List.for_all (fun dv -> lex_positive (Linalg.mat_vec transform dv)) dvs
