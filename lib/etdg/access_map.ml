type t = {
  matrix : int array array;
  offset : int array;
  dims_in : int;
}

let make ?in_dim matrix offset =
  if Array.length matrix <> Array.length offset then
    invalid_arg "Access_map.make: offset length must match matrix rows";
  let dims_in =
    match (in_dim, Array.length matrix) with
    | Some d, 0 -> d
    | Some d, _ ->
        if Array.length matrix.(0) <> d then
          invalid_arg "Access_map.make: in_dim disagrees with matrix width";
        d
    | None, 0 ->
        invalid_arg "Access_map.make: in_dim required for a row-less map"
    | None, _ -> Array.length matrix.(0)
  in
  { matrix; offset; dims_in }

let identity d =
  { matrix = Linalg.identity d; offset = Array.make d 0; dims_in = d }

let select ~m ~pairs ?offset () =
  let d =
    1 + List.fold_left (fun acc (_, bd) -> Stdlib.max acc bd) (-1) pairs
  in
  let matrix = Array.make_matrix m d 0 in
  List.iter
    (fun (row, col) ->
      if row < 0 || row >= m then invalid_arg "Access_map.select: bad buffer dim";
      matrix.(row).(col) <- 1)
    pairs;
  let offset =
    match offset with
    | Some o ->
        if Array.length o <> m then
          invalid_arg "Access_map.select: offset length mismatch";
        o
    | None -> Array.make m 0
  in
  { matrix; offset; dims_in = d }

let in_dim a = a.dims_in
let out_dim a = Array.length a.matrix

let apply a t =
  if Array.length t <> a.dims_in then
    invalid_arg "Access_map.apply: iteration vector arity mismatch";
  if Array.length a.matrix = 0 then [||]
  else Linalg.vec_add (Linalg.mat_vec a.matrix t) a.offset

let compose outer inner =
  if in_dim outer <> out_dim inner then
    invalid_arg "Access_map.compose: dimension mismatch";
  {
    matrix = Linalg.matmul outer.matrix inner.matrix;
    offset = Linalg.vec_add (Linalg.mat_vec outer.matrix inner.offset) outer.offset;
    dims_in = inner.dims_in;
  }

let precompose a m =
  if Array.length a.matrix = 0 then a
  else { a with matrix = Linalg.matmul a.matrix m }

let after_transform a tm =
  match Linalg.inverse_unimodular tm with
  | inv -> precompose a inv
  | exception Invalid_argument _ ->
      invalid_arg "Access_map.after_transform: matrix is not unimodular"

let reuse_directions a = Linalg.null_space a.matrix

let equal a b =
  a.matrix = b.matrix && a.offset = b.offset && a.dims_in = b.dims_in

let pp fmt a =
  Format.fprintf fmt "@[<v>%a offset=[%s]@]" Linalg.pp_mat a.matrix
    (String.concat ","
       (Array.to_list (Array.map string_of_int a.offset)))
