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

let row_at a r t =
  let row = a.matrix.(r) in
  let acc = ref a.offset.(r) in
  for j = 0 to Array.length row - 1 do
    acc := !acc + (row.(j) * t.(j))
  done;
  !acc

(* A linear function of independently ranging variables attains its
   extremes coordinatewise, so min/max come straight off the
   coefficient signs. *)
let row_range row off ext =
  let lo = ref off and hi = ref off in
  Array.iteri
    (fun j c ->
      let l, h = ext.(j) in
      (* h is exclusive; a non-empty box has l <= h - 1 *)
      if c > 0 then begin
        lo := !lo + (c * l);
        hi := !hi + (c * (h - 1))
      end
      else if c < 0 then begin
        lo := !lo + (c * (h - 1));
        hi := !hi + (c * l)
      end)
    row;
  (!lo, !hi)

let regular a =
  Array.length a.offset = Array.length a.matrix
  && Array.for_all (fun row -> Array.length row = a.dims_in) a.matrix

let corners_inside a ~dims ext =
  let inside = ref true in
  for r = 0 to Stdlib.min (Array.length a.matrix) (Array.length dims) - 1 do
    let lo, hi = row_range a.matrix.(r) a.offset.(r) ext in
    if lo < 0 || hi >= dims.(r) then inside := false
  done;
  !inside

exception Outside of int * int

let first_outside a ~dims ?box points =
  let check r v = if v < 0 || v >= dims.(r) then raise (Outside (r, v)) in
  let regular = regular a in
  let corners_fit =
    match box with
    | Some ext when regular -> corners_inside a ~dims ext
    | _ -> false
  in
  match
    if corners_fit then ()
    else if regular then
      List.iter
        (fun p ->
          for r = 0 to Array.length a.matrix - 1 do
            check r (row_at a r p)
          done)
        points
    else List.iter (fun p -> Array.iteri check (apply a p)) points
  with
  | () -> None
  | exception Outside (r, v) -> Some (r, v)

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
