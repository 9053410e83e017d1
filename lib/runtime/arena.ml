module A = Bigarray.Array1

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t

type t = { data : buffer }

let create ~floats =
  let data = Aligned.create (Stdlib.max 0 floats) in
  A.fill data 0.0;
  { data }

let floats a = A.dim a.data
let bytes a = 8 * A.dim a.data

let view a ~off ~len =
  if off < 0 || len < 0 || off + len > A.dim a.data then
    invalid_arg
      (Printf.sprintf "Arena.view: [%d,%d) exceeds %d floats" off (off + len)
         (A.dim a.data))
  else A.sub a.data off len
