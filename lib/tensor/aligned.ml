type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

external alloc_aligned : int -> buffer = "ft_alloc_aligned"

external register_deserializer : int -> unit = "ft_register_deserializer"

external align_pad : buffer -> (int[@untagged])
  = "ft_align_pad_byte" "ft_align_pad"
[@@noalloc]

let floor = 64
let () = register_deserializer floor

let create n =
  if n < 0 then invalid_arg "Aligned.create: negative size"
  else if n >= floor then alloc_aligned n
  else Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n

let is_aligned b = align_pad b = 0
