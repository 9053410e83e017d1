/* Float64 bigarray payloads that start on a 64-byte boundary.

   The native kernels load full 64-byte vectors; a row that straddles
   two cache lines halves the GEMM's throughput.  glibc's malloc, which
   Bigarray.Array1.create uses, only guarantees 16 bytes.

   ft_alloc_aligned builds the bigarray exactly as caml_ba_alloc does,
   with the payload from posix_memalign instead of malloc: a custom
   block of caml_ba_ops carrying CAML_BA_MANAGED, so caml_ba_finalize
   frees the payload, allocated through caml_alloc_custom_mem, so the
   GC is told the payload's size and paces the major heap by it.  The
   result is an ordinary Bigarray.Array1: Marshal, sub, blit and
   equality treat it like any other.

   A float64 bigarray read back by Marshal gets its payload from the
   malloc in caml_ba_deserialize.  ft_register_deserializer registers
   a copy of caml_ba_ops under the same identifier whose deserializer
   then moves such a payload to a 64-byte boundary; the runtime looks
   up the most recent registration first, so Marshal finds this one.
   The bytes written and read are unchanged. */

#define CAML_INTERNALS
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/custom.h>
#include <caml/fail.h>

#define ALIGN 64

/* Aligned.floor: the least element count that is aligned. */
static uintnat floor_elts;

value ft_alloc_aligned(value vn)
{
  intnat n = Long_val(vn);
  uintnat bytes = (uintnat)n * sizeof(double);
  void *data = NULL;
  if (posix_memalign(&data, ALIGN, bytes == 0 ? ALIGN : bytes) != 0)
    caml_raise_out_of_memory();
  value res = caml_alloc_custom_mem(&caml_ba_ops,
                                    SIZEOF_BA_ARRAY + sizeof(intnat), bytes);
  struct caml_ba_array *b = Caml_ba_array_val(res);
  b->data = data;
  b->num_dims = 1;
  b->flags = CAML_BA_FLOAT64 | CAML_BA_C_LAYOUT | CAML_BA_MANAGED;
  b->proxy = NULL;
  b->dim[0] = n;
  return res;
}

/* How many doubles lie between the start of a buffer and the next
   64-byte boundary: 0 when it starts on one. */
intnat ft_align_pad(value vb)
{
  uintptr_t addr = (uintptr_t)Caml_ba_data_val(vb);
  return (intnat)(((ALIGN - addr % ALIGN) % ALIGN) / sizeof(double));
}

value ft_align_pad_byte(value vb) { return Val_long(ft_align_pad(vb)); }

static struct custom_operations ft_ba_ops;

static uintnat ft_ba_deserialize(void *dst)
{
  uintnat size = caml_ba_deserialize(dst);
  struct caml_ba_array *b = dst;
  uintnat n = caml_ba_num_elts(b);
  void *data;
  /* on a failed allocation the payload stays where it is */
  if ((b->flags & CAML_BA_KIND_MASK) == CAML_BA_FLOAT64 && n >= floor_elts
      && (uintptr_t)b->data % ALIGN != 0
      && posix_memalign(&data, ALIGN, n * sizeof(double)) == 0) {
    memcpy(data, b->data, n * sizeof(double));
    free(b->data);
    b->data = data;
  }
  return size;
}

value ft_register_deserializer(value vfloor)
{
  floor_elts = Long_val(vfloor);
  ft_ba_ops = caml_ba_ops;
  ft_ba_ops.deserialize = ft_ba_deserialize;
  caml_register_custom_operations(&ft_ba_ops);
  return Val_unit;
}
