/* Native GEMM accumulation for Tensor.matmul_into (non-transposed) and
   Tensor.matmul_packed_into.

   The stub computes dst[i,j] += alpha * a[i,p] * b[p,j] with the exact
   per-element float sequence of the OCaml reference loop in tensor.ml:
   contributions are added in ascending p, each as
   acc + (alpha * a[i,p]) * b[p,j], and a p with alpha * a[i,p] == 0 is
   skipped.  Vectorizing across output columns never reorders one
   element's sum, and the build passes -ffp-contract=off, so no multiply
   and add are fused.  Results are therefore bitwise equal to the OCaml
   loop as long as no NaN meets a NaN: a compiler may swap the operands
   of a commutative add or multiply, and x86 keeps the first operand's
   payload.  Any NaN that enters the sum stays in the output, so the
   stub returns the number of NaNs in dst and the OCaml caller re-runs
   the reference loop whenever that count is non-zero.

   The kernel is cloned per ISA (AVX-512F, AVX2, baseline x86-64) and
   the clone is picked once, when the library is loaded.

   Shape checks, the alias check, beta and the epilogue stay in OCaml;
   the stub only accumulates. */

#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* One accumulator block: a j-tile of one dst row, held in registers
   across the whole p loop (4 zmm, 8 ymm or 16 xmm registers). */
#define JT 32
/* Tail tiles for widths that are not a multiple of JT. */
#define JT_TAIL 8

#define TILE(W)                                                           \
  static inline __attribute__((always_inline)) void tile_##W(             \
      double *restrict d, const double *restrict a,                       \
      const double *restrict b, long ldb, long k, double alpha)           \
  {                                                                       \
    double acc[W];                                                        \
    for (int j = 0; j < W; j++) acc[j] = d[j];                            \
    for (long p = 0; p < k; p++) {                                        \
      double av = alpha * a[p];                                           \
      if (av != 0.0) {                                                    \
        const double *bp = b + p * ldb;                                   \
        for (int j = 0; j < W; j++) acc[j] = acc[j] + av * bp[j];         \
      }                                                                   \
    }                                                                     \
    for (int j = 0; j < W; j++) d[j] = acc[j];                            \
  }

TILE(32)
TILE(8)

/* Fewer than JT_TAIL columns. */
static inline __attribute__((always_inline)) void
tile_narrow(double *restrict d, const double *restrict a,
            const double *restrict b, long ldb, long k, long w, double alpha)
{
  for (long p = 0; p < k; p++) {
    double av = alpha * a[p];
    if (av != 0.0) {
      const double *bp = b + p * ldb;
      for (long j = 0; j < w; j++) d[j] = d[j] + av * bp[j];
    }
  }
}

/* d[i, 0..w) += alpha * a[i, 0..k) @ b[0..k, 0..w) for i < m, with row
   strides ldd, lda and ldb. */
__attribute__((target_clones("avx512f", "avx2", "default"))) void
ft_gemm_block(double *restrict d, long ldd, const double *restrict a,
              long lda, const double *restrict b, long ldb, long m, long k,
              long w, double alpha)
{
  for (long i = 0; i < m; i++) {
    double *di = d + i * ldd;
    const double *ai = a + i * lda;
    long j = 0;
    for (; j + JT <= w; j += JT) tile_32(di + j, ai, b + j, ldb, k, alpha);
    for (; j + JT_TAIL <= w; j += JT_TAIL)
      tile_8(di + j, ai, b + j, ldb, k, alpha);
    if (j < w) tile_narrow(di + j, ai, b + j, ldb, k, w - j, alpha);
  }
}

static intnat count_nans(const double *d, long len)
{
  intnat nans = 0;
  for (long i = 0; i < len; i++) nans += d[i] != d[i];
  return nans;
}

/* The contraction blocking of the OCaml loop (tensor.ml).  b is a
   row-major [k, n] operand starting boff doubles into its buffer: 0 for
   a tensor, the aligned start of the copy for a Tensor.pack_b. */
#define KC 256

intnat ft_gemm_acc(value vd, value va, value vb, intnat boff, intnat m,
                   intnat k, intnat n, double alpha)
{
  double *d = (double *)Caml_ba_data_val(vd);
  const double *a = (const double *)Caml_ba_data_val(va);
  const double *b = (const double *)Caml_ba_data_val(vb) + boff;
  for (long pp = 0; pp < k; pp += KC) {
    long ek = k - pp < KC ? k - pp : KC;
    ft_gemm_block(d, n, a + pp, k, b + pp * n, n, m, ek, n, alpha);
  }
  return count_nans(d, m * n);
}

value ft_gemm_acc_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(ft_gemm_acc(argv[0], argv[1], argv[2], Long_val(argv[3]),
                              Long_val(argv[4]), Long_val(argv[5]),
                              Long_val(argv[6]), Double_val(argv[7])));
}

/* How many doubles to skip from the start of a buffer to reach a 64-byte
   boundary: where Tensor.pack_b starts its copy. */
intnat ft_align_pad(value vb)
{
  uintptr_t addr = (uintptr_t)Caml_ba_data_val(vb);
  return (intnat)(((64 - addr % 64) % 64) / sizeof(double));
}

value ft_align_pad_byte(value vb) { return Val_long(ft_align_pad(vb)); }
