/* Native elementwise kernels for Tensor.binop_into, unop_into,
   add_bias_act_into, mul_tanh_into, row_max_into, row_sum_into and
   softmax_into.

   Each computes, per element, the exact float sequence of its OCaml
   reference loop in tensor.ml, and exp, tanh and sigmoid are
   Tensor.Fmath's sequences written again in C (reading Fmath's own
   exp table): where Fmath branches, these compute every branch and
   select, so one loop vectorizes across elements without changing any
   element's value.  The build passes
   -ffp-contract=off, so no multiply and add are fused, and
   -fno-trapping-math, which lets gcc turn the selects into blends; it
   changes no value, only whether floating-point exception flags are
   raised.  Reductions (the row sums, the row max and softmax's
   normalizer) keep the reference's ascending order.

   A compiler may swap the operands of a commutative add or multiply,
   and x86 keeps the first operand's payload when both are NaN, so a
   binary op whose two operands are both NaN is the one case where the
   tiers could differ.  The binary kernels scan for such a pair before
   writing anything (dst may alias an operand) and return 1 without
   writing when one exists; softmax stops before the first row that
   holds a NaN and row_sum counts NaN results.  The OCaml caller then
   runs the reference loop on what is left.  A select (Bmax, relu, the
   row max) and a unary op never meet two NaNs.

   Each entry point is cloned per ISA (AVX-512F, AVX2, baseline x86-64)
   and the clone is picked once, when the library is loaded.  Shape
   checks stay in OCaml.  dst is either the full-shape operand itself or
   disjoint from every operand. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#define INLINE static inline __attribute__((always_inline))
#define IVDEP _Pragma("GCC ivdep")
#define DATA(v) ((double *)Caml_ba_data_val(v))

INLINE double from_bits(uint64_t u)
{
  double d;
  memcpy(&d, &u, sizeof d);
  return d;
}

INLINE uint64_t to_bits(double d)
{
  uint64_t u;
  memcpy(&u, &d, sizeof u);
  return u;
}

INLINE double fabs_bits(double x)
{
  return from_bits(to_bits(x) & 0x7fffffffffffffffULL);
}

/* Tensor.Fmath's constants; see tensor.ml for where they come from. */
#define INVLN2N 0x1.71547652b82fep+7
#define LN2HIN 0x1.62e42fef80000p-8
#define LN2LON 0x1.1cf79abc9e3b4p-43
#define C3 0x1.5555555555555p-3
#define C4 0x1.5555555555555p-5
#define C5 0x1.1111111111111p-7
#define SHIFT 6755399441055744.0
#define EXP_OVERFLOW 7.09782712893383973096e+02
#define EXP_UNDERFLOW -7.45133219101941108420e+02
#define TP0 -9.64399179425052238628e-1
#define TP1 -9.92877231001918586564e1
#define TP2 -1.61468768441708447952e3
#define TQ0 1.12811678491632931402e2
#define TQ1 2.23548839060100448583e3
#define TQ2 4.84406305325125486048e3
#define TANH_TINY 0x1p-28
#define TANH_SMALL 0.625
#define TANH_ONE 22.0

/* Fmath.exp_table: the [hi; tail] pairs of 2^(j/128), registered once
   by tensor.ml when the module is initialised. */
static const double *exp_table;

value ft_set_exp_table(value t)
{
  exp_table = DATA(t);
  return Val_unit;
}

/* Fmath.exp.  The index is read from the bits of x*128/ln2 + SHIFT
   rather than converted from kd, and 2^k1, 2^k2 are built from bits
   rather than looked up: both give the same exact integers and powers
   of two. */
INLINE double ft_exp(double x)
{
  double kt = x * INVLN2N + SHIFT;
  double kd = kt - SHIFT;
  int64_t ki = (int64_t)(to_bits(kt) - to_bits(SHIFT));
  double r = x - kd * LN2HIN - kd * LN2LON;
  int64_t j = 2 * (ki & 127), k = ki >> 7;
  double r2 = r * r;
  double tmp = exp_table[j + 1] + r + r2 * (0.5 + r * C3)
               + r2 * r2 * (C4 + r * C5);
  int64_t k1 = k >> 1, k2 = k - k1;
  double s = exp_table[j] * from_bits((uint64_t)(k1 + 1023) << 52);
  double res = (s + s * tmp) * from_bits((uint64_t)(k2 + 1023) << 52);
  res = x > EXP_OVERFLOW ? __builtin_inf() : res;
  res = x < EXP_UNDERFLOW ? 0.0 : res;
  return x != x ? x : res;
}

/* Fmath.tanh.  Both ranges share one division: the rational tail
   x*s*P/Q below TANH_SMALL, 2/(e+1) above. */
INLINE double ft_tanh(double x)
{
  double z = fabs_bits(x);
  double s = x * x;
  double p = ((TP0 * s + TP1) * s + TP2);
  double q = (((s + TQ0) * s + TQ1) * s + TQ2);
  double e = ft_exp(z + z);
  int small = z < TANH_SMALL;
  double f = (small ? x * s * p : 2.0) / (small ? q : e + 1.0);
  double t = 1.0 - f;
  double res = small ? x + f : (x < 0.0 ? -t : t);
  res = z > TANH_ONE ? (x < 0.0 ? -1.0 : 1.0) : res;
  res = z < TANH_TINY ? x : res;
  return x != x ? x : res;
}

/* Fmath.sigmoid. */
INLINE double ft_sigmoid(double x)
{
  double e = ft_exp(-fabs_bits(x));
  double res = (x < 0.0 ? e : 1.0) / (1.0 + e);
  return x != x ? x : res;
}

/* Float.max's body, as tensor.ml's fmax restates it. */
INLINE double ft_max(double x, double y)
{
  int ysign = to_bits(y) >> 63, xsign = to_bits(x) >> 63;
  return (y > x || (!ysign && xsign)) ? (x != x ? x : y) : (y != y ? y : x);
}

INLINE int both_nan(double x, double y) { return (x != x) & (y != y); }

/* Opcodes, in the order of Tensor.bin_op and Tensor.un_op. */
enum { BADD, BSUB, BMUL, BDIV, BMAX };
enum { UTANH, USIGMOID, UEXP, UNEG, URELU, USCALE };

/* One [m, n] iteration space; operand X is read at
   X[r * Xrs + j * Xcs] with Xcs 0 (broadcast along the row) or 1.
   BODY sees x and y and assigns d[j]. */
#define BINARY_LOOP(BODY)                                             \
  for (long r = 0; r < m; r++) {                                      \
    double *dr = d + r * n;                                           \
    const double *ar = a + r * ars, *br = b + r * brs;                \
    if (acs && bcs) {                                                 \
      IVDEP for (long j = 0; j < n; j++) {                            \
        double x = ar[j], y = br[j];                                  \
        BODY;                                                         \
      }                                                               \
    } else if (acs) {                                                 \
      double y = br[0];                                               \
      IVDEP for (long j = 0; j < n; j++) {                            \
        double x = ar[j];                                             \
        BODY;                                                         \
      }                                                               \
    } else {                                                          \
      double x = ar[0];                                               \
      IVDEP for (long j = 0; j < n; j++) {                            \
        double y = br[j];                                             \
        BODY;                                                         \
      }                                                               \
    }                                                                 \
  }

CLONES static int
nan_pair(const double *a, long ars, long acs, const double *b, long brs,
         long bcs, long m, long n)
{
  int bad = 0;
  for (long r = 0; r < m; r++) {
    const double *ar = a + r * ars, *br = b + r * brs;
    if (acs && bcs)
      for (long j = 0; j < n; j++) bad |= both_nan(ar[j], br[j]);
    else if (acs)
      for (long j = 0; j < n; j++) bad |= both_nan(ar[j], br[0]);
    else
      for (long j = 0; j < n; j++) bad |= both_nan(ar[0], br[j]);
  }
  return bad;
}

CLONES static void
binop(intnat op, double *d, const double *a, long ars, long acs,
      const double *b, long brs, long bcs, long m, long n)
{
  switch (op) {
  case BADD: BINARY_LOOP(dr[j] = x + y); break;
  case BSUB: BINARY_LOOP(dr[j] = x - y); break;
  case BMUL: BINARY_LOOP(dr[j] = x * y); break;
  case BDIV: BINARY_LOOP(dr[j] = x / y); break;
  default: BINARY_LOOP(dr[j] = ft_max(x, y)); break;
  }
}

/* d <- a op b; returns 1, having written nothing, when an add, sub, mul
   or div would meet two NaNs. */
intnat ft_binop(intnat op, value vd, value va, intnat ars, intnat acs,
                value vb, intnat brs, intnat bcs, intnat m, intnat n)
{
  const double *a = DATA(va), *b = DATA(vb);
  if (op != BMAX && nan_pair(a, ars, acs, b, brs, bcs, m, n)) return 1;
  binop(op, DATA(vd), a, ars, acs, b, brs, bcs, m, n);
  return 0;
}

value ft_binop_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(ft_binop(Long_val(argv[0]), argv[1], argv[2],
                           Long_val(argv[3]), Long_val(argv[4]), argv[5],
                           Long_val(argv[6]), Long_val(argv[7]),
                           Long_val(argv[8]), Long_val(argv[9])));
}

#define UNARY_CASES(LOOP, ARG)                                        \
  switch (op) {                                                       \
  case UTANH: LOOP(ft_tanh(ARG)); break;                              \
  case USIGMOID: LOOP(ft_sigmoid(ARG)); break;                        \
  case UEXP: LOOP(ft_exp(ARG)); break;                                \
  case UNEG: LOOP(-(ARG)); break;                                     \
  case URELU: LOOP((ARG) > 0.0 ? (ARG) : 0.0); break;                 \
  default: LOOP(k * (ARG)); break;                                    \
  }

#define UNARY_LOOP(EXPR)                                              \
  IVDEP for (long i = 0; i < len; i++) {                              \
    double x = s[i];                                                  \
    d[i] = EXPR;                                                      \
  }

/* d <- op s; k is Uscale's factor. */
CLONES value ft_unop(intnat op, double k, value vd, value vs, intnat len)
{
  double *d = DATA(vd);
  const double *s = DATA(vs);
  UNARY_CASES(UNARY_LOOP, x)
  return Val_unit;
}

value ft_unop_byte(value op, value k, value vd, value vs, value len)
{
  return ft_unop(Long_val(op), Double_val(k), vd, vs, Long_val(len));
}

/* d <- act (d + bias), the bias read like binop's b operand. */
#define BIAS_LOOP(EXPR)                                               \
  {                                                                   \
    const double *a = d;                                              \
    long ars = n, acs = 1;                                            \
    BINARY_LOOP(double v = x + y; dr[j] = EXPR)                       \
  }

CLONES static void
bias_act(intnat act, double k, double *d, const double *b, long brs,
         long bcs, long m, long n)
{
  int op = (int)act;
  UNARY_CASES(BIAS_LOOP, v)
}

/* Returns 1, having written nothing, when d and the bias hold a NaN at
   the same position. */
intnat ft_bias_act(intnat act, double k, value vd, value vb, intnat brs,
                   intnat bcs, intnat m, intnat n)
{
  double *d = DATA(vd);
  const double *b = DATA(vb);
  if (nan_pair(d, n, 1, b, brs, bcs, m, n)) return 1;
  bias_act(act, k, d, b, brs, bcs, m, n);
  return 0;
}

value ft_bias_act_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(ft_bias_act(Long_val(argv[0]), Double_val(argv[1]),
                              argv[2], argv[3], Long_val(argv[4]),
                              Long_val(argv[5]), Long_val(argv[6]),
                              Long_val(argv[7])));
}

/* d <- a * tanh b; returns 1, having written nothing, when a and b hold
   a NaN at the same position. */
CLONES intnat ft_mul_tanh(value vd, value va, value vb, intnat len)
{
  double *d = DATA(vd);
  const double *a = DATA(va), *b = DATA(vb);
  int bad = 0;
  for (long i = 0; i < len; i++) bad |= both_nan(a[i], b[i]);
  if (bad) return 1;
  IVDEP for (long i = 0; i < len; i++) d[i] = a[i] * ft_tanh(b[i]);
  return 0;
}

value ft_mul_tanh_byte(value vd, value va, value vb, value len)
{
  return Val_long(ft_mul_tanh(vd, va, vb, Long_val(len)));
}

/* d[r] <- the max of row r of an [m, n] source, folded left to right. */
CLONES value ft_row_max(value vd, value vs, intnat m, intnat n)
{
  double *d = DATA(vd);
  const double *s = DATA(vs);
  for (long r = 0; r < m; r++) {
    const double *sr = s + r * n;
    double acc = sr[0];
    for (long j = 1; j < n; j++) acc = ft_max(acc, sr[j]);
    d[r] = acc;
  }
  return Val_unit;
}

value ft_row_max_byte(value vd, value vs, value m, value n)
{
  return ft_row_max(vd, vs, Long_val(m), Long_val(n));
}

/* d[r] <- the sum of row r, added left to right; returns the number of
   NaN sums. */
CLONES intnat ft_row_sum(value vd, value vs, intnat m, intnat n)
{
  double *d = DATA(vd);
  const double *s = DATA(vs);
  intnat nans = 0;
  for (long r = 0; r < m; r++) {
    const double *sr = s + r * n;
    double acc = sr[0];
    for (long j = 1; j < n; j++) acc = acc + sr[j];
    d[r] = acc;
    nans += acc != acc;
  }
  return nans;
}

value ft_row_sum_byte(value vd, value vs, value m, value n)
{
  return Val_long(ft_row_sum(vd, vs, Long_val(m), Long_val(n)));
}

/* Row-wise softmax of an [m, n] source; d may be the source.  Returns
   the first row holding a NaN, unwritten, or m when every row is done.
   The three passes are the reference's: the max, exp (v - max) with
   the normalizer summed left to right, then the divide. */
CLONES intnat ft_softmax(value vd, value vs, intnat m, intnat n)
{
  double *d = DATA(vd);
  const double *s = DATA(vs);
  for (long r = 0; r < m; r++) {
    const double *sr = s + r * n;
    double *dr = d + r * n;
    double mx = sr[0];
    int nan = sr[0] != sr[0];
    for (long j = 1; j < n; j++) {
      double v = sr[j];
      mx = v > mx ? v : mx;
      nan |= v != v;
    }
    if (nan) return r;
    IVDEP for (long j = 0; j < n; j++) dr[j] = ft_exp(sr[j] - mx);
    double z = 0.0;
    for (long j = 0; j < n; j++) z = z + dr[j];
    IVDEP for (long j = 0; j < n; j++) dr[j] = dr[j] / z;
  }
  return m;
}

value ft_softmax_byte(value vd, value vs, value m, value n)
{
  return Val_long(ft_softmax(vd, vs, Long_val(m), Long_val(n)));
}
