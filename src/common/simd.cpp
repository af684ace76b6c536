#include "common/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PDAC_SIMD_X86 1
#else
#define PDAC_SIMD_X86 0
#endif

namespace pdac::simd {
namespace {

// ---------------------------------------------------------------------------
// Portable tier: 4-way unrolled with independent partial sums.  The loop
// bodies are written so -O2/-O3 autovectorization takes them on any
// baseline ISA (SSE2/NEON); with no vector unit they are still ~4-way
// ILP.  The horizontal fold (a0+a1)+(a2+a3) and trailing scalar tail are
// the fixed reassociation policy shared with the AVX2 tier's fold.
// ---------------------------------------------------------------------------

double dot_portable(const double* x, const double* y, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    a0 += x[p + 0] * y[p + 0];
    a1 += x[p + 1] * y[p + 1];
    a2 += x[p + 2] * y[p + 2];
    a3 += x[p + 3] * y[p + 3];
  }
  double acc = (a0 + a1) + (a2 + a3);
  for (; p < n; ++p) acc += x[p] * y[p];
  return acc;
}

/// dot_self's portable body, resumable: state[0..3] are the four partial
/// sums over x[0, m − m mod 4).  The 4-element steps continue from there;
/// the fold and the tail work on copies, so the state stays at the last
/// whole block.
double dot_self_portable(const double* x, std::size_t m, std::size_t n, double* state) {
  double a0 = state[0], a1 = state[1], a2 = state[2], a3 = state[3];
  std::size_t p = m - m % 4;
  for (; p + 4 <= n; p += 4) {
    a0 += x[p + 0] * x[p + 0];
    a1 += x[p + 1] * x[p + 1];
    a2 += x[p + 2] * x[p + 2];
    a3 += x[p + 3] * x[p + 3];
  }
  state[0] = a0;
  state[1] = a1;
  state[2] = a2;
  state[3] = a3;
  double acc = (a0 + a1) + (a2 + a3);
  for (; p < n; ++p) acc += x[p] * x[p];
  return acc;
}

void dot4_portable(const double* x, const double* const y[4], std::size_t n,
                   double out[4]) {
  for (int b = 0; b < 4; ++b) out[b] = dot_portable(x, y[b], n);
}

/// serial_dots' reference loop, continued from position p with running
/// sum a: the portable body and the AVX2 body's tail.
double serial_dot_from(const double* x, const double* y, std::size_t p, std::size_t n,
                       double a) {
  for (; p < n; ++p) a += x[p] * y[p];
  return a;
}

/// add_rows' reference loop over positions [p, n): the portable body and
/// the AVX2 body's tail.
void add_rows_from(const double* rows, std::size_t stride, std::size_t count, std::size_t p,
                   std::size_t n, double* acc) {
  for (std::size_t r = 0; r < count; ++r) {
    const double* const row = rows + r * stride;
    for (std::size_t q = p; q < n; ++q) acc[q] += row[q];
  }
}

#if PDAC_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2+FMA tier.  Compiled with per-function target attributes so the
// translation unit builds under the portable baseline flags; only ever
// called after __builtin_cpu_supports confirms both features.
// ---------------------------------------------------------------------------

__attribute__((target("avx2,fma")))
double hfold(__m256d v) {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, v);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

__attribute__((target("avx2,fma")))
double dot_avx2(const double* x, const double* y, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t p = 0;
  for (; p + 8 <= n; p += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + p), _mm256_loadu_pd(y + p), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + p + 4), _mm256_loadu_pd(y + p + 4), acc1);
  }
  if (p + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + p), _mm256_loadu_pd(y + p), acc0);
    p += 4;
  }
  double acc = hfold(_mm256_add_pd(acc0, acc1));
  for (; p < n; ++p) acc += x[p] * y[p];
  return acc;
}

/// dot_self's AVX2 body, resumable: state holds the two FMA chains over
/// x[0, m − m mod 8).  The 8-element steps continue from there; the
/// 4-element step, the fold and the tail work on copies, so the state
/// stays at the last whole block.
__attribute__((target("avx2,fma")))
double dot_self_avx2(const double* x, std::size_t m, std::size_t n, double* state) {
  __m256d acc0 = _mm256_loadu_pd(state);
  __m256d acc1 = _mm256_loadu_pd(state + 4);
  std::size_t p = m - m % 8;
  for (; p + 8 <= n; p += 8) {
    const __m256d v0 = _mm256_loadu_pd(x + p);
    const __m256d v1 = _mm256_loadu_pd(x + p + 4);
    acc0 = _mm256_fmadd_pd(v0, v0, acc0);
    acc1 = _mm256_fmadd_pd(v1, v1, acc1);
  }
  _mm256_storeu_pd(state, acc0);
  _mm256_storeu_pd(state + 4, acc1);
  if (p + 4 <= n) {
    const __m256d v0 = _mm256_loadu_pd(x + p);
    acc0 = _mm256_fmadd_pd(v0, v0, acc0);
    p += 4;
  }
  double acc = hfold(_mm256_add_pd(acc0, acc1));
  for (; p < n; ++p) acc += x[p] * x[p];
  return acc;
}

/// dot_avx2's blocking run for four columns at once: each column keeps its
/// own two FMA chains, 4-element step, fold and tail, so out[b] equals
/// dot_avx2(x, y[b], n) bit for bit; only the loads of x are shared.
__attribute__((target("avx2,fma")))
void dot4_avx2(const double* x, const double* const y[4], std::size_t n,
               double out[4]) {
  __m256d acc0[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                     _mm256_setzero_pd(), _mm256_setzero_pd()};
  __m256d acc1[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                     _mm256_setzero_pd(), _mm256_setzero_pd()};
  std::size_t p = 0;
  for (; p + 8 <= n; p += 8) {
    const __m256d x0 = _mm256_loadu_pd(x + p);
    const __m256d x1 = _mm256_loadu_pd(x + p + 4);
    for (int b = 0; b < 4; ++b) {
      acc0[b] = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y[b] + p), acc0[b]);
      acc1[b] = _mm256_fmadd_pd(x1, _mm256_loadu_pd(y[b] + p + 4), acc1[b]);
    }
  }
  if (p + 4 <= n) {
    const __m256d x0 = _mm256_loadu_pd(x + p);
    for (int b = 0; b < 4; ++b) {
      acc0[b] = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y[b] + p), acc0[b]);
    }
    p += 4;
  }
  for (int b = 0; b < 4; ++b) {
    double s = hfold(_mm256_add_pd(acc0[b], acc1[b]));
    for (std::size_t q = p; q < n; ++q) s += x[q] * y[b][q];
    out[b] = s;
  }
}

/// serial_dots over 4·kGroups chains, one chain per lane of kGroups
/// accumulators.  Per 4-position step, one multiply forms four consecutive
/// products of one chain; a 4×4 transpose puts them in position order
/// across the group's chains, and the adds go one position at a time, so
/// each lane repeats its chain's scalar sequence.  Targets AVX2 without
/// FMA so the multiply and the add cannot fuse.  The tail continues the
/// first `live` lanes in the reference loop; the others are dropped.
template <std::size_t kGroups>
__attribute__((target("avx2")))
void serial_dots_avx2(const double* const* x, const double* const* y, std::size_t n,
                      std::size_t live, double* out) {
  __m256d acc[kGroups];
  for (std::size_t g = 0; g < kGroups; ++g) acc[g] = _mm256_setzero_pd();
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    for (std::size_t g = 0; g < kGroups; ++g) {
      const double* const* gx = x + 4 * g;
      const double* const* gy = y + 4 * g;
      // Row c: chain c's products at positions p..p+3.
      const __m256d r0 = _mm256_mul_pd(_mm256_loadu_pd(gx[0] + p), _mm256_loadu_pd(gy[0] + p));
      const __m256d r1 = _mm256_mul_pd(_mm256_loadu_pd(gx[1] + p), _mm256_loadu_pd(gy[1] + p));
      const __m256d r2 = _mm256_mul_pd(_mm256_loadu_pd(gx[2] + p), _mm256_loadu_pd(gy[2] + p));
      const __m256d r3 = _mm256_mul_pd(_mm256_loadu_pd(gx[3] + p), _mm256_loadu_pd(gy[3] + p));
      // Column q: position p+q of chains 0..3.
      const __m256d e01 = _mm256_unpacklo_pd(r0, r1);  // r0[0] r1[0] r0[2] r1[2]
      const __m256d o01 = _mm256_unpackhi_pd(r0, r1);  // r0[1] r1[1] r0[3] r1[3]
      const __m256d e23 = _mm256_unpacklo_pd(r2, r3);
      const __m256d o23 = _mm256_unpackhi_pd(r2, r3);
      acc[g] = _mm256_add_pd(acc[g], _mm256_permute2f128_pd(e01, e23, 0x20));
      acc[g] = _mm256_add_pd(acc[g], _mm256_permute2f128_pd(o01, o23, 0x20));
      acc[g] = _mm256_add_pd(acc[g], _mm256_permute2f128_pd(e01, e23, 0x31));
      acc[g] = _mm256_add_pd(acc[g], _mm256_permute2f128_pd(o01, o23, 0x31));
    }
  }
  alignas(32) double lane[4 * kGroups] = {};
  for (std::size_t g = 0; g < kGroups; ++g) _mm256_store_pd(lane + 4 * g, acc[g]);
  for (std::size_t c = 0; c < live; ++c) out[c] = serial_dot_from(x[c], y[c], p, n, lane[c]);
}

/// add_rows over the whole 8-position blocks of [0, n); returns how many
/// positions it folded (the caller finishes the tail with the reference).
/// A block's two accumulators take every row's add in ascending row order.
/// Targets AVX2 without FMA.
__attribute__((target("avx2")))
std::size_t add_rows_avx2(const double* rows, std::size_t stride, std::size_t count,
                          std::size_t n, double* acc) {
  std::size_t p = 0;
  for (; p + 8 <= n; p += 8) {
    __m256d a0 = _mm256_loadu_pd(acc + p);
    __m256d a1 = _mm256_loadu_pd(acc + p + 4);
    for (std::size_t r = 0; r < count; ++r) {
      const double* const row = rows + r * stride + p;
      a0 = _mm256_add_pd(a0, _mm256_loadu_pd(row));
      a1 = _mm256_add_pd(a1, _mm256_loadu_pd(row + 4));
    }
    _mm256_storeu_pd(acc + p, a0);
    _mm256_storeu_pd(acc + p + 4, a1);
  }
  return p;
}

/// quantize_code over the whole 4-element blocks of in[0, n); returns how
/// many elements it wrote (the caller finishes the tail with the
/// reference).  Targets AVX2 without FMA so the compiler cannot fuse
/// y − trunc(y) with the product y (see header).
__attribute__((target("avx2")))
std::size_t quantize_avx2(const double* in, std::size_t n, double divisor,
                          std::int32_t max_code, std::int32_t* codes) {
  const __m256d lo = _mm256_set1_pd(-1.0);
  const __m256d hi = _mm256_set1_pd(1.0);
  const __m256d scale = _mm256_set1_pd(static_cast<double>(max_code));
  const __m256d div = _mm256_set1_pd(divisor);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d minus_half = _mm256_set1_pd(-0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const bool divide = divisor != 1.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d r = _mm256_loadu_pd(in + i);
    if (divide) r = _mm256_div_pd(r, div);
    // std::clamp(r, −1, 1): max/min return their SECOND operand when
    // either is NaN, so r goes second and a NaN passes through both.
    r = _mm256_min_pd(hi, _mm256_max_pd(lo, r));
    const __m256d y = _mm256_mul_pd(r, scale);
    const __m256d t = _mm256_round_pd(y, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d f = _mm256_sub_pd(y, t);  // exact: |y| ≤ 32767
    // lround: one step away from zero when |f| ≥ ½.  NaN compares false.
    const __m256d up = _mm256_and_pd(_mm256_cmp_pd(f, half, _CMP_GE_OQ), one);
    const __m256d down = _mm256_and_pd(_mm256_cmp_pd(f, minus_half, _CMP_LE_OQ), one);
    __m256d code = _mm256_add_pd(t, _mm256_sub_pd(up, down));
    // NaN → +0.0, the reference's code 0; the conversion then only ever
    // sees integral values in [−max_code, max_code], where the int32
    // clamp is a no-op.
    code = _mm256_and_pd(code, _mm256_cmp_pd(y, y, _CMP_ORD_Q));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + i), _mm256_cvttpd_epi32(code));
  }
  return i;
}

bool detect_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#else

bool detect_avx2_fma() { return false; }

#endif  // PDAC_SIMD_X86

const bool g_avx2 = detect_avx2_fma();

}  // namespace

const char* active_isa() { return g_avx2 ? "avx2+fma" : "portable"; }

bool has_fast_path() { return g_avx2; }

double dot(const double* x, const double* y, std::size_t n) {
#if PDAC_SIMD_X86
  if (g_avx2) return dot_avx2(x, y, n);
#endif
  return dot_portable(x, y, n);
}

double dot_self(const double* x, std::size_t n) {
  double state[kDotSelfState] = {};
  return dot_self_resume(x, 0, n, state);
}

double dot_self_resume(const double* x, std::size_t m, std::size_t n, double* state) {
#if PDAC_SIMD_X86
  if (g_avx2) return dot_self_avx2(x, m, n, state);
#endif
  return dot_self_portable(x, m, n, state);
}

void dot4(const double* x, const double* const y[4], std::size_t n, double out[4]) {
#if PDAC_SIMD_X86
  if (g_avx2) {
    dot4_avx2(x, y, n, out);
    return;
  }
#endif
  dot4_portable(x, y, n, out);
}

void serial_dots(const double* const* x, const double* const* y, std::size_t chains,
                 std::size_t n, double* out) {
#if PDAC_SIMD_X86
  if (g_avx2) {
    std::size_t c = 0;
    for (; c + 8 <= chains; c += 8) serial_dots_avx2<2>(x + c, y + c, n, 8, out + c);
    const std::size_t left = chains - c;
    if (left == 0) return;
    // Leftover chains fill a group of 4 or 8; spare lanes repeat the last
    // real chain and their results are dropped.
    const double* px[8] = {};
    const double* py[8] = {};
    for (std::size_t l = 0; l < 8; ++l) {
      px[l] = x[c + std::min(l, left - 1)];
      py[l] = y[c + std::min(l, left - 1)];
    }
    if (left <= 4) {
      serial_dots_avx2<1>(px, py, n, left, out + c);
    } else {
      serial_dots_avx2<2>(px, py, n, left, out + c);
    }
    return;
  }
#endif
  for (std::size_t c = 0; c < chains; ++c) out[c] = serial_dot_from(x[c], y[c], 0, n, 0.0);
}

void add_rows(const double* rows, std::size_t stride, std::size_t count, std::size_t n,
              double* acc) {
  std::size_t p = 0;
#if PDAC_SIMD_X86
  if (g_avx2) p = add_rows_avx2(rows, stride, count, n, acc);
#endif
  add_rows_from(rows, stride, count, p, n, acc);
}

void quantize(const double* in, std::size_t n, double divisor, std::int32_t max_code,
              std::int32_t* codes) {
  std::size_t i = 0;
#if PDAC_SIMD_X86
  if (g_avx2) i = quantize_avx2(in, n, divisor, max_code, codes);
#endif
  for (; i < n; ++i) codes[i] = quantize_code(in[i] / divisor, max_code);
}

}  // namespace pdac::simd
