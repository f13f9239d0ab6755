// AVX2 kernel implementations. This translation unit is the only one
// compiled with -mavx2 (and deliberately NOT -mfma: a fused
// multiply-add would round differently from the scalar reference and
// break the bit-identity contract in simd.h — every product and sum
// here must round individually). On targets where the build does not
// enable AVX2 the file degrades to a nullptr provider.

#include "la/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace exea::la {
namespace {

constexpr size_t kLanes = 8;

// Reduces the lane accumulators of a[0..main) . b[0..main) and adds the
// tail [main, n) sequentially. The horizontal tree is the shape the
// scalar kernel replays: s_l = acc_l + acc_{l+4}, t_e = s_e + s_{e+2},
// sum = t_0 + t_1.
inline float FinishDot(__m256 acc, const float* a, const float* b,
                       size_t main, size_t n) {
  __m128 lo = _mm256_castps256_ps128(acc);
  __m128 hi = _mm256_extractf128_ps(acc, 1);
  __m128 s = _mm_add_ps(lo, hi);
  __m128 sh = _mm_movehl_ps(s, s);
  __m128 t = _mm_add_ps(s, sh);
  __m128 th = _mm_shuffle_ps(t, t, 0x1);
  float sum = _mm_cvtss_f32(_mm_add_ss(t, th));
  for (size_t i = main; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

float DotAvx2(const float* a, const float* b, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  size_t main = n - n % kLanes;
  for (size_t i = 0; i < main; i += kLanes) {
    __m256 va = _mm256_loadu_ps(a + i);
    __m256 vb = _mm256_loadu_ps(b + i);
    // mul + add, never fmadd (see file comment).
    acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
  }
  return FinishDot(acc, a, b, main, n);
}

// Four rows per pass share each query load; every row keeps its own
// accumulator and goes through FinishDot, so each output is the exact
// DotAvx2 result for that row. Leftover rows fall back to DotAvx2.
void DotRowsAvx2(const float* q, const float* rows, size_t count, size_t n,
                 float* out) {
  size_t main = n - n % kLanes;
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const float* r0 = rows + r * n;
    const float* r1 = r0 + n;
    const float* r2 = r1 + n;
    const float* r3 = r2 + n;
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    for (size_t i = 0; i < main; i += kLanes) {
      __m256 vq = _mm256_loadu_ps(q + i);
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(vq, _mm256_loadu_ps(r0 + i)));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(vq, _mm256_loadu_ps(r1 + i)));
      acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(vq, _mm256_loadu_ps(r2 + i)));
      acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(vq, _mm256_loadu_ps(r3 + i)));
    }
    out[r] = FinishDot(acc0, q, r0, main, n);
    out[r + 1] = FinishDot(acc1, q, r1, main, n);
    out[r + 2] = FinishDot(acc2, q, r2, main, n);
    out[r + 3] = FinishDot(acc3, q, r3, main, n);
  }
  for (; r < count; ++r) {
    out[r] = DotAvx2(q, rows + r * n, n);
  }
}

// Four doubles per vector; the arithmetic is purely elementwise
// (mul, sub, sub, one float round on store), so it is bit-identical to
// the scalar expression by construction.
void CslsAdjustRowAvx2(const float* sim, double r_src, const double* r_tgt,
                       float* dst, size_t n) {
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d rs = _mm256_set1_pd(r_src);
  size_t main = n - n % 4;
  for (size_t j = 0; j < main; j += 4) {
    __m256d sd = _mm256_cvtps_pd(_mm_loadu_ps(sim + j));
    __m256d v = _mm256_sub_pd(
        _mm256_sub_pd(_mm256_mul_pd(two, sd), rs), _mm256_loadu_pd(r_tgt + j));
    _mm_storeu_ps(dst + j, _mm256_cvtpd_ps(v));
  }
  for (size_t j = main; j < n; ++j) {
    dst[j] = static_cast<float>(2.0 * sim[j] - r_src - r_tgt[j]);
  }
}

constexpr SimdOps kAvx2Ops = {DotAvx2, DotRowsAvx2, CslsAdjustRowAvx2};

}  // namespace

const SimdOps* Avx2SimdOpsOrNull() {
  // CPUID probe, cached by the static. The build supporting AVX2 does
  // not imply the machine running the binary does.
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported ? &kAvx2Ops : nullptr;
}

}  // namespace exea::la

#else  // !defined(__AVX2__)

namespace exea::la {

const SimdOps* Avx2SimdOpsOrNull() { return nullptr; }

}  // namespace exea::la

#endif  // defined(__AVX2__)
