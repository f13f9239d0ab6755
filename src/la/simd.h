// Runtime-dispatched SIMD kernels for the similarity hot loops.
//
// The dispatch contract is strict bit-identity: for any input, every
// kernel produces the same bytes at every SIMD level. The scalar
// fallback is NOT a naive sequential loop — it mirrors the AVX2
// arithmetic DAG exactly (eight strided lane accumulators over 8-float
// chunks, the same pairwise tree reduction as the vector horizontal
// add, then the scalar tail added sequentially). This is what lets
// tests/simd_test.cc assert byte equality instead of tolerances, and
// what keeps the repo-wide determinism contract (DESIGN.md §11)
// independent of the machine the binary lands on, given a fixed
// EXEA_SIMD setting.
//
// Level selection happens once, on first use: the EXEA_SIMD environment
// variable ("scalar" or "avx2") wins if set and supported, otherwise
// the best level the CPU reports via CPUID. Tests switch levels
// in-process with SetSimdLevelForTest.

#ifndef EXEA_LA_SIMD_H_
#define EXEA_LA_SIMD_H_

#include <cstddef>

namespace exea::la {

enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
};

// Human-readable level name ("scalar", "avx2"); used in logs and bench
// context.
const char* SimdLevelName(SimdLevel level);

// True when the CPU (and this build) can run the AVX2 kernels.
bool Avx2Supported();

// The level all kernels currently dispatch to. Resolved once from
// EXEA_SIMD / CPUID on first call; later calls return the cached value
// unless a test overrides it.
SimdLevel ActiveSimdLevel();

// Test hook: force the dispatch level in-process. EXEA_CHECK-fails if
// the requested level is unsupported on this machine. Not for
// production code paths.
void SetSimdLevelForTest(SimdLevel level);

// The kernel table one level exports. All kernels tolerate n == 0 and
// unaligned pointers.
struct SimdOps {
  // Inner product of a[0..n) and b[0..n) in the canonical lane-blocked
  // reduction order described above.
  float (*dot)(const float* a, const float* b, size_t n);
  // One query against `count` consecutive rows of length n (row-major,
  // stride n): out[r] = dot(q, rows + r * n, n). Each row is reduced in
  // exactly dot's lane order, so every out[r] has the same bytes as the
  // per-row dot call; the AVX2 kernel only interleaves the accumulators
  // of four rows to share the query loads.
  void (*dot_rows)(const float* q, const float* rows, size_t count, size_t n,
                   float* out);
  // CSLS row adjustment: dst[j] = float(2.0 * sim[j] - r_src - r_tgt[j])
  // for j in [0, n), all intermediate arithmetic in double.
  void (*csls_adjust_row)(const float* sim, double r_src,
                          const double* r_tgt, float* dst, size_t n);
};

// The kernel table for the active level. Cheap enough to call per
// batch; hot loops should hoist the reference out of the inner loop.
const SimdOps& ActiveSimdOps();

// The always-available scalar reference kernels (the bit-identity
// baseline simd_test compares every other level against).
const SimdOps& ScalarSimdOps();

// The AVX2 kernel table, or nullptr when this build or CPU cannot run
// it. Exposed so simd_test can cross-check levels explicitly.
const SimdOps* Avx2SimdOpsOrNull();

}  // namespace exea::la

#endif  // EXEA_LA_SIMD_H_
