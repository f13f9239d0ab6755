#include "la/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

namespace exea::la {
namespace {

// Width of one AVX2 float vector; the scalar kernels block on the same
// width so both levels share one reduction order.
constexpr size_t kLanes = 8;

// ---------------------------------------------------------------------------
// Scalar reference kernels.
//
// The lane accumulators and the explicit pairwise tree below reproduce,
// step for step, what the AVX2 kernel computes: lane l accumulates
// elements l, l+8, l+16, ... and the tree matches the
// extract-high/movehl/shuffle horizontal-add sequence. The tail (n % 8
// elements) is added sequentially after the tree, exactly as the vector
// kernel does. Do not "simplify" the reduction — the shape IS the
// contract (see simd.h).
// ---------------------------------------------------------------------------

float DotScalar(const float* a, const float* b, size_t n) {
  float acc[kLanes] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  size_t main = n - n % kLanes;
  for (size_t i = 0; i < main; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      acc[l] += a[i + l] * b[i + l];
    }
  }
  float s0 = acc[0] + acc[4];
  float s1 = acc[1] + acc[5];
  float s2 = acc[2] + acc[6];
  float s3 = acc[3] + acc[7];
  float t0 = s0 + s2;
  float t1 = s1 + s3;
  float sum = t0 + t1;
  for (size_t i = main; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

void DotRowsScalar(const float* q, const float* rows, size_t count, size_t n,
                   float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = DotScalar(q, rows + r * n, n);
  }
}

// Elementwise with no cross-lane reduction, so plain left-to-right
// double arithmetic is already the canonical order.
void CslsAdjustRowScalar(const float* sim, double r_src, const double* r_tgt,
                         float* dst, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    dst[j] = static_cast<float>(2.0 * sim[j] - r_src - r_tgt[j]);
  }
}

constexpr SimdOps kScalarOps = {DotScalar, DotRowsScalar,
                                 CslsAdjustRowScalar};

// Resolves the startup level once: explicit EXEA_SIMD wins, otherwise
// the best supported level. Unsupported or unknown requests fall back
// to scalar with a warning rather than aborting, so a stale env var
// cannot take down a serving process.
SimdLevel ResolveStartupLevel() {
  const char* env = std::getenv("EXEA_SIMD");
  if (env != nullptr && *env != '\0') {
    if (std::strcmp(env, "scalar") == 0) return SimdLevel::kScalar;
    if (std::strcmp(env, "avx2") == 0) {
      if (Avx2Supported()) return SimdLevel::kAvx2;
      EXEA_LOG(Warning) << "EXEA_SIMD=avx2 requested but AVX2 is "
                           "unavailable on this CPU/build; using scalar";
      return SimdLevel::kScalar;
    }
    EXEA_LOG(Warning) << "Unknown EXEA_SIMD value '" << env
                      << "' (expected scalar|avx2); using auto-detection";
  }
  return Avx2Supported() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}

std::atomic<SimdLevel>& ActiveLevelSlot() {
  static std::atomic<SimdLevel> level(ResolveStartupLevel());
  return level;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool Avx2Supported() { return Avx2SimdOpsOrNull() != nullptr; }

SimdLevel ActiveSimdLevel() {
  return ActiveLevelSlot().load(std::memory_order_acquire);
}

void SetSimdLevelForTest(SimdLevel level) {
  EXEA_CHECK(level == SimdLevel::kScalar || Avx2Supported())
      << "cannot force level '" << SimdLevelName(level)
      << "': unsupported on this machine";
  ActiveLevelSlot().store(level, std::memory_order_release);
}

const SimdOps& ActiveSimdOps() {
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    const SimdOps* avx2 = Avx2SimdOpsOrNull();
    if (avx2 != nullptr) return *avx2;
  }
  return kScalarOps;
}

const SimdOps& ScalarSimdOps() { return kScalarOps; }

}  // namespace exea::la
