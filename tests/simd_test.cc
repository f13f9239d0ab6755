// Property-based cross-check of the SIMD dispatch contract (la/simd.h):
// the scalar and AVX2 kernels must produce BIT-IDENTICAL outputs — for
// the raw kernels and for everything built on top of them
// (TopKByCosineAll, CslsAdjust) — across shapes that stress the vector
// width (d not a multiple of 8, tails of every length, k > n, zero-norm
// rows). Equality here is EXPECT_EQ on floats, not a tolerance: the
// whole point of the canonical reduction order is that no tolerance is
// needed.
//
// On machines without AVX2 the cross-level tests GTEST_SKIP; the
// scalar-only properties still run.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "eval/csls.h"
#include "la/matrix.h"
#include "la/simd.h"
#include "la/similarity.h"
#include "util/rng.h"

namespace exea {
namespace {

// Restores the dispatch level a test forced, even on failure.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : original_(la::ActiveSimdLevel()) {}
  ~SimdLevelGuard() { la::SetSimdLevelForTest(original_); }

 private:
  la::SimdLevel original_;
};

std::vector<float> RandomVector(Rng& rng, size_t n) {
  std::vector<float> v(n);
  for (float& x : v) {
    // Mixed magnitudes so reduction order actually matters: a
    // same-scale input could round identically under ANY summation
    // order and hide a broken kernel.
    x = rng.UniformFloat(-2.0f, 2.0f) *
        (rng.Bernoulli(0.2) ? 100.0f : 1.0f);
  }
  return v;
}

la::Matrix RandomMatrix(Rng& rng, size_t rows, size_t cols,
                        bool with_zero_rows) {
  la::Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    if (with_zero_rows && rng.Bernoulli(0.15)) continue;  // stays all-zero
    std::vector<float> row = RandomVector(rng, cols);
    std::copy(row.begin(), row.end(), m.Row(r));
  }
  return m;
}

bool MatrixBytesEqual(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

TEST(SimdTest, LevelNamesAreStable) {
  EXPECT_STREQ(la::SimdLevelName(la::SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(la::SimdLevelName(la::SimdLevel::kAvx2), "avx2");
}

TEST(SimdTest, ScalarOverrideSwitchesTheActiveTable) {
  SimdLevelGuard guard;
  la::SetSimdLevelForTest(la::SimdLevel::kScalar);
  EXPECT_EQ(la::ActiveSimdLevel(), la::SimdLevel::kScalar);
  EXPECT_EQ(la::ActiveSimdOps().dot, la::ScalarSimdOps().dot);
  if (la::Avx2Supported()) {
    la::SetSimdLevelForTest(la::SimdLevel::kAvx2);
    EXPECT_EQ(la::ActiveSimdLevel(), la::SimdLevel::kAvx2);
    EXPECT_EQ(la::ActiveSimdOps().dot, la::Avx2SimdOpsOrNull()->dot);
  }
}

TEST(SimdTest, Avx2SupportMatchesOpsTable) {
  EXPECT_EQ(la::Avx2Supported(), la::Avx2SimdOpsOrNull() != nullptr);
}

// Every tail length in [0, 2 vectors + 1], plus larger sizes: the dot
// kernels must agree bit for bit.
TEST(SimdTest, DotKernelsAreBitIdenticalAtEveryLength) {
  if (!la::Avx2Supported()) GTEST_SKIP() << "no AVX2 on this machine";
  const la::SimdOps& avx2 = *la::Avx2SimdOpsOrNull();
  const la::SimdOps& scalar = la::ScalarSimdOps();
  Rng rng(101);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  for (size_t n : {31u, 32u, 33u, 63u, 64u, 65u, 100u, 255u, 256u, 1000u}) {
    lengths.push_back(n);
  }
  for (size_t n : lengths) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<float> a = RandomVector(rng, n);
      std::vector<float> b = RandomVector(rng, n);
      float s = scalar.dot(a.data(), b.data(), n);
      float v = avx2.dot(a.data(), b.data(), n);
      EXPECT_EQ(s, v) << "n=" << n << " rep=" << rep;
    }
  }
}

// dot_rows must reproduce the per-row dot byte for byte at every level,
// across row counts around the AVX2 kernel's 4-row interleave and the
// 256-row scoring block, and dims around the 8-float vector width.
TEST(SimdTest, DotRowsKernelsMatchDotAtEveryShape) {
  std::vector<const la::SimdOps*> levels = {&la::ScalarSimdOps()};
  if (la::Avx2Supported()) levels.push_back(la::Avx2SimdOpsOrNull());
  Rng rng(505);
  for (size_t count : {0u, 1u, 3u, 4u, 5u, 255u, 256u, 257u}) {
    for (size_t n : {0u, 1u, 7u, 8u, 9u, 48u, 50u}) {
      std::vector<float> q = RandomVector(rng, n);
      std::vector<float> rows = RandomVector(rng, count * n);
      std::vector<std::vector<float>> outs;
      for (const la::SimdOps* ops : levels) {
        // Poisoned so an unwritten slot cannot pass as a match.
        std::vector<float> out(count + 1, -7.0f);
        ops->dot_rows(q.data(), rows.data(), count, n, out.data());
        for (size_t r = 0; r < count; ++r) {
          float want = ops->dot(q.data(), rows.data() + r * n, n);
          EXPECT_EQ(std::memcmp(&out[r], &want, sizeof(float)), 0)
              << "count=" << count << " n=" << n << " r=" << r << ": "
              << out[r] << " vs dot " << want;
        }
        EXPECT_EQ(out[count], -7.0f) << "wrote past count=" << count;
        outs.push_back(std::move(out));
      }
      for (size_t l = 1; l < outs.size(); ++l) {
        EXPECT_EQ(std::memcmp(outs[0].data(), outs[l].data(),
                              count * sizeof(float)),
                  0)
            << "scalar and AVX2 dot_rows diverge at count=" << count
            << " n=" << n;
      }
    }
  }
}

TEST(SimdTest, CslsRowKernelsAreBitIdenticalAtEveryLength) {
  if (!la::Avx2Supported()) GTEST_SKIP() << "no AVX2 on this machine";
  const la::SimdOps& avx2 = *la::Avx2SimdOpsOrNull();
  const la::SimdOps& scalar = la::ScalarSimdOps();
  Rng rng(202);
  for (size_t n = 0; n <= 13; ++n) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<float> sim = RandomVector(rng, n);
      std::vector<double> r_tgt(n);
      for (double& x : r_tgt) x = rng.UniformDouble() * 2.0 - 1.0;
      double r_src = rng.UniformDouble();
      std::vector<float> got_scalar(n), got_avx2(n);
      scalar.csls_adjust_row(sim.data(), r_src, r_tgt.data(),
                             got_scalar.data(), n);
      avx2.csls_adjust_row(sim.data(), r_src, r_tgt.data(),
                           got_avx2.data(), n);
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(got_scalar[j], got_avx2[j]) << "n=" << n << " j=" << j;
      }
    }
  }
}

// The tentpole property: TopKByCosineAll is bit-identical between
// EXEA_SIMD=scalar and EXEA_SIMD=avx2 across random shapes, including
// d not a multiple of the vector width, k > n, and zero-norm rows.
TEST(SimdTest, TopKByCosineAllIsBitIdenticalAcrossLevels) {
  if (!la::Avx2Supported()) GTEST_SKIP() << "no AVX2 on this machine";
  SimdLevelGuard guard;
  Rng rng(303);
  struct Shape {
    size_t queries, n, d, k;
  };
  std::vector<Shape> shapes = {
      {3, 7, 8, 3},    // exact vector width
      {5, 20, 13, 5},  // d % 8 != 0
      {4, 3, 17, 10},  // k > n
      {1, 1, 1, 1},    // minimal
      {2, 50, 24, 0},  // k == 0
  };
  for (int i = 0; i < 20; ++i) {  // random shapes on top of the pinned ones
    shapes.push_back({1 + rng.UniformInt(6), 1 + rng.UniformInt(60),
                      1 + rng.UniformInt(40), rng.UniformInt(12)});
  }
  for (const Shape& s : shapes) {
    Rng case_rng(rng.Next());
    la::Matrix queries = RandomMatrix(case_rng, s.queries, s.d, true);
    la::Matrix table = RandomMatrix(case_rng, s.n, s.d, true);

    la::SetSimdLevelForTest(la::SimdLevel::kScalar);
    auto scalar = la::TopKByCosineAll(queries, table, s.k);
    la::SetSimdLevelForTest(la::SimdLevel::kAvx2);
    auto avx2 = la::TopKByCosineAll(queries, table, s.k);

    ASSERT_EQ(scalar.size(), avx2.size());
    for (size_t q = 0; q < scalar.size(); ++q) {
      ASSERT_EQ(scalar[q].size(), avx2[q].size())
          << "shape (" << s.queries << "," << s.n << "," << s.d << ","
          << s.k << ") query " << q;
      for (size_t r = 0; r < scalar[q].size(); ++r) {
        EXPECT_EQ(scalar[q][r].index, avx2[q][r].index)
            << "query " << q << " rank " << r;
        EXPECT_EQ(scalar[q][r].score, avx2[q][r].score)
            << "query " << q << " rank " << r;
      }
    }
  }
}

TEST(SimdTest, CslsAdjustIsBitIdenticalAcrossLevels) {
  if (!la::Avx2Supported()) GTEST_SKIP() << "no AVX2 on this machine";
  SimdLevelGuard guard;
  Rng rng(404);
  for (const auto& [n1, n2, k] :
       {std::tuple<size_t, size_t, size_t>{37, 53, 5},
        {1, 1, 1},
        {64, 13, 10},
        {9, 100, 200}}) {  // k larger than either side
    la::Matrix a = RandomMatrix(rng, n1, 12, true);
    la::Matrix b = RandomMatrix(rng, n2, 12, true);
    la::SetSimdLevelForTest(la::SimdLevel::kScalar);
    la::Matrix sim = la::CosineSimilarityMatrix(a, b);
    la::Matrix scalar = eval::CslsAdjust(sim, k);
    la::SetSimdLevelForTest(la::SimdLevel::kAvx2);
    la::Matrix sim2 = la::CosineSimilarityMatrix(a, b);
    la::Matrix avx2 = eval::CslsAdjust(sim2, k);
    EXPECT_TRUE(MatrixBytesEqual(sim, sim2))
        << n1 << "x" << n2 << ": similarity matrices diverge";
    EXPECT_TRUE(MatrixBytesEqual(scalar, avx2))
        << n1 << "x" << n2 << ": CSLS outputs diverge";
  }
}

}  // namespace
}  // namespace exea
