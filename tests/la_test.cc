// Unit tests for the linear-algebra layer: vector kernels, Matrix,
// SparseMatrix, similarity search, and the ridge-regression solver.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "la/linreg.h"
#include "la/matrix.h"
#include "la/simd.h"
#include "la/similarity.h"
#include "la/sparse.h"
#include "la/vector_ops.h"
#include "util/rng.h"

namespace exea::la {
namespace {

constexpr float kTol = 1e-5f;

// ------------------------------------------------------------ vector ops

TEST(VectorOpsTest, Dot) {
  Vec a{1, 2, 3};
  Vec b{4, 5, 6};
  EXPECT_NEAR(Dot(a, b), 32.0f, kTol);
}

TEST(VectorOpsTest, Norm) {
  Vec a{3, 4};
  EXPECT_NEAR(Norm(a), 5.0f, kTol);
}

TEST(VectorOpsTest, SquaredDistance) {
  Vec a{1, 1};
  Vec b{4, 5};
  EXPECT_NEAR(SquaredDistance(a, b), 25.0f, kTol);
}

TEST(VectorOpsTest, CosineParallel) {
  Vec a{1, 2, 3};
  Vec b{2, 4, 6};
  EXPECT_NEAR(Cosine(a, b), 1.0f, kTol);
}

TEST(VectorOpsTest, CosineOrthogonal) {
  Vec a{1, 0};
  Vec b{0, 1};
  EXPECT_NEAR(Cosine(a, b), 0.0f, kTol);
}

TEST(VectorOpsTest, CosineOpposite) {
  Vec a{1, 1};
  Vec b{-1, -1};
  EXPECT_NEAR(Cosine(a, b), -1.0f, kTol);
}

TEST(VectorOpsTest, CosineZeroVectorIsZero) {
  Vec a{0, 0};
  Vec b{1, 1};
  EXPECT_EQ(Cosine(a, b), 0.0f);
}

TEST(VectorOpsTest, Axpy) {
  Vec a{1, 2};
  Vec b{10, 20};
  Axpy(0.5f, b, a);
  EXPECT_NEAR(a[0], 6.0f, kTol);
  EXPECT_NEAR(a[1], 12.0f, kTol);
}

TEST(VectorOpsTest, NormalizeL2) {
  Vec a{3, 4};
  NormalizeL2(a);
  EXPECT_NEAR(Norm(a), 1.0f, kTol);
  EXPECT_NEAR(a[0], 0.6f, kTol);
}

TEST(VectorOpsTest, NormalizeZeroVectorUnchanged) {
  Vec a{0, 0, 0};
  NormalizeL2(a);
  EXPECT_EQ(a[0], 0.0f);
}

TEST(VectorOpsTest, AddSubConcat) {
  Vec a{1, 2};
  Vec b{3, 5};
  Vec sum = Add(a, b);
  Vec diff = Sub(b, a);
  Vec cat = Concat(a, b);
  EXPECT_EQ(sum[1], 7.0f);
  EXPECT_EQ(diff[0], 2.0f);
  ASSERT_EQ(cat.size(), 4u);
  EXPECT_EQ(cat[2], 3.0f);
}

TEST(VectorOpsTest, SigmoidValues) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-9);
  EXPECT_NEAR(Sigmoid(100.0), 1.0, 1e-9);
  EXPECT_NEAR(Sigmoid(-100.0), 0.0, 1e-9);
  EXPECT_NEAR(Sigmoid(1.0) + Sigmoid(-1.0), 1.0, 1e-9);
}

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, ShapeAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m.At(1, 2) = 5.0f;
  EXPECT_EQ(m.At(1, 2), 5.0f);
  EXPECT_EQ(m.Row(1)[2], 5.0f);
}

TEST(MatrixTest, RowCopyAndSetRow) {
  Matrix m(2, 2);
  m.SetRow(0, {1, 2});
  Vec row = m.RowCopy(0);
  EXPECT_EQ(row[1], 2.0f);
}

TEST(MatrixTest, FillNormalStatistics) {
  Rng rng(5);
  Matrix m(50, 40);
  m.FillNormal(rng, 2.0f);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (float v : m.data()) {
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  double n = static_cast<double>(m.data().size());
  EXPECT_NEAR(sum / n, 0.0, 0.15);
  EXPECT_NEAR(sum_sq / n, 4.0, 0.4);
}

TEST(MatrixTest, NormalizeRows) {
  Matrix m(3, 4);
  Rng rng(6);
  m.FillUniform(rng, 0.5f, 2.0f);
  m.NormalizeRowsL2();
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_NEAR(Norm(m.Row(r), 4), 1.0f, kTol);
  }
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 2);
  a.SetRow(0, {1, 2});
  a.SetRow(1, {3, 4});
  Matrix b(2, 2);
  b.SetRow(0, {5, 6});
  b.SetRow(1, {7, 8});
  Matrix c = a.MatMul(b);
  EXPECT_NEAR(c.At(0, 0), 19.0f, kTol);
  EXPECT_NEAR(c.At(0, 1), 22.0f, kTol);
  EXPECT_NEAR(c.At(1, 0), 43.0f, kTol);
  EXPECT_NEAR(c.At(1, 1), 50.0f, kTol);
}

TEST(MatrixTest, Transposed) {
  Matrix a(2, 3);
  a.SetRow(0, {1, 2, 3});
  a.SetRow(1, {4, 5, 6});
  Matrix t = a.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.At(2, 1), 6.0f);
}

TEST(MatrixTest, AddScaledAndFrobenius) {
  Matrix a(1, 2);
  a.SetRow(0, {3, 4});
  Matrix b(1, 2);
  b.SetRow(0, {1, 1});
  a.AddScaled(b, 2.0f);
  EXPECT_EQ(a.At(0, 0), 5.0f);
  Matrix c(1, 2);
  c.SetRow(0, {3, 4});
  EXPECT_NEAR(c.FrobeniusNorm(), 5.0f, kTol);
}

// ---------------------------------------------------------------- Sparse

TEST(SparseTest, MultiplyMatchesDense) {
  SparseMatrix s(3, 3);
  s.Add(0, 1, 2.0f);
  s.Add(1, 0, 1.0f);
  s.Add(2, 2, 3.0f);
  s.Add(0, 1, 0.5f);  // duplicate accumulates
  s.Finalize();
  EXPECT_EQ(s.nnz(), 3u);

  Matrix x(3, 2);
  x.SetRow(0, {1, 2});
  x.SetRow(1, {3, 4});
  x.SetRow(2, {5, 6});
  Matrix y = s.Multiply(x);
  EXPECT_NEAR(y.At(0, 0), 2.5f * 3, kTol);
  EXPECT_NEAR(y.At(0, 1), 2.5f * 4, kTol);
  EXPECT_NEAR(y.At(1, 0), 1.0f, kTol);
  EXPECT_NEAR(y.At(2, 1), 18.0f, kTol);
}

TEST(SparseTest, TransposedMultiplyMatchesDenseTranspose) {
  Rng rng(8);
  SparseMatrix s(4, 5);
  Matrix dense(4, 5);
  for (int i = 0; i < 8; ++i) {
    size_t r = rng.UniformInt(4);
    size_t c = rng.UniformInt(5);
    float v = rng.UniformFloat(-1, 1);
    s.Add(r, c, v);
    dense.At(r, c) += v;
  }
  s.Finalize();
  Matrix x(4, 3);
  x.FillNormal(rng, 1.0f);
  Matrix via_sparse = s.MultiplyTransposed(x);
  Matrix via_dense = dense.Transposed().MatMul(x);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(via_sparse.At(r, c), via_dense.At(r, c), 1e-4f);
    }
  }
}

// ------------------------------------------------------------ similarity

TEST(SimilarityTest, CosineMatrixValues) {
  Matrix a(2, 2);
  a.SetRow(0, {1, 0});
  a.SetRow(1, {0, 2});
  Matrix b(2, 2);
  b.SetRow(0, {1, 0});
  b.SetRow(1, {1, 1});
  Matrix sim = CosineSimilarityMatrix(a, b);
  EXPECT_NEAR(sim.At(0, 0), 1.0f, kTol);
  EXPECT_NEAR(sim.At(0, 1), 1.0f / std::sqrt(2.0f), kTol);
  EXPECT_NEAR(sim.At(1, 0), 0.0f, kTol);
}

TEST(SimilarityTest, TopKOrderedDescending) {
  Matrix table(4, 2);
  table.SetRow(0, {1, 0});
  table.SetRow(1, {0.9f, 0.1f});
  table.SetRow(2, {0, 1});
  table.SetRow(3, {-1, 0});
  Vec query{1, 0};
  std::vector<ScoredIndex> top = TopKByCosine(query.data(), table, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].index, 0u);
  EXPECT_EQ(top[1].index, 1u);
  EXPECT_EQ(top[2].index, 2u);
  EXPECT_GE(top[0].score, top[1].score);
  EXPECT_GE(top[1].score, top[2].score);
}

TEST(SimilarityTest, TopKClampsToTableSize) {
  Matrix table(2, 2);
  table.SetRow(0, {1, 0});
  table.SetRow(1, {0, 1});
  Vec query{1, 1};
  EXPECT_EQ(TopKByCosine(query.data(), table, 10).size(), 2u);
}

TEST(SimilarityTest, ArgMaxCosine) {
  Matrix table(3, 2);
  table.SetRow(0, {0, 1});
  table.SetRow(1, {1, 1});
  table.SetRow(2, {1, 0});
  Vec query{1, 0};
  EXPECT_EQ(ArgMaxCosine(query.data(), table), 2);
}

// Pins the ScoredLess ordering contract (score desc, index asc) that
// similarity.cc, ExactIndex, and IvfIndex all sort by: duplicate table
// rows tie exactly, and ties must come back in ascending index order.
// The IVF degenerate-to-exact guarantee (index_test) depends on this
// being a strict total order — do not weaken it to score-only.
TEST(SimilarityTest, TopKTieBreakIsAscendingIndexAmongEqualScores) {
  Matrix table(5, 3);
  table.SetRow(0, {0, 1, 0});
  table.SetRow(1, {2, 0, 0});  // duplicate direction of rows 3 and 4
  table.SetRow(2, {0, 0, 1});
  table.SetRow(3, {2, 0, 0});
  table.SetRow(4, {2, 0, 0});
  Vec query{1, 0, 0};
  std::vector<ScoredIndex> top = TopKByCosine(query.data(), table, 5);
  ASSERT_EQ(top.size(), 5u);
  EXPECT_EQ(top[0].index, 1u);
  EXPECT_EQ(top[1].index, 3u);
  EXPECT_EQ(top[2].index, 4u);
  EXPECT_EQ(top[0].score, top[1].score);
  EXPECT_EQ(top[1].score, top[2].score);
  // ScoredLess itself: score wins first, index only breaks exact ties.
  EXPECT_TRUE(ScoredLess({3, 0.5f}, {9, 0.4f}));
  EXPECT_TRUE(ScoredLess({3, 0.5f}, {4, 0.5f}));
  EXPECT_FALSE(ScoredLess({4, 0.5f}, {3, 0.5f}));
  EXPECT_FALSE(ScoredLess({3, 0.5f}, {3, 0.5f}));
}

TEST(SimilarityTest, TopKAllMatchesSingle) {
  Rng rng(12);
  Matrix queries(3, 4);
  Matrix table(6, 4);
  queries.FillNormal(rng, 1.0f);
  table.FillNormal(rng, 1.0f);
  auto all = TopKByCosineAll(queries, table, 2);
  ASSERT_EQ(all.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    auto single = TopKByCosine(queries.Row(i), table, 2);
    ASSERT_EQ(all[i].size(), 2u);
    EXPECT_EQ(all[i][0].index, single[0].index);
    EXPECT_EQ(all[i][1].index, single[1].index);
  }
}

// The full-sort reference the streaming top-k must reproduce: every
// table row scored with the per-row dot kernel in the same
// (dot * qinv) * inv order, sorted with ScoredLess, cut to k.
std::vector<ScoredIndex> FullSortTopK(const float* query, const Matrix& table,
                                      size_t k) {
  const SimdOps& ops = ActiveSimdOps();
  std::vector<float> inv = RowInverseNorms(table);
  float qnorm = std::sqrt(ops.dot(query, query, table.cols()));
  float qinv = qnorm > 1e-12f ? 1.0f / qnorm : 0.0f;
  std::vector<ScoredIndex> all;
  for (size_t j = 0; j < table.rows(); ++j) {
    all.push_back({static_cast<uint32_t>(j),
                   (ops.dot(query, table.Row(j), table.cols()) * qinv) *
                       inv[j]});
  }
  std::sort(all.begin(), all.end(), ScoredLess);
  all.resize(std::min(k, all.size()));
  return all;
}

void ExpectSameTopK(const std::vector<ScoredIndex>& want,
                    const std::vector<ScoredIndex>& got,
                    const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(want[r].index, got[r].index) << label << " rank " << r;
    EXPECT_EQ(std::memcmp(&want[r].score, &got[r].score, sizeof(float)), 0)
        << label << " rank " << r;
  }
}

TEST(SimilarityTest, TopKMatchesFullSortReference) {
  constexpr size_t kDim = 13;
  Rng rng(77);
  Vec hot(kDim);
  for (float& x : hot) x = static_cast<float>(rng.Normal());
  for (size_t rows : {0u, 1u, 5u, 255u, 256u, 257u, 600u}) {
    Matrix table(rows, kDim);
    table.FillNormal(rng, 1.0f);
    for (size_t j = 0; j < rows; ++j) {
      // Exact duplicates of `hot` on both sides of the 256-row block
      // boundary tie exactly, and zero rows all score exactly 0.
      if (j == 2 || j == 254 || j == 255 || j == 256 || j == 257 ||
          j + 1 == rows) {
        table.SetRow(j, hot);
      } else if (j % 9 == 4) {
        std::fill(table.Row(j), table.Row(j) + kDim, 0.0f);
      }
    }
    Vec random(kDim);
    for (float& x : random) x = static_cast<float>(rng.Normal());
    std::vector<std::pair<std::string, Vec>> queries = {
        {"hot", hot}, {"random", random}, {"zero", Vec(kDim, 0.0f)}};
    std::vector<size_t> ks = {0, 1, 5, rows, rows + 3};
    if (rows > 0) ks.push_back(rows - 1);
    for (const auto& [name, query] : queries) {
      for (size_t k : ks) {
        std::string label = name + " rows=" + std::to_string(rows) +
                            " k=" + std::to_string(k);
        ExpectSameTopK(FullSortTopK(query.data(), table, k),
                       TopKByCosine(query.data(), table, k), label);
      }
    }
  }
}

// ---------------------------------------------------------------- linreg

TEST(LinregTest, SolveSpdIdentity) {
  std::vector<double> a{1, 0, 0, 1};
  std::vector<double> b{3, 4};
  auto x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 3.0, 1e-9);
  EXPECT_NEAR((*x)[1], 4.0, 1e-9);
}

TEST(LinregTest, SolveSpdKnownSystem) {
  // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2].
  std::vector<double> a{4, 2, 2, 3};
  std::vector<double> b{10, 9};
  auto x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.5, 1e-9);
  EXPECT_NEAR((*x)[1], 2.0, 1e-9);
}

TEST(LinregTest, SolveSpdRejectsIndefinite) {
  std::vector<double> a{0, 1, 1, 0};
  std::vector<double> b{1, 1};
  EXPECT_FALSE(SolveSpd(a, b).ok());
}

TEST(LinregTest, RecoversPlantedLinearModel) {
  // y = 2*x0 - 3*x1 + 1 with noise-free samples.
  Rng rng(21);
  std::vector<std::vector<double>> rows;
  std::vector<double> targets;
  for (int i = 0; i < 40; ++i) {
    double x0 = rng.UniformDouble();
    double x1 = rng.UniformDouble();
    rows.push_back({x0, x1});
    targets.push_back(2 * x0 - 3 * x1 + 1);
  }
  auto model = FitWeightedRidge(rows, targets, {}, RidgeOptions{});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->weights[0], 2.0, 1e-3);
  EXPECT_NEAR(model->weights[1], -3.0, 1e-3);
  EXPECT_NEAR(model->intercept, 1.0, 1e-3);
  EXPECT_NEAR(Predict(*model, {0.5, 0.5}), 0.5, 1e-3);
}

TEST(LinregTest, SampleWeightsFocusFit) {
  // Two inconsistent clusters; weights select which one the fit matches.
  std::vector<std::vector<double>> rows = {{0.0}, {1.0}, {0.0}, {1.0}};
  std::vector<double> targets = {0.0, 1.0, 5.0, 4.0};
  std::vector<double> low_weight_second = {1.0, 1.0, 1e-6, 1e-6};
  auto model =
      FitWeightedRidge(rows, targets, low_weight_second, RidgeOptions{});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->weights[0], 1.0, 1e-2);
  EXPECT_NEAR(model->intercept, 0.0, 1e-2);
}

TEST(LinregTest, RejectsShapeMismatches) {
  EXPECT_FALSE(FitWeightedRidge({}, {}, {}, RidgeOptions{}).ok());
  EXPECT_FALSE(
      FitWeightedRidge({{1.0}}, {1.0, 2.0}, {}, RidgeOptions{}).ok());
  EXPECT_FALSE(
      FitWeightedRidge({{1.0}, {1.0, 2.0}}, {1.0, 2.0}, {}, RidgeOptions{})
          .ok());
}

TEST(LinregTest, NoInterceptOption) {
  std::vector<std::vector<double>> rows = {{1.0}, {2.0}, {3.0}};
  std::vector<double> targets = {2.0, 4.0, 6.0};
  RidgeOptions options;
  options.fit_intercept = false;
  auto model = FitWeightedRidge(rows, targets, {}, options);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->weights[0], 2.0, 1e-3);
  EXPECT_EQ(model->intercept, 0.0);
}

}  // namespace
}  // namespace exea::la
