// Determinism regression tests for the parallel hot paths: every kernel
// that runs on the worker pool must produce byte-identical output at any
// thread count (the contract documented in DESIGN.md "Concurrency model"
// and util/parallel.h). Each kernel is run at 1, 2, and 8 threads on
// seeded inputs and the results are compared bit for bit against the
// serial (--threads=1) baseline.

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/eashapley.h"
#include "baselines/perturbation.h"
#include "data/benchmarks.h"
#include "emb/model.h"
#include "eval/csls.h"
#include "eval/inference.h"
#include "kg/neighborhood.h"
#include "la/matrix.h"
#include "la/simd.h"
#include "la/similarity.h"
#include "la/similarity_index.h"
#include "obs/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace exea {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};

// Runs `fn` under each thread count and returns the results, restoring
// the hardware default afterwards.
template <typename Fn>
auto RunAtEachThreadCount(Fn fn) {
  std::vector<decltype(fn())> results;
  for (size_t threads : kThreadCounts) {
    util::SetThreadCount(threads);
    results.push_back(fn());
  }
  util::SetThreadCount(0);
  return results;
}

bool BytesEqual(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

la::Matrix SeededMatrix(uint64_t seed, size_t rows, size_t cols) {
  Rng rng(seed);
  la::Matrix m(rows, cols);
  m.FillNormal(rng, 1.0f);
  return m;
}

TEST(DeterminismTest, CosineSimilarityMatrixIsThreadCountInvariant) {
  la::Matrix a = SeededMatrix(11, 173, 32);  // deliberately not a multiple
  la::Matrix b = SeededMatrix(12, 209, 32);  // of the row grain
  auto results = RunAtEachThreadCount(
      [&] { return la::CosineSimilarityMatrix(a, b); });
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(BytesEqual(results[0], results[i]))
        << "threads=" << kThreadCounts[i] << " differs from serial";
  }
}

TEST(DeterminismTest, TopKByCosineAllIsThreadCountInvariant) {
  la::Matrix queries = SeededMatrix(21, 157, 48);
  la::Matrix table = SeededMatrix(22, 301, 48);
  auto results = RunAtEachThreadCount(
      [&] { return la::TopKByCosineAll(queries, table, 10); });
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[0].size(), results[i].size());
    for (size_t q = 0; q < results[0].size(); ++q) {
      ASSERT_EQ(results[0][q].size(), results[i][q].size());
      for (size_t r = 0; r < results[0][q].size(); ++r) {
        EXPECT_EQ(results[0][q][r].index, results[i][q][r].index)
            << "threads=" << kThreadCounts[i] << " query " << q;
        // Bit-identical, not approximately equal.
        EXPECT_EQ(results[0][q][r].score, results[i][q][r].score)
            << "threads=" << kThreadCounts[i] << " query " << q;
      }
    }
  }
}

TEST(DeterminismTest, TopKByCosineMatchesAllQueriesPath) {
  // The single-query entry point shares TopKWithNorms with the batch one;
  // row 0 of the batch must equal the direct call.
  la::Matrix queries = SeededMatrix(23, 5, 16);
  la::Matrix table = SeededMatrix(24, 64, 16);
  auto all = la::TopKByCosineAll(queries, table, 7);
  auto one = la::TopKByCosine(queries.Row(0), table, 7);
  ASSERT_EQ(all[0].size(), one.size());
  for (size_t r = 0; r < one.size(); ++r) {
    EXPECT_EQ(all[0][r].index, one[r].index);
    EXPECT_EQ(all[0][r].score, one[r].score);
  }
}

TEST(DeterminismTest, CslsAdjustIsThreadCountInvariant) {
  la::Matrix sim =
      la::CosineSimilarityMatrix(SeededMatrix(31, 140, 24),
                                 SeededMatrix(32, 190, 24));
  auto results =
      RunAtEachThreadCount([&] { return eval::CslsAdjust(sim, 10); });
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(BytesEqual(results[0], results[i]))
        << "threads=" << kThreadCounts[i] << " differs from serial";
  }
}

// The cross-SIMD determinism pin: la/simd.h promises the scalar kernels
// mirror the AVX2 arithmetic DAG, so EVERY (simd level, thread count)
// cell — not just cells at a fixed level — must be bit-identical to the
// scalar/serial baseline for the dispatched hot paths.
TEST(DeterminismTest, TopKAndCslsAreSimdLevelAndThreadCountInvariant) {
  la::SimdLevel original = la::ActiveSimdLevel();
  std::vector<la::SimdLevel> levels = {la::SimdLevel::kScalar};
  if (la::Avx2Supported()) levels.push_back(la::SimdLevel::kAvx2);

  la::Matrix queries = SeededMatrix(41, 97, 40);
  la::Matrix table = SeededMatrix(42, 211, 40);
  la::SetSimdLevelForTest(la::SimdLevel::kScalar);
  util::SetThreadCount(1);
  auto topk_base = la::TopKByCosineAll(queries, table, 10);
  la::Matrix csls_base =
      eval::CslsAdjust(la::CosineSimilarityMatrix(queries, table), 10);

  for (la::SimdLevel level : levels) {
    la::SetSimdLevelForTest(level);
    auto topk_runs = RunAtEachThreadCount(
        [&] { return la::TopKByCosineAll(queries, table, 10); });
    auto csls_runs = RunAtEachThreadCount([&] {
      return eval::CslsAdjust(la::CosineSimilarityMatrix(queries, table), 10);
    });
    for (size_t i = 0; i < topk_runs.size(); ++i) {
      ASSERT_EQ(topk_base.size(), topk_runs[i].size());
      for (size_t q = 0; q < topk_base.size(); ++q) {
        ASSERT_EQ(topk_base[q].size(), topk_runs[i][q].size());
        for (size_t r = 0; r < topk_base[q].size(); ++r) {
          EXPECT_EQ(topk_base[q][r].index, topk_runs[i][q][r].index)
              << la::SimdLevelName(level) << " threads=" << kThreadCounts[i]
              << " query " << q;
          EXPECT_EQ(topk_base[q][r].score, topk_runs[i][q][r].score)
              << la::SimdLevelName(level) << " threads=" << kThreadCounts[i]
              << " query " << q;
        }
      }
      EXPECT_TRUE(BytesEqual(csls_base, csls_runs[i]))
          << la::SimdLevelName(level) << " threads=" << kThreadCounts[i]
          << " CSLS differs from the scalar/serial baseline";
    }
  }
  la::SetSimdLevelForTest(original);
  util::SetThreadCount(0);
}

// End-to-end over a trained model: ranked CSLS inference must produce the
// same similarity matrix and the same full candidate rankings at any
// thread count.
TEST(DeterminismTest, RankTestEntitiesCslsIsThreadCountInvariant) {
  data::EaDataset dataset =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  std::unique_ptr<emb::EAModel> model =
      emb::MakeDefaultModel(emb::ModelKind::kMTransE);
  util::SetThreadCount(1);
  model->Train(dataset);

  auto results = RunAtEachThreadCount(
      [&] { return eval::RankTestEntitiesCsls(*model, dataset, 5); });
  const eval::RankedSimilarity& serial = results[0];
  for (size_t i = 1; i < results.size(); ++i) {
    const eval::RankedSimilarity& parallel = results[i];
    EXPECT_TRUE(
        BytesEqual(serial.similarity_matrix(), parallel.similarity_matrix()))
        << "threads=" << kThreadCounts[i] << " similarity matrix differs";
    ASSERT_EQ(serial.sources(), parallel.sources());
    for (kg::EntityId source : serial.sources()) {
      const auto& a = serial.CandidatesFor(source);
      const auto& b = parallel.CandidatesFor(source);
      ASSERT_EQ(a.size(), b.size());
      for (size_t c = 0; c < a.size(); ++c) {
        EXPECT_EQ(a[c].target, b[c].target)
            << "threads=" << kThreadCounts[i] << " source " << source;
        EXPECT_EQ(a[c].score, b[c].score)
            << "threads=" << kThreadCounts[i] << " source " << source;
      }
    }
  }
}

// The Shapley permutation sweep batches its perturbation evaluations onto
// the pool; attributions must not depend on the thread count.
TEST(DeterminismTest, ShapleyAttributionsAreThreadCountInvariant) {
  data::EaDataset dataset =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  std::unique_ptr<emb::EAModel> model =
      emb::MakeDefaultModel(emb::ModelKind::kMTransE);
  util::SetThreadCount(1);
  model->Train(dataset);
  baselines::PerturbedEmbedder embedder(dataset, *model);

  // Any test pair with a few candidates on both sides will do.
  kg::EntityId e1 = kg::kInvalidEntity;
  kg::EntityId e2 = kg::kInvalidEntity;
  std::vector<kg::Triple> c1;
  std::vector<kg::Triple> c2;
  for (const kg::AlignedPair& pair : dataset.test) {
    auto t1 = kg::TriplesWithinHops(dataset.kg1, pair.source, 1);
    auto t2 = kg::TriplesWithinHops(dataset.kg2, pair.target, 1);
    if (t1.size() < 2 || t2.size() < 2) continue;
    e1 = pair.source;
    e2 = pair.target;
    c1 = std::move(t1);
    c2 = std::move(t2);
    break;
  }
  ASSERT_NE(e1, kg::kInvalidEntity);

  for (baselines::ShapleyEstimator estimator :
       {baselines::ShapleyEstimator::kMonteCarlo,
        baselines::ShapleyEstimator::kKernelShap}) {
    auto results = RunAtEachThreadCount([&] {
      baselines::EAShapley shapley(&embedder, estimator,
                                   /*num_samples=*/16);
      return shapley.AttributionScores(e1, e2, c1, c2);
    });
    for (size_t i = 1; i < results.size(); ++i) {
      ASSERT_EQ(results[0].size(), results[i].size());
      for (size_t f = 0; f < results[0].size(); ++f) {
        EXPECT_EQ(results[0][f], results[i][f])
            << "threads=" << kThreadCounts[i] << " feature " << f;
      }
    }
  }
}

// One ExactIndex over the whole table is thread-count invariant: at
// every pool size the per-query top-k is bit-identical to the serial
// scan. The 93 queries misalign with the 16-row ParallelFor grain and
// the 517 table rows with the 256-row scoring block.
TEST(DeterminismTest, ExactIndexTopKIsThreadCountInvariant) {
  la::Matrix queries = SeededMatrix(31, 93, 24);
  la::Matrix table = SeededMatrix(32, 517, 24);
  obs::Registry registry;

  util::SetThreadCount(1);
  la::ExactIndex serial(&table, &registry);
  auto baseline = serial.TopKAll(queries, 10);
  util::SetThreadCount(0);

  auto results = RunAtEachThreadCount([&] {
    return la::ExactIndex(&table, &registry).TopKAll(queries, 10);
  });
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(baseline.size(), results[i].size());
    for (size_t q = 0; q < baseline.size(); ++q) {
      ASSERT_EQ(baseline[q].size(), results[i][q].size());
      for (size_t r = 0; r < baseline[q].size(); ++r) {
        EXPECT_EQ(baseline[q][r].index, results[i][q][r].index)
            << "threads=" << kThreadCounts[i] << " query " << q;
        EXPECT_EQ(baseline[q][r].score, results[i][q][r].score)
            << "threads=" << kThreadCounts[i] << " query " << q;
      }
    }
  }
}

}  // namespace
}  // namespace exea
