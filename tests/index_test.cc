// SimilarityIndex contract tests (la/similarity_index.h): ExactIndex
// and IvfIndex answer the same queries over the same fixture, and the
// approximate index is pinned on four properties:
//
//   1. recall@1 / recall@10 >= 0.97 at the default nprobe on a
//      clustered fixture (the regime IVF exists for),
//   2. recall is monotone non-decreasing in nprobe,
//   3. nprobe == num_clusters is BIT-identical to ExactIndex (the
//      degenerate-to-exact guarantee),
//   4. construction is deterministic: same seed ⇒ byte-identical
//      serialized index.
//
// Plus serialization round-trips and validation/load rejection of
// structurally corrupt data.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "la/matrix.h"
#include "la/similarity.h"
#include "la/similarity_index.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/status.h"

namespace exea {
namespace {

// Rows drawn tightly around well-separated random centers — the
// clustered geometry the coarse quantizer is meant to recover.
la::Matrix ClusteredTable(uint64_t seed, size_t rows, size_t dim,
                          size_t centers) {
  Rng rng(seed);
  la::Matrix center_mat(centers, dim);
  for (size_t c = 0; c < centers; ++c) {
    for (size_t j = 0; j < dim; ++j) {
      center_mat.Row(c)[j] = static_cast<float>(rng.Normal());
    }
  }
  la::Matrix table(rows, dim);
  for (size_t r = 0; r < rows; ++r) {
    const float* center = center_mat.Row(r % centers);
    for (size_t j = 0; j < dim; ++j) {
      table.Row(r)[j] =
          center[j] + 0.15f * static_cast<float>(rng.Normal());
    }
  }
  return table;
}

// Queries perturbed off existing table rows, so ground-truth neighbors
// cluster the way real alignment queries do.
la::Matrix PerturbedQueries(uint64_t seed, const la::Matrix& table,
                            size_t count) {
  Rng rng(seed);
  la::Matrix queries(count, table.cols());
  for (size_t q = 0; q < count; ++q) {
    const float* row = table.Row(rng.UniformInt(table.rows()));
    for (size_t j = 0; j < table.cols(); ++j) {
      queries.Row(q)[j] =
          row[j] + 0.05f * static_cast<float>(rng.Normal());
    }
  }
  return queries;
}

double RecallAtK(const std::vector<std::vector<la::ScoredIndex>>& truth,
                 const std::vector<std::vector<la::ScoredIndex>>& got,
                 size_t k) {
  EXPECT_EQ(truth.size(), got.size());
  double hits = 0, total = 0;
  for (size_t q = 0; q < truth.size(); ++q) {
    size_t take = std::min(k, truth[q].size());
    total += static_cast<double>(take);
    for (size_t i = 0; i < take && i < got[q].size(); ++i) {
      for (size_t j = 0; j < take; ++j) {
        if (got[q][i].index == truth[q][j].index) {
          hits += 1;
          break;
        }
      }
    }
  }
  return total == 0 ? 1.0 : hits / total;
}

bool ResultsBitEqual(const std::vector<std::vector<la::ScoredIndex>>& a,
                     const std::vector<std::vector<la::ScoredIndex>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].index != b[q][i].index) return false;
      if (a[q][i].score != b[q][i].score) return false;
    }
  }
  return true;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string Scratch(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = ClusteredTable(7, 2000, 16, 32);
    queries_ = PerturbedQueries(11, table_, 128);
    ivf_ = la::TrainIvfIndex(table_, la::IvfOptions{});
    ASSERT_TRUE(
        la::ValidateIvfIndexData(ivf_, table_.rows(), table_.cols()).ok());
  }

  la::Matrix table_{0, 0};
  la::Matrix queries_{0, 0};
  la::IvfIndexData ivf_;
  obs::Registry registry_;
};

TEST_F(IndexTest, ExactIndexMatchesTopKByCosineAll) {
  la::ExactIndex index(&table_, &registry_);
  EXPECT_STREQ(index.name(), "exact");
  EXPECT_EQ(index.size(), table_.rows());
  auto got = index.TopKAll(queries_, 10);
  auto want = la::TopKByCosineAll(queries_, table_, 10);
  EXPECT_TRUE(ResultsBitEqual(want, got));
  EXPECT_EQ(registry_.CounterValue("index.exact.queries"), queries_.rows());
}

TEST_F(IndexTest, IvfRecallAtDefaultNprobeIsHigh) {
  la::ExactIndex exact(&table_, &registry_);
  la::IvfIndex ivf(&table_, &ivf_, &registry_);
  EXPECT_STREQ(ivf.name(), "ivf");
  EXPECT_EQ(ivf.size(), table_.rows());
  EXPECT_EQ(ivf.nprobe(), 8u);
  auto truth = exact.TopKAll(queries_, 10);
  auto got = ivf.TopKAll(queries_, 10);
  EXPECT_GE(RecallAtK(truth, got, 1), 0.97);
  EXPECT_GE(RecallAtK(truth, got, 10), 0.97);
  EXPECT_EQ(registry_.CounterValue("index.ivf.queries"), queries_.rows());
  EXPECT_EQ(registry_.CounterValue("index.recall_probe"),
            queries_.rows() * ivf.nprobe());
}

TEST_F(IndexTest, IvfRecallIsMonotoneInNprobe) {
  la::ExactIndex exact(&table_, &registry_);
  auto truth = exact.TopKAll(queries_, 10);
  la::IvfIndex ivf(&table_, &ivf_, &registry_);
  double prev = -1.0;
  for (size_t nprobe = 1; nprobe <= ivf.num_clusters(); nprobe *= 2) {
    ivf.set_nprobe(nprobe);
    double recall = RecallAtK(truth, ivf.TopKAll(queries_, 10), 10);
    EXPECT_GE(recall, prev) << "recall dropped at nprobe=" << nprobe;
    prev = recall;
  }
}

TEST_F(IndexTest, IvfWithFullProbeIsBitIdenticalToExact) {
  la::ExactIndex exact(&table_, &registry_);
  la::IvfIndex ivf(&table_, &ivf_, &registry_);
  ivf.set_nprobe(ivf.num_clusters());
  EXPECT_TRUE(
      ResultsBitEqual(exact.TopKAll(queries_, 10), ivf.TopKAll(queries_, 10)));
}

TEST_F(IndexTest, SetNprobeClampsToValidRange) {
  la::IvfIndex ivf(&table_, &ivf_, &registry_);
  ivf.set_nprobe(0);
  EXPECT_EQ(ivf.nprobe(), 1u);
  ivf.set_nprobe(ivf.num_clusters() + 100);
  EXPECT_EQ(ivf.nprobe(), ivf.num_clusters());
}

TEST_F(IndexTest, TrainingIsDeterministicPerSeed) {
  la::IvfOptions options;
  options.seed = 123;
  la::IvfIndexData a = la::TrainIvfIndex(table_, options);
  la::IvfIndexData b = la::TrainIvfIndex(table_, options);
  options.seed = 124;
  la::IvfIndexData c = la::TrainIvfIndex(table_, options);

  std::string pa = Scratch("ivf_seed_a.ivf");
  std::string pb = Scratch("ivf_seed_b.ivf");
  std::string pc = Scratch("ivf_seed_c.ivf");
  ASSERT_TRUE(la::SaveIvfIndexData(a, pa).ok());
  ASSERT_TRUE(la::SaveIvfIndexData(b, pb).ok());
  ASSERT_TRUE(la::SaveIvfIndexData(c, pc).ok());
  EXPECT_EQ(ReadFileBytes(pa), ReadFileBytes(pb))
      << "same seed must serialize to identical bytes";
  EXPECT_NE(ReadFileBytes(pa), ReadFileBytes(pc))
      << "different seeds should pick different initial centroids";
}

TEST_F(IndexTest, SaveLoadRoundTripsExactly) {
  std::string path = Scratch("ivf_roundtrip.ivf");
  ASSERT_TRUE(la::SaveIvfIndexData(ivf_, path).ok());
  auto loaded = la::LoadIvfIndexData(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(
      la::ValidateIvfIndexData(*loaded, table_.rows(), table_.cols()).ok());
  EXPECT_EQ(loaded->centroids.rows(), ivf_.centroids.rows());
  EXPECT_EQ(loaded->centroids.cols(), ivf_.centroids.cols());
  EXPECT_EQ(loaded->centroids.data(), ivf_.centroids.data());
  EXPECT_EQ(loaded->lists, ivf_.lists);
  EXPECT_EQ(loaded->nprobe, ivf_.nprobe);
  EXPECT_EQ(loaded->iterations, ivf_.iterations);
  EXPECT_EQ(loaded->seed, ivf_.seed);

  // The loaded index answers queries identically to the trained one.
  la::IvfIndex from_train(&table_, &ivf_, &registry_);
  la::IvfIndex from_load(&table_, &*loaded, &registry_);
  EXPECT_TRUE(ResultsBitEqual(from_train.TopKAll(queries_, 5),
                              from_load.TopKAll(queries_, 5)));
}

TEST_F(IndexTest, ValidateRejectsStructuralCorruption) {
  size_t rows = table_.rows(), cols = table_.cols();
  ASSERT_TRUE(la::ValidateIvfIndexData(ivf_, rows, cols).ok());

  // k-means may leave some posting lists empty; corrupt ones with rows.
  size_t nonempty = 0;
  while (ivf_.lists[nonempty].empty()) ++nonempty;
  size_t multi = 0;
  while (ivf_.lists[multi].size() < 2) ++multi;

  {  // row id out of range
    la::IvfIndexData bad = ivf_;
    bad.lists[nonempty].back() = static_cast<uint32_t>(rows);
    EXPECT_FALSE(la::ValidateIvfIndexData(bad, rows, cols).ok());
  }
  {  // duplicated row id (coverage becomes wrong too; either trips)
    la::IvfIndexData bad = ivf_;
    bad.lists[multi].back() = bad.lists[multi].front();
    EXPECT_FALSE(la::ValidateIvfIndexData(bad, rows, cols).ok());
  }
  {  // a row missing entirely
    la::IvfIndexData bad = ivf_;
    for (auto& list : bad.lists) {
      if (!list.empty()) {
        list.pop_back();
        break;
      }
    }
    EXPECT_FALSE(la::ValidateIvfIndexData(bad, rows, cols).ok());
  }
  {  // non-ascending posting list
    la::IvfIndexData bad = ivf_;
    for (auto& list : bad.lists) {
      if (list.size() >= 2) {
        std::swap(list.front(), list.back());
        break;
      }
    }
    EXPECT_FALSE(la::ValidateIvfIndexData(bad, rows, cols).ok());
  }
  {  // centroid dim mismatch against the table
    EXPECT_FALSE(la::ValidateIvfIndexData(ivf_, rows, cols + 1).ok());
  }
  {  // nprobe outside [1, num_clusters]
    la::IvfIndexData bad = ivf_;
    bad.nprobe = 0;
    EXPECT_FALSE(la::ValidateIvfIndexData(bad, rows, cols).ok());
    bad.nprobe = static_cast<uint32_t>(bad.lists.size()) + 1;
    EXPECT_FALSE(la::ValidateIvfIndexData(bad, rows, cols).ok());
  }
  {  // lists/centroids count mismatch
    la::IvfIndexData bad = ivf_;
    bad.lists.emplace_back();
    EXPECT_FALSE(la::ValidateIvfIndexData(bad, rows, cols).ok());
  }
}

TEST_F(IndexTest, LoadRejectsMalformedFiles) {
  {
    std::string path = Scratch("ivf_bad_magic.ivf");
    std::ofstream out(path);
    out << "not_an_ivf_index 1\n";
    out.close();
    EXPECT_FALSE(la::LoadIvfIndexData(path).ok());
  }
  {
    std::string good = Scratch("ivf_good.ivf");
    ASSERT_TRUE(la::SaveIvfIndexData(ivf_, good).ok());
    std::string bytes = ReadFileBytes(good);
    std::string truncated_path = Scratch("ivf_truncated.ivf");
    std::ofstream out(truncated_path, std::ios::binary);
    out << bytes.substr(0, bytes.size() / 2);
    out.close();
    EXPECT_FALSE(la::LoadIvfIndexData(truncated_path).ok());
  }
  EXPECT_FALSE(la::LoadIvfIndexData(Scratch("ivf_missing.ivf")).ok());
}

TEST(IndexEdgeTest, ClusterCountClampsToRows) {
  la::Matrix tiny = ClusteredTable(3, 5, 4, 2);
  la::IvfOptions options;
  options.num_clusters = 64;  // > rows
  la::IvfIndexData data = la::TrainIvfIndex(tiny, options);
  EXPECT_EQ(data.centroids.rows(), tiny.rows());
  EXPECT_TRUE(
      la::ValidateIvfIndexData(data, tiny.rows(), tiny.cols()).ok());
}

TEST(IndexEdgeTest, KLargerThanTableReturnsAllRows) {
  la::Matrix tiny = ClusteredTable(4, 6, 4, 2);
  la::IvfIndexData data = la::TrainIvfIndex(tiny, la::IvfOptions{});
  obs::Registry registry;
  la::ExactIndex exact(&tiny, &registry);
  la::IvfIndex ivf(&tiny, &data, &registry);
  ivf.set_nprobe(ivf.num_clusters());
  la::Matrix queries = PerturbedQueries(5, tiny, 3);
  auto exact_got = exact.TopKAll(queries, 50);
  auto ivf_got = ivf.TopKAll(queries, 50);
  for (size_t q = 0; q < queries.rows(); ++q) {
    EXPECT_EQ(exact_got[q].size(), tiny.rows());
    EXPECT_EQ(ivf_got[q].size(), tiny.rows());
  }
  EXPECT_TRUE(ResultsBitEqual(exact_got, ivf_got));
}

}  // namespace
}  // namespace exea
