// Tests for the persistence layers and the flag parser: matrix I/O,
// dataset directory I/O, and Flags.

#include <unistd.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "data/benchmarks.h"
#include "data/dataset_io.h"
#include "kg/kg_io.h"
#include "la/matrix_io.h"
#include "util/flags.h"
#include "util/rng.h"

namespace exea {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("exea_io_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

// ---------------------------------------------------------------- matrix

// Every finite float the writer can meet: both zeros, the denormal range
// from FLT_TRUE_MIN up, the normal extremes, and random bit patterns.
std::vector<float> EdgeAndRandomFloats() {
  std::vector<float> values = {
      0.0f,        -0.0f,   FLT_TRUE_MIN, -FLT_TRUE_MIN, 3 * FLT_TRUE_MIN,
      FLT_MIN / 2, std::nextafter(FLT_MIN, 0.0f),  FLT_MIN,  -FLT_MIN,
      FLT_MAX,     -FLT_MAX, 1.0f,         -0.1f};
  Rng rng(17);
  while (values.size() < 4096) {
    uint32_t bits = static_cast<uint32_t>(rng.Next());
    float value;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) values.push_back(value);
  }
  return values;
}

la::Matrix MatrixOf(const std::vector<float>& values, size_t cols) {
  la::Matrix m(values.size() / cols, cols);
  std::memcpy(m.Row(0), values.data(), m.rows() * cols * sizeof(float));
  return m;
}

// Bit-exact, so -0 stays -0 and every denormal keeps its last bit.
TEST_F(IoTest, MatrixRoundTripExact) {
  Rng rng(4);
  la::Matrix normal(7, 5);
  normal.FillNormal(rng, 1.5f);
  for (const la::Matrix& m : {normal, MatrixOf(EdgeAndRandomFloats(), 16)}) {
    std::string path = (dir_ / "m.txt").string();
    ASSERT_TRUE(la::SaveMatrix(m, path).ok());
    auto loaded = la::LoadMatrix(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->rows(), m.rows());
    ASSERT_EQ(loaded->cols(), m.cols());
    for (size_t i = 0; i < m.data().size(); ++i) {
      uint32_t want;
      uint32_t got;
      std::memcpy(&want, &m.data()[i], sizeof(want));
      std::memcpy(&got, &loaded->data()[i], sizeof(got));
      ASSERT_EQ(got, want) << "lossy at " << i << " (" << m.data()[i] << ")";
    }
  }
}

// SaveMatrix writes exactly printf("%.9g") text, the format existing
// bundles and their MANIFEST checksums were written in.
TEST_F(IoTest, SaveMatrixWritesPrintfBytes) {
  la::Matrix m = MatrixOf(EdgeAndRandomFloats(), 16);
  std::string expected =
      std::to_string(m.rows()) + " " + std::to_string(m.cols()) + "\n";
  char buf[64];
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", c == 0 ? "" : " ",
                    static_cast<double>(m.At(r, c)));
      expected += buf;
    }
    expected += "\n";
  }
  std::string path = (dir_ / "printf.txt").string();
  ASSERT_TRUE(la::SaveMatrix(m, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), expected);
}

TEST_F(IoTest, MatrixEmptyRoundTrip) {
  la::Matrix m(0, 0);
  std::string path = (dir_ / "empty.txt").string();
  ASSERT_TRUE(la::SaveMatrix(m, path).ok());
  auto loaded = la::LoadMatrix(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows(), 0u);
}

TEST_F(IoTest, MatrixLoadRejectsTruncation) {
  std::string path = (dir_ / "bad.txt").string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("2 3\n1 2 3\n4 5\n", f);  // second row short
  std::fclose(f);
  auto loaded = la::LoadMatrix(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, MatrixLoadRejectsGarbledHeader) {
  std::string path = (dir_ / "garbled.txt").string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("banana split\n1 2 3\n", f);
  std::fclose(f);
  auto loaded = la::LoadMatrix(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, MatrixLoadRejectsImplausibleDimensions) {
  // A corrupted header must fail cleanly, not attempt a huge allocation.
  std::string path = (dir_ / "huge.txt").string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("999999999 999999999\n", f);
  std::fclose(f);
  auto loaded = la::LoadMatrix(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, MatrixLoadRejectsNonNumericPayload) {
  std::string path = (dir_ / "junk.txt").string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("2 2\n1 2\nx y\n", f);
  std::fclose(f);
  auto loaded = la::LoadMatrix(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, MatrixLoadMissingFile) {
  auto loaded = la::LoadMatrix((dir_ / "absent.txt").string());
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// --------------------------------------------------------------- dataset

TEST_F(IoTest, DatasetRoundTripPreservesEverything) {
  data::EaDataset original =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  ASSERT_TRUE(data::SaveDataset(original, dir_.string()).ok());
  auto loaded = data::LoadDataset(dir_.string(), "roundtrip");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->name, "roundtrip");
  EXPECT_EQ(loaded->kg1.num_triples(), original.kg1.num_triples());
  EXPECT_EQ(loaded->kg2.num_triples(), original.kg2.num_triples());
  EXPECT_EQ(loaded->train.size(), original.train.size());
  EXPECT_EQ(loaded->test.size(), original.test.size());
  // Name-level equivalence of the gold map (ids may be re-interned).
  for (const auto& [source, target] : original.gold) {
    kg::EntityId source2 =
        loaded->kg1.FindEntity(original.kg1.EntityName(source));
    ASSERT_NE(source2, kg::kInvalidEntity);
    EXPECT_EQ(loaded->kg2.EntityName(loaded->gold.at(source2)),
              original.kg2.EntityName(target));
  }
}

TEST_F(IoTest, DatasetLoadRejectsTrainTestOverlap) {
  data::EaDataset original =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  ASSERT_TRUE(data::SaveDataset(original, dir_.string()).ok());
  // Append a train pair into the test file.
  kg::AlignedPair train_pair = original.train.SortedPairs()[0];
  std::FILE* f =
      std::fopen((dir_ / "test_links.tsv").string().c_str(), "a");
  std::fprintf(f, "%s\t%s\n",
               original.kg1.EntityName(train_pair.source).c_str(),
               original.kg2.EntityName(train_pair.target).c_str());
  std::fclose(f);
  auto loaded = data::LoadDataset(dir_.string(), "bad");
  EXPECT_FALSE(loaded.ok());
}

TEST_F(IoTest, DatasetLoadMissingFileFails) {
  auto loaded = data::LoadDataset(dir_.string(), "missing");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, DatasetLoadRejectsGarbledTriples) {
  data::EaDataset original =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  ASSERT_TRUE(data::SaveDataset(original, dir_.string()).ok());
  std::FILE* f =
      std::fopen((dir_ / "kg1_triples.tsv").string().c_str(), "a");
  std::fputs("only_two\tfields\n", f);
  std::fclose(f);
  auto loaded = data::LoadDataset(dir_.string(), "garbled");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, DatasetLoadRejectsUnknownLinkEntity) {
  data::EaDataset original =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  ASSERT_TRUE(data::SaveDataset(original, dir_.string()).ok());
  std::FILE* f =
      std::fopen((dir_ / "train_links.tsv").string().c_str(), "a");
  std::fputs("zh/Ghost\ten/Ghost\n", f);
  std::fclose(f);
  auto loaded = data::LoadDataset(dir_.string(), "ghost");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------- dictionary-pinned load

TEST_F(IoTest, DictionaryRoundTripPreservesIdOrder) {
  data::EaDataset original =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  std::string path = (dir_ / "entities.tsv").string();
  ASSERT_TRUE(
      kg::SaveDictionary(original.kg1.entity_dictionary(), path).ok());
  auto names = kg::LoadDictionaryNames(path);
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), original.kg1.num_entities());
  for (kg::EntityId e = 0; e < original.kg1.num_entities(); ++e) {
    EXPECT_EQ((*names)[e], original.kg1.EntityName(e));
  }
}

TEST_F(IoTest, DictionaryPinnedLoadReproducesIds) {
  data::EaDataset original =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  ASSERT_TRUE(data::SaveDataset(original, dir_.string()).ok());
  data::DatasetDictionaries dicts;
  for (kg::EntityId e = 0; e < original.kg1.num_entities(); ++e) {
    dicts.entities1.push_back(original.kg1.EntityName(e));
  }
  for (kg::RelationId r = 0; r < original.kg1.num_relations(); ++r) {
    dicts.relations1.push_back(original.kg1.RelationName(r));
  }
  for (kg::EntityId e = 0; e < original.kg2.num_entities(); ++e) {
    dicts.entities2.push_back(original.kg2.EntityName(e));
  }
  for (kg::RelationId r = 0; r < original.kg2.num_relations(); ++r) {
    dicts.relations2.push_back(original.kg2.RelationName(r));
  }
  auto loaded = data::LoadDataset(dir_.string(), "pinned", dicts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Every id maps to the same name as in the generating dataset — the
  // property the snapshot bundle's embedding matrices depend on.
  for (kg::EntityId e = 0; e < original.kg1.num_entities(); ++e) {
    ASSERT_EQ(loaded->kg1.EntityName(e), original.kg1.EntityName(e));
  }
  for (kg::EntityId e = 0; e < original.kg2.num_entities(); ++e) {
    ASSERT_EQ(loaded->kg2.EntityName(e), original.kg2.EntityName(e));
  }
}

TEST_F(IoTest, DictionaryPinnedLoadRejectsOutOfDictionaryNames) {
  data::EaDataset original =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  ASSERT_TRUE(data::SaveDataset(original, dir_.string()).ok());
  data::DatasetDictionaries dicts;
  // Omit the last KG1 entity: the triple files now mention a name the
  // dictionary does not pin, which must fail rather than silently extend
  // the id space past the embedding rows.
  for (kg::EntityId e = 0; e + 1 < original.kg1.num_entities(); ++e) {
    dicts.entities1.push_back(original.kg1.EntityName(e));
  }
  for (kg::RelationId r = 0; r < original.kg1.num_relations(); ++r) {
    dicts.relations1.push_back(original.kg1.RelationName(r));
  }
  for (kg::EntityId e = 0; e < original.kg2.num_entities(); ++e) {
    dicts.entities2.push_back(original.kg2.EntityName(e));
  }
  for (kg::RelationId r = 0; r < original.kg2.num_relations(); ++r) {
    dicts.relations2.push_back(original.kg2.RelationName(r));
  }
  auto loaded = data::LoadDataset(dir_.string(), "short", dicts);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------------- flags

StatusOr<Flags> ParseArgs(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, ParsesPairsAndPositionals) {
  auto flags = ParseArgs({"align", "--dir", "/tmp/x", "--epochs", "40"});
  ASSERT_TRUE(flags.ok());
  ASSERT_EQ(flags->positional().size(), 1u);
  EXPECT_EQ(flags->positional()[0], "align");
  EXPECT_EQ(flags->GetString("dir", ""), "/tmp/x");
  EXPECT_EQ(flags->GetInt("epochs", 0), 40);
  EXPECT_EQ(flags->GetInt("missing", 7), 7);
  EXPECT_TRUE(flags->Has("dir"));
  EXPECT_FALSE(flags->Has("nope"));
}

TEST(FlagsTest, EqualsSyntax) {
  auto flags = ParseArgs({"--alpha=0.25", "--name=x=y"});
  ASSERT_TRUE(flags.ok());
  EXPECT_DOUBLE_EQ(flags->GetDouble("alpha", 0), 0.25);
  EXPECT_EQ(flags->GetString("name", ""), "x=y");
}

TEST(FlagsTest, ValuelessFlagIsBooleanSwitch) {
  auto flags = ParseArgs({"--verbalize", "--limit", "5", "--no-cr1"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->Has("verbalize"));
  EXPECT_EQ(flags->GetString("verbalize", ""), "true");
  EXPECT_TRUE(flags->Has("no-cr1"));
  EXPECT_EQ(flags->GetInt("limit", 0), 5);
}

TEST(FlagsTest, StrayDoubleDashFails) {
  EXPECT_FALSE(ParseArgs({"--"}).ok());
}

TEST(FlagsTest, LaterValueWins) {
  auto flags = ParseArgs({"--k", "1", "--k", "2"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("k", 0), 2);
}

}  // namespace
}  // namespace exea
