// End-to-end tests for the serving subsystem: snapshot bundles, the query
// engine, and the NDJSON request loop. The central guarantee pinned here is
// that a served answer is byte-identical to the offline pipeline's answer
// for the same query — the snapshot round-trip must preserve the id spaces,
// the embeddings, and the alignment exactly.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/benchmarks.h"
#include "emb/model.h"
#include "eval/inference.h"
#include "explain/exea.h"
#include "explain/export.h"
#include "net/socket_io.h"
#include "obs/metrics.h"
#include "repair/pipeline.h"
#include "la/similarity_index.h"
#include "serve/async_server.h"
#include "serve/engine.h"
#include "serve/explain_cache.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace exea {
namespace {

// The frozen offline pipeline the whole file serves from: tiny dataset,
// MTransE (relation embeddings exercise the full bundle surface), greedy
// inference, full repair. Built once — training dominates the suite's
// runtime.
struct OfflinePipeline {
  data::EaDataset dataset;
  std::unique_ptr<emb::EAModel> model;
  kg::AlignmentSet aligned;
  kg::AlignmentSet repaired;

  explicit OfflinePipeline(size_t epochs = 30)
      : dataset(data::MakeBenchmark(data::Benchmark::kZhEn,
                                    data::Scale::kTiny)) {
    emb::TrainConfig config = emb::DefaultConfigFor(emb::ModelKind::kMTransE);
    config.epochs = epochs;
    model = emb::MakeModel(emb::ModelKind::kMTransE, config);
    model->Train(dataset);
    eval::RankedSimilarity ranked = eval::RankTestEntities(*model, dataset);
    aligned = eval::GreedyAlign(ranked);
    explain::ExeaExplainer explainer(dataset, *model, explain::ExeaConfig{});
    repair::RepairPipeline pipeline(explainer, repair::RepairOptions{});
    repaired = pipeline.Run(aligned, ranked).repaired_alignment;
  }

  serve::SnapshotBundle MakeBundle() const {
    serve::SnapshotBundle bundle;
    bundle.meta.model_name = model->name();
    bundle.meta.dataset_name = "serve-fixture";
    bundle.meta.inference = "greedy";
    bundle.meta.has_relation_embeddings = model->HasRelationEmbeddings();
    bundle.meta.has_repair = true;
    bundle.dataset = dataset;
    bundle.emb1 = model->EntityEmbeddings(kg::KgSide::kSource);
    bundle.emb2 = model->EntityEmbeddings(kg::KgSide::kTarget);
    bundle.rel1 = model->RelationEmbeddings(kg::KgSide::kSource);
    bundle.rel2 = model->RelationEmbeddings(kg::KgSide::kTarget);
    bundle.alignment = aligned;
    bundle.repaired = repaired;
    return bundle;
  }

  // The offline explanation JSON for a pair, exactly as CmdExplain renders
  // it (same config, same AlignmentContext).
  std::string OfflineExplainJson(kg::EntityId source,
                                 kg::EntityId target) const {
    explain::ExeaExplainer explainer(dataset, *model, explain::ExeaConfig{});
    explain::AlignmentContext context(&aligned, &dataset.train);
    explain::Explanation explanation =
        explainer.Explain(source, target, context);
    explain::Adg adg = explainer.BuildAdg(explanation);
    return StrFormat(
        "{\"explanation\":%s,\"adg\":%s}",
        explain::ExplanationToJson(explanation, dataset.kg1, dataset.kg2)
            .c_str(),
        explain::AdgToJson(adg, dataset.kg1, dataset.kg2).c_str());
  }
};

const OfflinePipeline& Pipeline() {
  static const OfflinePipeline* pipeline = new OfflinePipeline();
  return *pipeline;
}

// A second frozen pipeline over the SAME deterministic dataset (so entity
// ids and names coincide) but genuinely different embeddings — fewer
// training epochs. Hot-swap tests need two bundles whose answers differ.
const OfflinePipeline& AltPipeline() {
  static const OfflinePipeline* pipeline = new OfflinePipeline(12);
  return *pipeline;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("exea_serve_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WriteBundle() {
    std::string bundle_dir = (dir_ / "bundle").string();
    Status status = serve::WriteSnapshot(Pipeline().MakeBundle(), bundle_dir);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return bundle_dir;
  }

  // AltPipeline() frozen next to the main bundle, for hot-swap tests.
  std::string WriteAltBundle() {
    std::string bundle_dir = (dir_ / "alt_bundle").string();
    Status status =
        serve::WriteSnapshot(AltPipeline().MakeBundle(), bundle_dir);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return bundle_dir;
  }

  // Same pipeline state, but frozen with a trained IVF index over emb2.
  // nprobe == num_clusters so an IVF engine answers bit-identically to an
  // exact one — the tests below can compare the two engines directly.
  std::string WriteIvfBundle() {
    serve::SnapshotBundle bundle = Pipeline().MakeBundle();
    bundle.meta.index = "ivf";
    la::IvfOptions options;
    options.num_clusters = 4;
    options.nprobe = 4;
    bundle.ivf = la::TrainIvfIndex(bundle.emb2, options);
    std::string bundle_dir = (dir_ / "ivf_bundle").string();
    Status status = serve::WriteSnapshot(bundle, bundle_dir);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return bundle_dir;
  }

  std::filesystem::path dir_;
};

// A (source, target) pair that is both served and in the raw inference
// output, so explain/repair_status agree on it.
kg::AlignedPair ServedPair() {
  for (const kg::AlignedPair& pair : Pipeline().repaired.SortedPairs()) {
    if (Pipeline().aligned.Contains(pair.source, pair.target)) return pair;
  }
  ADD_FAILURE() << "repair kept no pair from the base alignment";
  return {};
}

// ------------------------------------------------------------- snapshots

TEST_F(ServeTest, SnapshotRoundTripIsExact) {
  std::string bundle_dir = WriteBundle();
  auto loaded = serve::ReadSnapshot(bundle_dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const serve::SnapshotBundle& bundle = **loaded;
  const OfflinePipeline& offline = Pipeline();

  EXPECT_EQ(bundle.meta.format_version, serve::kSnapshotFormatVersion);
  EXPECT_EQ(bundle.meta.model_name, offline.model->name());
  EXPECT_EQ(bundle.meta.inference, "greedy");
  EXPECT_TRUE(bundle.meta.has_relation_embeddings);
  EXPECT_TRUE(bundle.meta.has_repair);

  // Id-stable load: the dictionaries must reproduce the training-time id
  // assignment exactly, so every embedding row still belongs to its entity.
  ASSERT_EQ(bundle.dataset.kg1.num_entities(),
            offline.dataset.kg1.num_entities());
  for (kg::EntityId e = 0; e < bundle.dataset.kg1.num_entities(); ++e) {
    ASSERT_EQ(bundle.dataset.kg1.EntityName(e),
              offline.dataset.kg1.EntityName(e));
  }
  for (kg::RelationId r = 0; r < bundle.dataset.kg2.num_relations(); ++r) {
    ASSERT_EQ(bundle.dataset.kg2.RelationName(r),
              offline.dataset.kg2.RelationName(r));
  }

  // Matrices round-trip bit-exactly (the text format is chosen for that).
  const la::Matrix& emb1 = offline.model->EntityEmbeddings(kg::KgSide::kSource);
  ASSERT_EQ(bundle.emb1.rows(), emb1.rows());
  ASSERT_EQ(bundle.emb1.cols(), emb1.cols());
  EXPECT_EQ(bundle.emb1.data(), emb1.data());
  EXPECT_EQ(bundle.emb2.data(),
            offline.model->EntityEmbeddings(kg::KgSide::kTarget).data());
  EXPECT_EQ(bundle.rel1.data(),
            offline.model->RelationEmbeddings(kg::KgSide::kSource).data());
  EXPECT_EQ(bundle.rel2.data(),
            offline.model->RelationEmbeddings(kg::KgSide::kTarget).data());

  // Alignments survive pair-for-pair.
  EXPECT_EQ(bundle.alignment.SortedPairs(), offline.aligned.SortedPairs());
  EXPECT_EQ(bundle.repaired.SortedPairs(), offline.repaired.SortedPairs());
}

TEST_F(ServeTest, VersionMismatchFailsLoudly) {
  std::string bundle_dir = WriteBundle();
  // Rewrite the version line; everything else stays intact.
  std::string manifest = bundle_dir + "/MANIFEST";
  std::ifstream in(manifest);
  std::stringstream rewritten;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("exea_snapshot_version", 0) == 0) {
      rewritten << "exea_snapshot_version\t999\n";
    } else {
      rewritten << line << "\n";
    }
  }
  in.close();
  std::ofstream(manifest) << rewritten.str();

  auto loaded = serve::ReadSnapshot(bundle_dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeTest, CorruptPayloadFailsChecksum) {
  std::string bundle_dir = WriteBundle();
  // Flip one byte in the middle of an embedding file.
  std::string victim = bundle_dir + "/emb_ent1.txt";
  std::fstream file(victim,
                    std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(0, std::ios::end);
  std::streamoff size = file.tellg();
  ASSERT_GT(size, 16);
  file.seekp(size / 2);
  file.put('#');
  file.close();

  auto loaded = serve::ReadSnapshot(bundle_dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST_F(ServeTest, MissingManifestIsNotABundle) {
  auto loaded = serve::ReadSnapshot((dir_ / "nothing_here").string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// Every regular file under `dir`, by path relative to it.
std::map<std::string, std::string> TreeBytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    files[std::filesystem::relative(entry.path(), dir).string()] =
        bytes.str();
  }
  return files;
}

// The parallel loader builds the same bundle at every thread count: a
// re-freeze of what it loaded is byte-identical to the source, which pins
// the order of dictionaries, triples, attributes and links as well as
// the bits of every table.
TEST_F(ServeTest, ReadSnapshotIsThreadCountInvariant) {
  struct ResetThreads {
    ~ResetThreads() { util::SetThreadCount(0); }
  } reset;
  std::string source = WriteIvfBundle();
  std::map<std::string, std::string> expected = TreeBytes(source);
  // Every optional payload is part of the comparison.
  for (const char* file :
       {"dataset/attr_triples_1.tsv", "dataset/attr_triples_2.tsv",
        "emb_rel1.txt", "emb_rel2.txt", "index.ivf"}) {
    ASSERT_EQ(expected.count(file), 1u) << file;
  }
  for (size_t threads : {1, 2, 8}) {
    util::SetThreadCount(threads);
    auto loaded = serve::ReadSnapshot(source);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    std::string refrozen =
        (dir_ / ("refrozen_" + std::to_string(threads))).string();
    ASSERT_TRUE(serve::WriteSnapshot(**loaded, refrozen).ok());
    std::map<std::string, std::string> actual = TreeBytes(refrozen);
    ASSERT_EQ(actual.size(), expected.size()) << threads << " threads";
    for (const auto& [file, bytes] : expected) {
      EXPECT_TRUE(actual[file] == bytes) << file << " at " << threads
                                         << " threads";
    }
  }
}

// Re-freezing into the same directory from a dataset without attributes
// must not list (or load) the attribute files the first freeze left.
TEST_F(ServeTest, RefreezeWithoutAttributesListsNoAttributeFiles) {
  serve::SnapshotBundle bundle = Pipeline().MakeBundle();
  ASSERT_GT(bundle.dataset.attrs1.num_triples(), 0u);
  ASSERT_GT(bundle.dataset.attrs2.num_triples(), 0u);
  std::string bundle_dir = (dir_ / "bundle").string();
  ASSERT_TRUE(serve::WriteSnapshot(bundle, bundle_dir).ok());
  bundle.dataset.attrs1 = kg::AttributeStore();
  bundle.dataset.attrs2 = kg::AttributeStore();
  ASSERT_TRUE(serve::WriteSnapshot(bundle, bundle_dir).ok());

  std::ifstream in(bundle_dir + "/MANIFEST");
  std::stringstream manifest;
  manifest << in.rdbuf();
  EXPECT_EQ(manifest.str().find("attr_triples"), std::string::npos)
      << manifest.str();
  auto loaded = serve::ReadSnapshot(bundle_dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->dataset.attrs1.num_triples(), 0u);
  EXPECT_EQ((*loaded)->dataset.attrs2.num_triples(), 0u);
}

// ---------------------------------------------------------------- engine

TEST_F(ServeTest, ServedExplainIsByteIdenticalToOffline) {
  auto engine =
      serve::QueryEngine::Open(WriteBundle(), serve::EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const OfflinePipeline& offline = Pipeline();

  size_t checked = 0;
  for (const kg::AlignedPair& pair : offline.aligned.SortedPairs()) {
    if (++checked > 5) break;  // five pairs is plenty to pin the format
    std::string source = offline.dataset.kg1.EntityName(pair.source);
    std::string target = offline.dataset.kg2.EntityName(pair.target);
    auto served =
        (*engine)->Explain(source, target, serve::Deadline::None());
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->json,
              offline.OfflineExplainJson(pair.source, pair.target))
        << "served explanation diverged for (" << source << ", " << target
        << ")";
    EXPECT_FALSE(served->cache_hit);
  }
  ASSERT_GT(checked, 0u);
}

TEST_F(ServeTest, AlignServesRepairedTargets) {
  auto engine =
      serve::QueryEngine::Open(WriteBundle(), serve::EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const OfflinePipeline& offline = Pipeline();

  size_t checked = 0;
  for (const kg::AlignedPair& pair : offline.repaired.SortedPairs()) {
    if (++checked > 10) break;
    std::string source = offline.dataset.kg1.EntityName(pair.source);
    auto result = (*engine)->Align(source, serve::Deadline::None());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> expected;
    for (kg::EntityId t : offline.repaired.TargetsOf(pair.source)) {
      expected.push_back(offline.dataset.kg2.EntityName(t));
    }
    EXPECT_EQ(result->aligned, expected);
    ASSERT_FALSE(result->candidates.empty());
    // Candidates come back best-first.
    for (size_t i = 1; i < result->candidates.size(); ++i) {
      EXPECT_GE(result->candidates[i - 1].second,
                result->candidates[i].second);
    }
  }

  auto missing = (*engine)->Align("zh/NoSuchEntity", serve::Deadline::None());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------- similarity index

TEST_F(ServeTest, AlignReportsSearchStrategy) {
  // The tiny fixture is far below the 4096-row IVF threshold, so "auto"
  // serves exact — and every align response says so.
  auto engine =
      serve::QueryEngine::Open(WriteBundle(), serve::EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_STREQ((*engine)->AcquireState()->index().name(), "exact");
  kg::AlignedPair pair = ServedPair();
  auto result = (*engine)->Align(
      Pipeline().dataset.kg1.EntityName(pair.source), serve::Deadline::None());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->index, "exact");
}

TEST_F(ServeTest, IvfBundleRoundTripsAndServesIdentically) {
  std::string bundle_dir = WriteIvfBundle();

  // The persisted index survives the checksum-verified round trip.
  auto loaded = serve::ReadSnapshot(bundle_dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->meta.index, "ivf");
  ASSERT_FALSE((*loaded)->ivf.empty());
  EXPECT_TRUE(la::ValidateIvfIndexData((*loaded)->ivf, (*loaded)->emb2.rows(),
                                       (*loaded)->emb2.cols())
                  .ok());

  serve::EngineOptions ivf_options;
  ivf_options.index_policy = "ivf";
  auto ivf_engine = serve::QueryEngine::Open(bundle_dir, ivf_options);
  ASSERT_TRUE(ivf_engine.ok()) << ivf_engine.status().ToString();
  EXPECT_STREQ((*ivf_engine)->AcquireState()->index().name(), "ivf");

  serve::EngineOptions exact_options;
  exact_options.index_policy = "exact";
  auto exact_engine = serve::QueryEngine::Open(bundle_dir, exact_options);
  ASSERT_TRUE(exact_engine.ok()) << exact_engine.status().ToString();
  EXPECT_STREQ((*exact_engine)->AcquireState()->index().name(), "exact");

  // With nprobe == num_clusters the IVF engine is candidate-for-candidate
  // identical to the exact engine, and each response names its strategy.
  size_t checked = 0;
  for (const kg::AlignedPair& pair : Pipeline().repaired.SortedPairs()) {
    if (++checked > 5) break;
    std::string source = Pipeline().dataset.kg1.EntityName(pair.source);
    auto via_ivf = (*ivf_engine)->Align(source, serve::Deadline::None());
    auto via_exact = (*exact_engine)->Align(source, serve::Deadline::None());
    ASSERT_TRUE(via_ivf.ok()) << via_ivf.status().ToString();
    ASSERT_TRUE(via_exact.ok()) << via_exact.status().ToString();
    EXPECT_EQ(via_ivf->index, "ivf");
    EXPECT_EQ(via_exact->index, "exact");
    EXPECT_EQ(via_ivf->candidates, via_exact->candidates) << source;
    EXPECT_EQ(via_ivf->aligned, via_exact->aligned) << source;
  }
  ASSERT_GT(checked, 0u);
}

TEST_F(ServeTest, IvfPolicyOnIndexlessBundleDegradesToExact) {
  serve::EngineOptions options;
  options.index_policy = "ivf";  // bundle below has no trained index
  auto engine = serve::QueryEngine::Open(WriteBundle(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_STREQ((*engine)->AcquireState()->index().name(), "exact");
}

// Only auto|exact|ivf name a strategy. Anything else is refused by name,
// before the bundle is read (the missing directory is never reached),
// rather than served exact.
TEST_F(ServeTest, OpenRejectsUnknownIndexPolicy) {
  std::string bundle_dir = WriteBundle();
  for (const std::string policy : {"bogus", ""}) {
    serve::EngineOptions options;
    options.index_policy = policy;
    for (const std::string& dir : {bundle_dir, std::string("/no/such")}) {
      auto engine = serve::QueryEngine::Open(dir, options);
      ASSERT_FALSE(engine.ok()) << "policy '" << policy << "' dir " << dir;
      EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(engine.status().message().find("'" + policy + "'"),
                std::string::npos)
          << engine.status().message();
    }
  }
}

TEST_F(ServeTest, CorruptedPersistedIndexFailsChecksum) {
  std::string bundle_dir = WriteIvfBundle();
  std::string victim = bundle_dir + "/index.ivf";
  std::fstream file(victim, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekg(0, std::ios::end);
  std::streamoff size = file.tellg();
  ASSERT_GT(size, 16);
  file.seekp(size / 2);
  file.put('#');
  file.close();

  auto loaded = serve::ReadSnapshot(bundle_dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST_F(ServeTest, SecondExplainHitsCache) {
  // A fresh registry so the exact hit/miss counts below cannot be
  // polluted by other tests sharing obs::Registry::Global().
  obs::Registry registry;
  serve::EngineOptions options;
  options.registry = &registry;
  auto engine = serve::QueryEngine::Open(WriteBundle(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  kg::AlignedPair pair = ServedPair();
  std::string source = Pipeline().dataset.kg1.EntityName(pair.source);
  std::string target = Pipeline().dataset.kg2.EntityName(pair.target);

  auto cold = (*engine)->Explain(source, target, serve::Deadline::None());
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cache_hit);
  auto warm = (*engine)->Explain(source, target, serve::Deadline::None());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->json, cold->json);
  EXPECT_EQ(warm->confidence, cold->confidence);

  EXPECT_EQ(registry.CounterValue("serve.explain_cache.hits"), 1u);
  EXPECT_EQ(registry.CounterValue("serve.explain_cache.misses"), 1u);
  EXPECT_EQ(registry.GaugeValue("serve.explain_cache.size"), 1.0);

  (*engine)->ClearExplainCache();
  EXPECT_EQ(registry.GaugeValue("serve.explain_cache.size"), 0.0);
  auto recold = (*engine)->Explain(source, target, serve::Deadline::None());
  ASSERT_TRUE(recold.ok());
  EXPECT_FALSE(recold->cache_hit);
}

TEST_F(ServeTest, LruEvictsLeastRecentlyUsed) {
  obs::Registry registry;
  serve::EngineOptions options;
  options.explain_cache_capacity = 2;
  options.registry = &registry;
  auto engine = serve::QueryEngine::Open(WriteBundle(), options);
  ASSERT_TRUE(engine.ok());
  const OfflinePipeline& offline = Pipeline();
  std::vector<kg::AlignedPair> pairs = offline.aligned.SortedPairs();
  ASSERT_GE(pairs.size(), 3u);

  auto explain = [&](const kg::AlignedPair& pair) {
    auto result = (*engine)->Explain(
        offline.dataset.kg1.EntityName(pair.source),
        offline.dataset.kg2.EntityName(pair.target), serve::Deadline::None());
    EXPECT_TRUE(result.ok());
    return result->cache_hit;
  };
  EXPECT_FALSE(explain(pairs[0]));
  EXPECT_FALSE(explain(pairs[1]));
  EXPECT_FALSE(explain(pairs[2]));  // evicts pairs[0]
  EXPECT_EQ(registry.GaugeValue("serve.explain_cache.size"), 2.0);
  EXPECT_FALSE(explain(pairs[0]));  // cold again
  EXPECT_TRUE(explain(pairs[0]));   // and now cached
}

// The recency discipline in isolation, including the promote-on-Put fix:
// an existing key refreshed by Put must move to the front, not stay parked
// at its old position as next in line for eviction. (That is exactly what
// happens when two threads miss on the same key, both render, and the
// second Put lands after the first.)
// Epoch 0 pair keys, matching the single-version serving steady state.
serve::ExplainLruCache::Key CacheKey(uint64_t pair, uint64_t epoch = 0) {
  return serve::ExplainLruCache::Key{epoch, pair};
}

using CacheKeys = std::vector<serve::ExplainLruCache::Key>;

TEST(ExplainLruCacheTest, PutRefreshesAndPromotesExistingKey) {
  serve::ExplainLruCache cache(2);
  cache.Put(CacheKey(1), {"one", 0.1});
  cache.Put(CacheKey(2), {"two", 0.2});
  ASSERT_EQ(cache.KeysMostRecentFirst(),
            (CacheKeys{CacheKey(2), CacheKey(1)}));

  // Re-Put of the older key: entry refreshed AND promoted to the front.
  cache.Put(CacheKey(1), {"one-rerendered", 0.15});
  EXPECT_EQ(cache.KeysMostRecentFirst(),
            (CacheKeys{CacheKey(1), CacheKey(2)}));
  serve::ExplainLruCache::Entry entry;
  ASSERT_TRUE(cache.Get(CacheKey(1), &entry));
  EXPECT_EQ(entry.json, "one-rerendered");
  EXPECT_EQ(entry.confidence, 0.15);

  // The next insert over capacity must now evict 2, not the just-used 1.
  cache.Put(CacheKey(3), {"three", 0.3});
  EXPECT_EQ(cache.KeysMostRecentFirst(),
            (CacheKeys{CacheKey(3), CacheKey(1)}));
  EXPECT_FALSE(cache.Get(CacheKey(2), nullptr));
  EXPECT_TRUE(cache.Get(CacheKey(1), nullptr));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ExplainLruCacheTest, GetPromotesAndZeroCapacityDisables) {
  serve::ExplainLruCache cache(2);
  cache.Put(CacheKey(1), {"one", 0.0});
  cache.Put(CacheKey(2), {"two", 0.0});
  ASSERT_TRUE(cache.Get(CacheKey(1), nullptr));  // promote 1 over 2
  EXPECT_EQ(cache.KeysMostRecentFirst(),
            (CacheKeys{CacheKey(1), CacheKey(2)}));
  cache.Put(CacheKey(3), {"three", 0.0});  // evicts 2
  EXPECT_EQ(cache.KeysMostRecentFirst(),
            (CacheKeys{CacheKey(3), CacheKey(1)}));

  serve::ExplainLruCache disabled(0);
  disabled.Put(CacheKey(7), {"seven", 0.0});
  EXPECT_FALSE(disabled.Get(CacheKey(7), nullptr));
  EXPECT_EQ(disabled.size(), 0u);
}

// The epoch is part of the identity: the same pair rendered under two
// snapshot versions occupies two slots, and a lookup under the new epoch
// can never be satisfied by a stale entry — even if a laggard renderer of
// the old version Puts after the swap's Clear.
TEST(ExplainLruCacheTest, EpochSeparatesIdenticalPairKeys) {
  serve::ExplainLruCache cache(4);
  cache.Put(CacheKey(9, /*epoch=*/1), {"old-version", 0.1});
  cache.Put(CacheKey(9, /*epoch=*/2), {"new-version", 0.9});
  EXPECT_EQ(cache.size(), 2u);

  serve::ExplainLruCache::Entry entry;
  ASSERT_TRUE(cache.Get(CacheKey(9, 2), &entry));
  EXPECT_EQ(entry.json, "new-version");
  ASSERT_TRUE(cache.Get(CacheKey(9, 1), &entry));
  EXPECT_EQ(entry.json, "old-version");

  // A laggard Put of the old epoch after a swap-triggered Clear leaves
  // new-epoch lookups cold instead of serving the stale render.
  cache.Clear();
  cache.Put(CacheKey(9, 1), {"laggard", 0.1});
  EXPECT_FALSE(cache.Get(CacheKey(9, 2), nullptr));
}

// serve.explain_cache.size stays exact through every mutation path —
// Put inserts, Put evictions, refresh Puts, and Clear. The old engine set
// the gauge only after its own Put calls, so Clear left it stale high.
TEST(ExplainLruCacheTest, SizeGaugeTracksEveryMutation) {
  obs::Registry registry;
  obs::Gauge& gauge = registry.GetGauge("serve.explain_cache.size");
  serve::ExplainLruCache cache(2, &gauge);
  EXPECT_EQ(registry.GaugeValue("serve.explain_cache.size"), 0.0);

  cache.Put(CacheKey(1), {"one", 0.0});
  EXPECT_EQ(registry.GaugeValue("serve.explain_cache.size"), 1.0);
  cache.Put(CacheKey(2), {"two", 0.0});
  EXPECT_EQ(registry.GaugeValue("serve.explain_cache.size"), 2.0);
  cache.Put(CacheKey(1), {"one-refreshed", 0.0});  // refresh: no growth
  EXPECT_EQ(registry.GaugeValue("serve.explain_cache.size"), 2.0);
  cache.Put(CacheKey(3), {"three", 0.0});  // insert + evict: still 2
  EXPECT_EQ(registry.GaugeValue("serve.explain_cache.size"), 2.0);
  cache.Clear();
  EXPECT_EQ(registry.GaugeValue("serve.explain_cache.size"), 0.0);
}

// ------------------------------------------------------------------ hot swap

// The stale-explain-cache regression. Before the epoch-keyed cache +
// clear-on-swap, this failed: the post-swap explain served the OLD
// version's render out of the cache instead of the new bundle's answer.
TEST_F(ServeTest, SwapInvalidatesExplainCacheAndChangesAnswers) {
  obs::Registry registry;
  serve::EngineOptions options;
  options.registry = &registry;
  auto engine = serve::QueryEngine::Open(WriteBundle(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  kg::AlignedPair pair = ServedPair();
  std::string source = Pipeline().dataset.kg1.EntityName(pair.source);
  std::string target = Pipeline().dataset.kg2.EntityName(pair.target);
  // The two pipelines share the deterministic dataset, so the ids the
  // offline renders below use mean the same entities in both bundles.
  ASSERT_EQ(AltPipeline().dataset.kg1.EntityName(pair.source), source);
  ASSERT_EQ(AltPipeline().dataset.kg2.EntityName(pair.target), target);

  auto before = (*engine)->Explain(source, target, serve::Deadline::None());
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->json,
            Pipeline().OfflineExplainJson(pair.source, pair.target));
  auto warm = (*engine)->Explain(source, target, serve::Deadline::None());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);

  auto epoch = (*engine)->LoadSnapshot(WriteAltBundle());
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(registry.CounterValue("serve.explain_cache.invalidations"), 1u);
  EXPECT_EQ(registry.GaugeValue("serve.explain_cache.size"), 0.0);

  auto after = (*engine)->Explain(source, target, serve::Deadline::None());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->cache_hit);  // the stale render must not be served
  EXPECT_EQ(after->json,
            AltPipeline().OfflineExplainJson(pair.source, pair.target));
  EXPECT_NE(after->json, before->json)
      << "the two fixture bundles must disagree for this test to bite";
}

TEST_F(ServeTest, FailedLoadSnapshotKeepsCurrentVersionServing) {
  obs::Registry registry;
  serve::EngineOptions options;
  options.registry = &registry;
  auto engine = serve::QueryEngine::Open(WriteBundle(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  uint64_t epoch0 = (*engine)->EngineStatus().epoch;

  auto missing =
      (*engine)->LoadSnapshot((dir_ / "no_such_bundle").string());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  auto traversal = (*engine)->LoadSnapshot("bundles/../../etc/passwd");
  ASSERT_FALSE(traversal.ok());
  EXPECT_EQ(traversal.status().code(), StatusCode::kInvalidArgument);

  auto empty = (*engine)->LoadSnapshot("");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  // A present-but-corrupt bundle: rejected at checksum, version kept.
  std::string corrupt_dir = WriteAltBundle();
  {
    std::fstream file(corrupt_dir + "/emb_ent2.txt",
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(0, std::ios::end);
    std::streamoff size = file.tellg();
    ASSERT_GT(size, 16);
    file.seekp(size / 2);
    file.put('#');
  }
  auto corrupt = (*engine)->LoadSnapshot(corrupt_dir);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kInvalidArgument);

  serve::EngineStatusResult status = (*engine)->EngineStatus();
  EXPECT_EQ(status.epoch, epoch0);
  EXPECT_EQ(status.swaps, 0u);
  EXPECT_EQ(registry.CounterValue("serve.explain_cache.invalidations"), 0u);

  kg::AlignedPair pair = ServedPair();
  auto still = (*engine)->Align(
      Pipeline().dataset.kg1.EntityName(pair.source), serve::Deadline::None());
  EXPECT_TRUE(still.ok()) << still.status().ToString();
}

// The manager holds only the current version, so a retired version
// lives exactly as long as some reader pins it.
TEST_F(ServeTest, EngineStatusTracksVersionsAcrossSwaps) {
  obs::Registry registry;
  serve::EngineOptions options;
  options.registry = &registry;
  auto engine = serve::QueryEngine::Open(WriteBundle(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  serve::EngineStatusResult fresh = (*engine)->EngineStatus();
  EXPECT_EQ(fresh.epoch, 1u);
  EXPECT_EQ(fresh.index, "exact");
  EXPECT_EQ(fresh.index_size, Pipeline().dataset.kg2.num_entities());
  EXPECT_EQ(fresh.live_versions, 1.0);
  EXPECT_EQ(fresh.swaps, 0u);

  // A reader pins version 1 across the swap: both versions are alive.
  std::shared_ptr<const serve::ServingState> pinned =
      (*engine)->AcquireState();
  std::string alt = WriteAltBundle();
  auto second = (*engine)->LoadSnapshot(alt);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 2u);
  serve::EngineStatusResult swapped = (*engine)->EngineStatus();
  EXPECT_EQ(swapped.epoch, 2u);
  EXPECT_EQ(swapped.swaps, 1u);
  EXPECT_EQ(swapped.source, alt);
  EXPECT_EQ(swapped.live_versions, 2.0);
  EXPECT_EQ(pinned->epoch(), 1u);

  // Dropping the reader's handle frees version 1.
  pinned.reset();
  EXPECT_EQ((*engine)->EngineStatus().live_versions, 1.0);

  // With no reader pinning version 2, the next swap frees it at once.
  auto third = (*engine)->LoadSnapshot(WriteBundle());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, 3u);
  serve::EngineStatusResult settled = (*engine)->EngineStatus();
  EXPECT_EQ(settled.live_versions, 1.0);
  EXPECT_EQ(settled.swaps, 2u);
}

// The index-borrow lifetime regression, shaped for TSAN: readers align
// against whatever version they pinned while the main thread churns
// swaps. The manager holds only the current version, so every retired
// version's only lifeline is the readers' refcounted handles. With the
// old raw `&bundle_->emb2` borrow this was a use-after-free under swap.
TEST_F(ServeTest, SwapChurnWhileAlignsStayInFlight) {
  obs::Registry registry;
  serve::EngineOptions options;
  options.registry = &registry;
  auto engine = serve::QueryEngine::Open(WriteBundle(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::string a = WriteBundle();
  std::string b = WriteAltBundle();

  std::vector<std::string> names;
  for (kg::EntityId e = 0; e < Pipeline().dataset.kg1.num_entities(); ++e) {
    names.push_back(Pipeline().dataset.kg1.EntityName(e));
  }
  ASSERT_FALSE(names.empty());

  std::atomic<bool> stop{false};
  std::atomic<size_t> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load()) {
        auto result = (*engine)->Align(names[i++ % names.size()],
                                       serve::Deadline::None());
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        answered.fetch_add(1);
      }
    });
  }

  constexpr size_t kSwaps = 6;
  for (size_t swap = 0; swap < kSwaps; ++swap) {
    auto epoch = (*engine)->LoadSnapshot(swap % 2 == 0 ? b : a);
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(registry.CounterValue("serve.snapshot.swaps"), kSwaps);
  // Every retired version was actually freed once its readers drained:
  // the versions gauge decrements in the handle's deleter.
  EXPECT_EQ(registry.GaugeValue("serve.snapshot.versions"), 1.0);
}

// ------------------------------------------------------------ align memo

void ExpectSameAlign(const serve::AlignResult& got,
                     const serve::AlignResult& want) {
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.index, want.index) << got.source;
  EXPECT_EQ(got.aligned, want.aligned) << got.source;
  EXPECT_EQ(got.candidates, want.candidates) << got.source;
}

// The memo belongs to its version: after a swap to a bundle with other
// weights, an entity aligned before the swap answers from the new
// version's index, exactly as a fresh engine over that bundle does.
TEST_F(ServeTest, AlignMemoDoesNotLeakAcrossSwaps) {
  obs::Registry registry;
  serve::EngineOptions options;
  options.registry = &registry;
  auto engine = serve::QueryEngine::Open(WriteBundle(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::string alt = WriteAltBundle();
  std::string source =
      Pipeline().dataset.kg1.EntityName(ServedPair().source);

  auto before = (*engine)->Align(source, serve::Deadline::None());
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  auto again = (*engine)->Align(source, serve::Deadline::None());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ExpectSameAlign(*again, *before);
  // The second align read the memo: one top-k row in all.
  EXPECT_EQ(registry.CounterValue("index.exact.queries"), 1u);

  ASSERT_TRUE((*engine)->LoadSnapshot(alt).ok());
  auto after = (*engine)->Align(source, serve::Deadline::None());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(registry.CounterValue("index.exact.queries"), 2u);

  auto fresh = serve::QueryEngine::Open(alt, serve::EngineOptions{});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto want = (*fresh)->Align(source, serve::Deadline::None());
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectSameAlign(*after, *want);
  EXPECT_NE(after->candidates, before->candidates)
      << "the two fixture bundles must disagree for this test to bite";
}

// Cold fills race: 8 threads align the same 3 entities on a fresh engine,
// alone and in batches with duplicates, so several misses compute and
// offer the same slot at once. Every answer equals a serial engine's.
// TSAN runs this in CI.
TEST_F(ServeTest, ConcurrentColdAlignsMatchSerial) {
  std::string bundle = WriteBundle();
  std::vector<std::string> names;
  for (const kg::AlignedPair& pair : Pipeline().repaired.SortedPairs()) {
    names.push_back(Pipeline().dataset.kg1.EntityName(pair.source));
    if (names.size() == 3) break;
  }
  ASSERT_EQ(names.size(), 3u);
  const std::vector<std::string> batch = {names[0], names[1], names[0],
                                          names[2], names[1], names[0]};

  auto serial = serve::QueryEngine::Open(bundle, serve::EngineOptions{});
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  std::vector<serve::AlignResult> want;
  for (const std::string& name : names) {
    auto result = (*serial)->Align(name, serve::Deadline::None());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    want.push_back(*result);
  }

  obs::Registry registry;
  serve::EngineOptions options;
  options.registry = &registry;
  auto engine = serve::QueryEngine::Open(bundle, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int round = 0; round < 20; ++round) {
        if ((t + round) % 2 == 0) {
          size_t at = static_cast<size_t>(t + round) % names.size();
          auto result = (*engine)->Align(names[at], serve::Deadline::None());
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          ExpectSameAlign(*result, want[at]);
        } else {
          auto results =
              (*engine)->AlignBatch(batch, serve::Deadline::None());
          ASSERT_TRUE(results.ok()) << results.status().ToString();
          ASSERT_EQ(results->size(), batch.size());
          for (size_t i = 0; i < batch.size(); ++i) {
            size_t at = static_cast<size_t>(
                std::find(names.begin(), names.end(), batch[i]) -
                names.begin());
            ExpectSameAlign((*results)[i], want[at]);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every slot is filled now, so no align reaches the index again.
  uint64_t rows = registry.CounterValue("index.exact.queries");
  EXPECT_GE(rows, names.size());
  ASSERT_TRUE((*engine)->AlignBatch(batch, serve::Deadline::None()).ok());
  EXPECT_EQ(registry.CounterValue("index.exact.queries"), rows);
}

// A top_k beyond KG2's size memoizes every KG2 row, ranked.
TEST_F(ServeTest, AlignMemoHoldsAllRowsWhenTopKExceedsKg2) {
  obs::Registry registry;
  serve::EngineOptions options;
  options.registry = &registry;
  options.top_k = 1000;
  auto engine = serve::QueryEngine::Open(WriteBundle(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  size_t kg2_rows = (*engine)->AcquireState()->bundle().emb2.rows();
  ASSERT_LT(kg2_rows, options.top_k);
  std::string source =
      Pipeline().dataset.kg1.EntityName(ServedPair().source);

  auto cold = (*engine)->Align(source, serve::Deadline::None());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->candidates.size(), kg2_rows);
  auto warm = (*engine)->Align(source, serve::Deadline::None());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ExpectSameAlign(*warm, *cold);
  EXPECT_EQ(registry.CounterValue("index.exact.queries"), 1u);
}

// The IVF index memoizes like the exact one, and (nprobe ==
// num_clusters) answers identically from the memo.
TEST_F(ServeTest, AlignMemoServesIvfPolicy) {
  std::string bundle = WriteIvfBundle();
  obs::Registry registry;
  serve::EngineOptions ivf_options;
  ivf_options.registry = &registry;
  ivf_options.index_policy = "ivf";
  auto ivf = serve::QueryEngine::Open(bundle, ivf_options);
  ASSERT_TRUE(ivf.ok()) << ivf.status().ToString();
  serve::EngineOptions exact_options;
  exact_options.index_policy = "exact";
  auto exact = serve::QueryEngine::Open(bundle, exact_options);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  std::string source =
      Pipeline().dataset.kg1.EntityName(ServedPair().source);

  auto want = (*exact)->Align(source, serve::Deadline::None());
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (int pass = 0; pass < 2; ++pass) {
    auto got = (*ivf)->Align(source, serve::Deadline::None());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->index, "ivf");
    EXPECT_EQ(got->aligned, want->aligned);
    EXPECT_EQ(got->candidates, want->candidates);
  }
  EXPECT_EQ(registry.CounterValue("index.ivf.queries"), 1u);
}

// The deadline check still precedes the memo: an expired deadline on an
// entity the memo holds answers DEADLINE_EXCEEDED, as on a cold one.
TEST_F(ServeTest, ExpiredDeadlineRejectsMemoizedAlign) {
  auto engine =
      serve::QueryEngine::Open(WriteBundle(), serve::EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::string source =
      Pipeline().dataset.kg1.EntityName(ServedPair().source);
  ASSERT_TRUE((*engine)->Align(source, serve::Deadline::None()).ok());

  auto expired = (*engine)->Align(source, serve::Deadline(1e-12));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.status().message(),
            "align: deadline expired before lookup");
}

// AlignBatchFromMemo answers exactly what AlignBatch answers from the
// memo alone, and declines — without a top-k — wherever AlignBatch would
// fail or compute a row.
TEST_F(ServeTest, AlignBatchFromMemoAnswersOnlyMemoizedRows) {
  obs::Registry registry;
  serve::EngineOptions options;
  options.registry = &registry;
  auto engine = serve::QueryEngine::Open(WriteBundle(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<kg::AlignedPair> pairs = Pipeline().repaired.SortedPairs();
  ASSERT_GE(pairs.size(), 2u);
  std::string hot = Pipeline().dataset.kg1.EntityName(pairs[0].source);
  std::string cold = Pipeline().dataset.kg1.EntityName(pairs[1].source);
  const serve::Deadline none = serve::Deadline::None();

  EXPECT_FALSE((*engine)->AlignBatchFromMemo({hot}, none).has_value());
  EXPECT_EQ(registry.CounterValue("index.exact.queries"), 0u);
  auto want = (*engine)->AlignBatch({hot}, none);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  auto got = (*engine)->AlignBatchFromMemo({hot, hot}, none);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), 2u);
  ExpectSameAlign((*got)[0], (*want)[0]);
  ExpectSameAlign((*got)[1], (*want)[0]);
  EXPECT_FALSE((*engine)->AlignBatchFromMemo({hot, cold}, none).has_value());
  EXPECT_FALSE(
      (*engine)->AlignBatchFromMemo({hot, "zh/NoSuchEntity"}, none).has_value());
  EXPECT_FALSE((*engine)->AlignBatchFromMemo({}, none).has_value());
  EXPECT_FALSE(
      (*engine)->AlignBatchFromMemo({hot}, serve::Deadline(1e-12)).has_value());
  EXPECT_EQ(registry.CounterValue("index.exact.queries"), 1u);
}

TEST_F(ServeTest, NeighborsAndRepairStatus) {
  auto engine =
      serve::QueryEngine::Open(WriteBundle(), serve::EngineOptions{});
  ASSERT_TRUE(engine.ok());
  const OfflinePipeline& offline = Pipeline();
  kg::AlignedPair pair = ServedPair();
  std::string source = offline.dataset.kg1.EntityName(pair.source);
  std::string target = offline.dataset.kg2.EntityName(pair.target);

  auto neighbors = (*engine)->Neighbors(source, 1, serve::Deadline::None());
  ASSERT_TRUE(neighbors.ok());
  EXPECT_EQ(neighbors->edges.size(),
            offline.dataset.kg1.Edges(pair.source).size());

  auto bad_side = (*engine)->Neighbors(source, 3, serve::Deadline::None());
  ASSERT_FALSE(bad_side.ok());
  EXPECT_EQ(bad_side.status().code(), StatusCode::kInvalidArgument);

  auto status = (*engine)->RepairStatus(source, target,
                                        serve::Deadline::None());
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->in_base);
  EXPECT_TRUE(status->in_repaired);
  EXPECT_EQ(status->verdict, "kept");
  ASSERT_FALSE(status->repaired_targets.empty());
  EXPECT_EQ(status->repaired_targets[0], target);
}

TEST_F(ServeTest, ExpiredDeadlineRejectsButCacheStillServes) {
  auto engine =
      serve::QueryEngine::Open(WriteBundle(), serve::EngineOptions{});
  ASSERT_TRUE(engine.ok());
  kg::AlignedPair pair = ServedPair();
  std::string source = Pipeline().dataset.kg1.EntityName(pair.source);
  std::string target = Pipeline().dataset.kg2.EntityName(pair.target);

  auto expired = (*engine)->Explain(source, target, serve::Deadline(1e-12));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  // Warm the cache with no deadline; a cached answer is then served even
  // under an already-expired deadline.
  ASSERT_TRUE((*engine)->Explain(source, target, serve::Deadline::None()).ok());
  auto cached = (*engine)->Explain(source, target, serve::Deadline(1e-12));
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->cache_hit);
}

// ---------------------------------------------------------------- server

TEST(ParseFlatJsonTest, AcceptsFlatObjects) {
  auto fields = serve::ParseFlatJson(
      "{\"op\":\"align\",\"entity\":\"zh/A\",\"k\":5,\"flag\":true}");
  ASSERT_TRUE(fields.ok()) << fields.status().ToString();
  EXPECT_EQ((*fields)["op"], "align");
  EXPECT_EQ((*fields)["entity"], "zh/A");
  EXPECT_EQ((*fields)["k"], "5");
  EXPECT_EQ((*fields)["flag"], "true");
}

TEST(ParseFlatJsonTest, DecodesEscapes) {
  auto fields =
      serve::ParseFlatJson("{\"a\":\"x\\n\\\"y\\\"\",\"b\":\"\\u0041\"}");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ((*fields)["a"], "x\n\"y\"");
  EXPECT_EQ((*fields)["b"], "A");
}

TEST(ParseFlatJsonTest, RejectsGarbage) {
  EXPECT_FALSE(serve::ParseFlatJson("not json").ok());
  EXPECT_FALSE(serve::ParseFlatJson("").ok());
  EXPECT_FALSE(serve::ParseFlatJson("{\"a\":{\"nested\":1}}").ok());
  EXPECT_FALSE(serve::ParseFlatJson("{\"a\":[1,2]}").ok());
  EXPECT_FALSE(serve::ParseFlatJson("{\"a\":\"unterminated").ok());
  EXPECT_FALSE(serve::ParseFlatJson("{\"a\":\"b\"} trailing").ok());
  EXPECT_FALSE(serve::ParseFlatJson("{\"a\" \"b\"}").ok());
}

TEST(JsonEscapeTest, EscapesControlAndQuotes) {
  EXPECT_EQ(serve::JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(serve::JsonEscape(std::string(1, '\x01')), "\\u0001");
}

class ServerTest : public ServeTest {
 protected:
  void StartServer(double deadline_seconds = 5.0) {
    serve::EngineOptions engine_options;
    engine_options.registry = &registry_;
    auto engine = serve::QueryEngine::Open(WriteBundle(), engine_options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);
    serve::ServerOptions options;
    options.deadline_seconds = deadline_seconds;
    // options.registry stays nullptr: the server must then share the
    // engine's (injected) registry, which is the production default too.
    server_ = std::make_unique<serve::Server>(engine_.get(), options);
  }

  uint64_t Requests() const {
    return registry_.CounterValue("serve.requests");
  }

  // A fresh registry per test so exact-count assertions never see another
  // test's traffic through obs::Registry::Global().
  obs::Registry registry_;
  std::unique_ptr<serve::QueryEngine> engine_;
  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServerTest, MalformedRequestDoesNotKillTheLoop) {
  StartServer();
  std::string bad = server_->HandleLine("this is not json");
  EXPECT_EQ(bad.rfind("{\"ok\":false", 0), 0u) << bad;
  EXPECT_NE(bad.find("INVALID_ARGUMENT"), std::string::npos);

  std::string unknown_op = server_->HandleLine("{\"op\":\"frobnicate\"}");
  EXPECT_EQ(unknown_op.rfind("{\"ok\":false", 0), 0u);

  std::string missing_field = server_->HandleLine("{\"op\":\"align\"}");
  EXPECT_EQ(missing_field.rfind("{\"ok\":false", 0), 0u);

  // The server is still fully functional afterwards.
  kg::AlignedPair pair = ServedPair();
  std::string request = StrFormat(
      "{\"op\":\"align\",\"entity\":\"%s\"}",
      Pipeline().dataset.kg1.EntityName(pair.source).c_str());
  std::string good = server_->HandleLine(request);
  EXPECT_EQ(good.rfind("{\"ok\":true,\"op\":\"align\"", 0), 0u) << good;

  EXPECT_EQ(Requests(), 4u);
  EXPECT_EQ(registry_.CounterValue("serve.malformed"), 1u);
  EXPECT_EQ(registry_.CounterValue("serve.errors"), 3u);
  EXPECT_EQ(registry_.CounterValue("serve.ok"), 1u);
}

TEST_F(ServerTest, UnknownEntityMapsToNotFound) {
  StartServer();
  std::string response =
      server_->HandleLine("{\"op\":\"align\",\"entity\":\"zh/Nope\"}");
  EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u);
  EXPECT_NE(response.find("\"NOT_FOUND\""), std::string::npos);
}

TEST_F(ServerTest, NeighborsSideFieldIsCheckParsed) {
  StartServer();
  kg::AlignedPair pair = ServedPair();
  std::string source = Pipeline().dataset.kg1.EntityName(pair.source);
  std::string target = Pipeline().dataset.kg2.EntityName(pair.target);

  // The pre-repair handler ran atoi on `side`: "abc" became side 0 and
  // "2junk" became a valid-looking side 2. Both must now be rejected up
  // front with a Status that names the field.
  for (const char* bad : {"abc", "2junk", "0", "3", "-1", ""}) {
    std::string response = server_->HandleLine(StrFormat(
        "{\"op\":\"neighbors\",\"entity\":\"%s\",\"side\":\"%s\"}",
        source.c_str(), bad));
    EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u) << bad;
    EXPECT_NE(response.find("INVALID_ARGUMENT"), std::string::npos) << bad;
    EXPECT_NE(response.find("'side'"), std::string::npos) << bad;
  }

  std::string side2 = server_->HandleLine(StrFormat(
      "{\"op\":\"neighbors\",\"entity\":\"%s\",\"side\":\"2\"}",
      target.c_str()));
  EXPECT_EQ(side2.rfind("{\"ok\":true", 0), 0u) << side2;
}

TEST_F(ServerTest, AlignKFieldIsCheckParsed) {
  StartServer();
  kg::AlignedPair pair = ServedPair();
  std::string source = Pipeline().dataset.kg1.EntityName(pair.source);
  for (const char* bad : {"abc", "0", "-2", "1001", "5junk"}) {
    std::string response = server_->HandleLine(StrFormat(
        "{\"op\":\"align\",\"entity\":\"%s\",\"k\":\"%s\"}",
        source.c_str(), bad));
    EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u) << bad;
    EXPECT_NE(response.find("'k'"), std::string::npos) << bad;
  }
  std::string good = server_->HandleLine(StrFormat(
      "{\"op\":\"align\",\"entity\":\"%s\",\"k\":\"1\"}", source.c_str()));
  EXPECT_EQ(good.rfind("{\"ok\":true", 0), 0u) << good;
}

TEST_F(ServerTest, DeadlineMsFieldIsCheckParsed) {
  StartServer();
  kg::AlignedPair pair = ServedPair();
  std::string source = Pipeline().dataset.kg1.EntityName(pair.source);
  for (const char* bad :
       {"abc", "0", "-5", "3600001", "99999999999999999999", "250ms"}) {
    std::string response = server_->HandleLine(StrFormat(
        "{\"op\":\"align\",\"entity\":\"%s\",\"deadline_ms\":\"%s\"}",
        source.c_str(), bad));
    EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u) << bad;
    EXPECT_NE(response.find("'deadline_ms'"), std::string::npos) << bad;
  }
  std::string good = server_->HandleLine(StrFormat(
      "{\"op\":\"align\",\"entity\":\"%s\",\"deadline_ms\":\"5000\"}",
      source.c_str()));
  EXPECT_EQ(good.rfind("{\"ok\":true", 0), 0u) << good;
}

TEST_F(ServerTest, FullSessionOverStreams) {
  StartServer();
  kg::AlignedPair pair = ServedPair();
  std::string source = Pipeline().dataset.kg1.EntityName(pair.source);
  std::string target = Pipeline().dataset.kg2.EntityName(pair.target);

  std::stringstream in;
  in << StrFormat("{\"op\":\"align\",\"entity\":\"%s\"}\n", source.c_str())
     << StrFormat("{\"op\":\"explain\",\"source\":\"%s\",\"target\":\"%s\"}\n",
                  source.c_str(), target.c_str())
     << StrFormat("{\"op\":\"explain\",\"source\":\"%s\",\"target\":\"%s\"}\n",
                  source.c_str(), target.c_str())
     << "\n"  // blank lines are skipped, not answered
     << "{\"op\":\"stats\"}\n"
     << "{\"op\":\"shutdown\"}\n"
     << "{\"op\":\"stats\"}\n";  // after shutdown: never read
  std::stringstream out;
  server_->Serve(in, out);

  std::vector<std::string> lines;
  std::string line;
  while (std::getline(out, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0].rfind("{\"ok\":true,\"op\":\"align\"", 0), 0u);
  EXPECT_NE(lines[1].find("\"cache_hit\":false"), std::string::npos);
  EXPECT_NE(lines[2].find("\"cache_hit\":true"), std::string::npos);
  EXPECT_NE(lines[3].find("\"explain_cache_hits\":1"), std::string::npos);
  EXPECT_EQ(lines[4], "{\"ok\":true,\"op\":\"shutdown\"}");
  EXPECT_TRUE(server_->shutdown_requested());
  EXPECT_EQ(Requests(), 5u);
}

TEST_F(ServerTest, BatchedAlignAnswersEveryEntity) {
  StartServer();
  const OfflinePipeline& offline = Pipeline();
  std::vector<kg::AlignedPair> pairs = offline.repaired.SortedPairs();
  ASSERT_GE(pairs.size(), 2u);
  std::string names =
      offline.dataset.kg1.EntityName(pairs[0].source) + "," +
      offline.dataset.kg1.EntityName(pairs[1].source);
  std::string response = server_->HandleLine(
      StrFormat("{\"op\":\"align\",\"entities\":\"%s\"}", names.c_str()));
  EXPECT_EQ(response.rfind("{\"ok\":true,\"op\":\"align\",\"results\":[", 0),
            0u)
      << response;
  EXPECT_NE(
      response.find(offline.dataset.kg1.EntityName(pairs[1].source)),
      std::string::npos);
}

TEST_F(ServerTest, AlignAndStatsResponsesCarryIndexField) {
  StartServer();
  kg::AlignedPair pair = ServedPair();
  std::string response = server_->HandleLine(StrFormat(
      "{\"op\":\"align\",\"entity\":\"%s\"}",
      Pipeline().dataset.kg1.EntityName(pair.source).c_str()));
  EXPECT_NE(response.find("\"index\":\"exact\""), std::string::npos)
      << response;
  std::string stats = server_->HandleLine("{\"op\":\"stats\"}");
  EXPECT_NE(stats.find("\"index\":\"exact\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"index_size\":"), std::string::npos) << stats;
}

TEST_F(ServerTest, LoadSnapshotOpSwapsAndEngineStatusReports) {
  StartServer();
  std::string alt = WriteAltBundle();

  std::string status0 = server_->HandleLine("{\"op\":\"engine_status\"}");
  EXPECT_EQ(status0.rfind("{\"ok\":true", 0), 0u) << status0;
  EXPECT_NE(status0.find("\"epoch\":1"), std::string::npos) << status0;
  EXPECT_NE(status0.find("\"swaps\":0"), std::string::npos) << status0;
  EXPECT_NE(status0.find("\"live_versions\":1"), std::string::npos)
      << status0;

  std::string swap = server_->HandleLine(StrFormat(
      "{\"op\":\"load_snapshot\",\"dir\":\"%s\"}",
      serve::JsonEscape(alt).c_str()));
  EXPECT_EQ(swap, "{\"ok\":true,\"op\":\"load_snapshot\",\"epoch\":2,"
                  "\"swaps\":1}");

  std::string status1 = server_->HandleLine("{\"op\":\"engine_status\"}");
  EXPECT_NE(status1.find("\"epoch\":2"), std::string::npos) << status1;
  EXPECT_NE(status1.find("\"swaps\":1"), std::string::npos) << status1;

  // The stats payload carries the versioning keys too.
  std::string stats = server_->HandleLine("{\"op\":\"stats\"}");
  EXPECT_NE(stats.find("\"epoch\":2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"snapshot_swaps\":1"), std::string::npos) << stats;
}

TEST_F(ServerTest, LoadSnapshotOpRejectsHostileDirsAndKeepsServing) {
  StartServer();
  kg::AlignedPair pair = ServedPair();
  std::string align = StrFormat(
      "{\"op\":\"align\",\"entity\":\"%s\"}",
      Pipeline().dataset.kg1.EntityName(pair.source).c_str());
  std::string baseline = server_->HandleLine(align);
  ASSERT_EQ(baseline.rfind("{\"ok\":true", 0), 0u) << baseline;

  std::string no_dir = server_->HandleLine("{\"op\":\"load_snapshot\"}");
  EXPECT_EQ(no_dir.rfind("{\"ok\":false", 0), 0u) << no_dir;
  EXPECT_NE(no_dir.find("INVALID_ARGUMENT"), std::string::npos) << no_dir;

  std::string missing = server_->HandleLine(
      "{\"op\":\"load_snapshot\",\"dir\":\"/nonexistent/bundle\"}");
  EXPECT_EQ(missing.rfind("{\"ok\":false", 0), 0u) << missing;
  EXPECT_NE(missing.find("NOT_FOUND"), std::string::npos) << missing;

  std::string traversal = server_->HandleLine(
      "{\"op\":\"load_snapshot\",\"dir\":\"bundles/../../etc\"}");
  EXPECT_EQ(traversal.rfind("{\"ok\":false", 0), 0u) << traversal;
  EXPECT_NE(traversal.find("INVALID_ARGUMENT"), std::string::npos)
      << traversal;

  // Every rejection left the current version untouched: same bytes out.
  EXPECT_EQ(server_->HandleLine(align), baseline);
  std::string status = server_->HandleLine("{\"op\":\"engine_status\"}");
  EXPECT_NE(status.find("\"epoch\":1"), std::string::npos) << status;
  EXPECT_NE(status.find("\"swaps\":0"), std::string::npos) << status;
}

// Exercised under TSAN by ci/check.sh: concurrent HandleLine callers must
// not race on the registry counters (atomics), the latency histogram
// (mutex per Record), or the engine's explain cache. Pinning exact totals
// also proves no increment was lost to a torn update.
TEST_F(ServerTest, ConcurrentHandleLineKeepsCountersExact) {
  StartServer();
  kg::AlignedPair pair = ServedPair();
  const std::string align_request = StrFormat(
      "{\"op\":\"align\",\"entity\":\"%s\"}",
      Pipeline().dataset.kg1.EntityName(pair.source).c_str());
  const std::string explain_request = StrFormat(
      "{\"op\":\"explain\",\"source\":\"%s\",\"target\":\"%s\"}",
      Pipeline().dataset.kg1.EntityName(pair.source).c_str(),
      Pipeline().dataset.kg2.EntityName(pair.target).c_str());
  constexpr int kPerThread = 25;
  std::vector<std::thread> workers;
  workers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string request;
        switch (t) {
          case 0: request = align_request; break;
          case 1: request = explain_request; break;
          case 2: request = "{\"op\":\"stats\"}"; break;
          default: request = "not json"; break;
        }
        std::string response = server_->HandleLine(request);
        EXPECT_FALSE(response.empty());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(Requests(), 4u * kPerThread);
  EXPECT_EQ(registry_.CounterValue("serve.malformed"), 1u * kPerThread);
  EXPECT_EQ(registry_.CounterValue("serve.ok"), 3u * kPerThread);
  EXPECT_EQ(registry_.CounterValue("serve.errors"), 1u * kPerThread);
  EXPECT_EQ(registry_.HistogramSnapshot("serve.latency_ms").count,
            4u * kPerThread);
  EXPECT_EQ(registry_.CounterValue("serve.op.align"),
            static_cast<uint64_t>(kPerThread));
}

TEST_F(ServerTest, OverDeadlineRequestAnswersAndLoopContinues) {
  StartServer(/*deadline_seconds=*/1e-12);
  kg::AlignedPair pair = ServedPair();
  std::string response = server_->HandleLine(StrFormat(
      "{\"op\":\"explain\",\"source\":\"%s\",\"target\":\"%s\"}",
      Pipeline().dataset.kg1.EntityName(pair.source).c_str(),
      Pipeline().dataset.kg2.EntityName(pair.target).c_str()));
  EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u) << response;
  EXPECT_NE(response.find("\"DEADLINE_EXCEEDED\""), std::string::npos);
  EXPECT_EQ(registry_.CounterValue("serve.deadline_exceeded"), 1u);

  // stats carries no deadline-bound work and still answers.
  std::string stats = server_->HandleLine("{\"op\":\"stats\"}");
  EXPECT_EQ(stats.rfind("{\"ok\":true,\"op\":\"stats\"", 0), 0u);
}

// Outcomes are counted from the handler's Status code, not by searching
// the response text: a NOT_FOUND whose message happens to end in
// "DEADLINE_EXCEEDED (the client chose the entity name) is an error, not a
// timeout.
TEST_F(ServerTest, DeadlineCounterFollowsStatusCodeNotResponseText) {
  StartServer();
  std::string response = server_->HandleLine(
      "{\"op\":\"align\",\"entity\":\"\\\"DEADLINE_EXCEEDED\"}");
  EXPECT_NE(response.find("\"NOT_FOUND\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"DEADLINE_EXCEEDED\""), std::string::npos)
      << "the request no longer exercises text matching: " << response;
  EXPECT_EQ(registry_.CounterValue("serve.errors"), 1u);
  EXPECT_EQ(registry_.CounterValue("serve.deadline_exceeded"), 0u);
}

// Per-op counters come from a fixed table: every unknown op name shares
// serve.op.(unknown), so a client cycling through fresh names cannot grow
// the registry.
TEST_F(ServerTest, UnknownOpsShareOneCounter) {
  StartServer();
  for (int i = 0; i < 1000; ++i) {
    std::string response =
        server_->HandleLine(StrFormat("{\"op\":\"frob%d\"}", i));
    ASSERT_NE(response.find("unknown op: frob"), std::string::npos)
        << response;
  }
  // align, explain, neighbors, repair_status, stats, load_snapshot,
  // engine_status, shutdown, (none), (unknown).
  constexpr size_t kOpTableSize = 10;
  EXPECT_LE(registry_.CountersWithPrefix("serve.op.").size(), kOpTableSize);
  EXPECT_EQ(registry_.CounterValue("serve.op.(unknown)"), 1000u);
  EXPECT_EQ(registry_.CounterValue("serve.errors"), 1000u);
}

// Pulls one "key":number value out of a flat JSON stats line.
double JsonNumber(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << "no " << key << " in " << json;
  if (pos == std::string::npos) return -1.0;
  return std::atof(json.c_str() + pos + needle.size());
}

// The latency-accounting bias this PR fixes. The old server kept at most
// 2^20 raw latency samples and silently dropped the rest, freezing the
// reported percentiles on the warm-up window: a service that turned slow
// after a million fast requests reported fast percentiles forever. The
// histogram has no cap, so a slow tail arriving after the old cap must
// move the served p99. This test drives the path through the public stats
// op, pre-filling the same registry histogram HandleLine records into.
TEST_F(ServerTest, StatsPercentilesSeeSamplesPastTheOldCap) {
  StartServer();
  constexpr size_t kOldCap = 1u << 20;  // the retired kMaxLatencySamples
  obs::Histogram& latency = registry_.GetHistogram("serve.latency_ms");
  for (size_t i = 0; i < kOldCap; ++i) latency.Record(0.1);

  std::string before = server_->HandleLine("{\"op\":\"stats\"}");
  ASSERT_EQ(before.rfind("{\"ok\":true,\"op\":\"stats\"", 0), 0u) << before;
  EXPECT_LT(JsonNumber(before, "latency_p99_ms"), 1.0);

  // A slow regression arrives after the old cap: 2% of total traffic at
  // 400ms. Under the capped scheme every one of these samples would have
  // been dropped; with the histogram the p99 rank lands in the slow tail.
  size_t slow = kOldCap / 50;
  for (size_t i = 0; i < slow; ++i) latency.Record(400.0);

  std::string after = server_->HandleLine("{\"op\":\"stats\"}");
  double p99 = JsonNumber(after, "latency_p99_ms");
  EXPECT_GT(p99, 300.0) << after;  // ≈400 up to one bucket width (~9%)
  EXPECT_LT(p99, 500.0) << after;
  // Every sample is accounted for: the cap is really gone. (+2 stats ops,
  // minus nothing.)
  EXPECT_EQ(registry_.HistogramSnapshot("serve.latency_ms").count,
            kOldCap + slow + 2);
}

// ----------------------------------------------------------- async server

// A blocking NDJSON client against the async server, built on the same
// net/ primitives the server uses.
int ConnectOrFail(int port) {
  auto connected = net::ConnectLocal(port);
  EXPECT_TRUE(connected.ok()) << connected.status().ToString();
  return connected.ok() ? *connected : -1;
}

class AsyncClient {
 public:
  explicit AsyncClient(int port)
      : fd_(ConnectOrFail(port)), reader_(fd_) {}
  ~AsyncClient() { Close(); }

  bool connected() const { return fd_ >= 0; }
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  [[nodiscard]] bool Send(const std::string& line) {
    return net::WriteAll(fd_, line + "\n").ok();
  }

  // One response line, or "" on EOF.
  std::string ReadLine() {
    std::string line;
    bool truncated = false;
    size_t observed = 0;
    if (!reader_.ReadLine(1 << 24, &line, &truncated, &observed)) return "";
    return line;
  }

  // Round trip: one request, its response.
  std::string Ask(const std::string& request) {
    if (!Send(request)) return "";
    return ReadLine();
  }

 private:
  int fd_;
  net::LineReader reader_;
};

class AsyncServerTest : public ServeTest {
 protected:
  void StartAsync(serve::AsyncServerOptions options = {}) {
    StartAsyncOn(WriteBundle(), serve::EngineOptions{}, options);
  }

  // Serves `bundle` through an engine built with `engine_options` (its
  // registry replaced by registry_).
  void StartAsyncOn(const std::string& bundle,
                    serve::EngineOptions engine_options,
                    const serve::AsyncServerOptions& options) {
    engine_options.registry = &registry_;
    auto engine = serve::QueryEngine::Open(bundle, engine_options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);
    // options.server.registry stays nullptr: the async server must share
    // the engine's (injected) registry, like the blocking path does.
    async_ = std::make_unique<serve::AsyncServer>(engine_.get(), options);
    Status started = async_->Start(0);
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  // Parks the memo filler before its first block until the test ends, so
  // a version's memo fills only through aligns that miss it — each of
  // which reaches a worker.
  void HoldFiller(serve::AsyncServerOptions* options) {
    options->filler_hook_for_test = [this] {
      std::unique_lock<std::mutex> lock(filler_mu_);
      filler_cv_.wait(lock, [this] { return filler_released_; });
    };
  }

  // Waits until the current version reports every memo row filled.
  void AwaitFullMemo() {
    for (int waited_ms = 0; waited_ms < 20000; ++waited_ms) {
      serve::EngineStatusResult status = engine_->EngineStatus();
      if (status.memo_filled == status.memo_rows) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "the memo filler never filled the current version";
  }

  void TearDown() override {
    {
      std::lock_guard<std::mutex> lock(filler_mu_);
      filler_released_ = true;
    }
    filler_cv_.notify_all();
    async_.reset();  // joins loops, workers and filler before the engine dies
    engine_.reset();
    ServeTest::TearDown();
  }

  obs::Registry registry_;
  std::unique_ptr<serve::QueryEngine> engine_;
  std::unique_ptr<serve::AsyncServer> async_;
  std::mutex filler_mu_;
  std::condition_variable filler_cv_;
  bool filler_released_ = false;
};

TEST_F(AsyncServerTest, ServedBytesMatchHandleLineForEveryOp) {
  StartAsync();
  kg::AlignedPair pair = ServedPair();
  std::string source = Pipeline().dataset.kg1.EntityName(pair.source);
  std::string target = Pipeline().dataset.kg2.EntityName(pair.target);
  std::vector<kg::AlignedPair> pairs = Pipeline().repaired.SortedPairs();
  ASSERT_GE(pairs.size(), 2u);
  std::string other = Pipeline().dataset.kg1.EntityName(pairs[1].source);

  // The reference: an ordinary blocking Server over the same engine. The
  // async path runs every op through the loop, the queue and a worker —
  // none of which may change a single byte.
  serve::Server reference(engine_.get(), serve::ServerOptions{});

  std::vector<std::string> requests = {
      StrFormat("{\"op\":\"align\",\"entity\":\"%s\"}", source.c_str()),
      StrFormat("{\"op\":\"align\",\"entities\":\"%s,%s\"}", source.c_str(),
                other.c_str()),
      StrFormat("{\"op\":\"explain\",\"source\":\"%s\",\"target\":\"%s\"}",
                source.c_str(), target.c_str()),
      StrFormat("{\"op\":\"neighbors\",\"entity\":\"%s\"}", source.c_str()),
      StrFormat("{\"op\":\"repair_status\",\"source\":\"%s\","
                "\"target\":\"%s\"}",
                source.c_str(), target.c_str()),
      "{\"op\":\"align\",\"entity\":\"zh/NoSuchEntity\"}",
      "{\"op\":\"align\"}",
      "{\"op\":\"frobnicate\"}",
      "this is not json",
      // Hostile numeric fields: the checked-parse rejections must also be
      // byte-identical between the async and blocking paths.
      StrFormat("{\"op\":\"align\",\"entity\":\"%s\",\"k\":\"1junk\"}",
                source.c_str()),
      StrFormat("{\"op\":\"neighbors\",\"entity\":\"%s\",\"side\":\"-1\"}",
                source.c_str()),
      StrFormat("{\"op\":\"align\",\"entity\":\"%s\","
                "\"deadline_ms\":\"99999999999999999999\"}",
                source.c_str()),
  };

  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  for (const std::string& request : requests) {
    // Cold explain cache on both sides, so cache_hit agrees.
    engine_->ClearExplainCache();
    std::string served = client.Ask(request);
    engine_->ClearExplainCache();
    std::string expected = reference.HandleLine(request);
    EXPECT_EQ(served, expected) << "request: " << request;
  }
}

// Concurrent aligns over TCP: each worker runs its own top-k while the
// others run theirs, and no response may differ by a byte from
// HandleLine's. The reference runs on a second engine over the same
// bundle, so the served engine's align memo starts cold and the clients'
// first aligns race to fill it. TSAN runs this in CI.
TEST_F(AsyncServerTest, ConcurrentAlignsMatchHandleLine) {
  StartAsync();
  auto reference_engine = serve::QueryEngine::Open(
      (dir_ / "bundle").string(), serve::EngineOptions{});
  ASSERT_TRUE(reference_engine.ok()) << reference_engine.status().ToString();
  serve::Server reference(reference_engine->get(), serve::ServerOptions{});
  std::vector<std::string> requests;
  std::vector<std::string> expected;
  for (kg::EntityId e = 0; e < Pipeline().dataset.kg1.num_entities(); ++e) {
    requests.push_back(StrFormat(
        "{\"op\":\"align\",\"entity\":\"%s\"}",
        Pipeline().dataset.kg1.EntityName(e).c_str()));
    expected.push_back(reference.HandleLine(requests.back()));
  }
  ASSERT_FALSE(requests.empty());

  // Every client streams the whole entity list, starting at its own
  // offset, before reading any response back, so the workers always have
  // aligns from several connections to run at once. The admission queue
  // holds all of them, so none is refused.
  constexpr size_t kClients = 4;
  ASSERT_LE(kClients * requests.size(),
            serve::AsyncServerOptions{}.queue_capacity);
  std::atomic<size_t> matched{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      size_t offset = c * requests.size() / kClients;
      AsyncClient client(async_->port());
      ASSERT_TRUE(client.connected());
      for (size_t i = 0; i < requests.size(); ++i) {
        ASSERT_TRUE(client.Send(requests[(offset + i) % requests.size()]));
      }
      for (size_t i = 0; i < requests.size(); ++i) {
        size_t at = (offset + i) % requests.size();
        std::string served = client.ReadLine();
        ASSERT_EQ(served, expected[at]) << "request: " << requests[at];
        matched.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(matched.load(), kClients * requests.size());
}

TEST_F(AsyncServerTest, HostileNumericFieldsRejectWithoutAllocating) {
  StartAsync();
  kg::AlignedPair pair = ServedPair();
  std::string source = Pipeline().dataset.kg1.EntityName(pair.source);
  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  // A huge or garbage k/side/deadline_ms must come back as a structured
  // INVALID_ARGUMENT without the worker ever sizing a buffer from the
  // hostile value (the parse rejects before any allocation can happen).
  for (const char* request :
       {"{\"op\":\"align\",\"entity\":\"%s\",\"k\":\"987654321987\"}",
        "{\"op\":\"align\",\"entity\":\"%s\",\"k\":\"-999999\"}",
        "{\"op\":\"align\",\"entity\":\"%s\",\"k\":\"1e9\"}",
        "{\"op\":\"neighbors\",\"entity\":\"%s\",\"side\":\"2junk\"}",
        "{\"op\":\"align\",\"entity\":\"%s\",\"deadline_ms\":\"-1\"}"}) {
    std::string response =
        client.Ask(StrFormat(request, source.c_str()));
    EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u) << response;
    EXPECT_NE(response.find("INVALID_ARGUMENT"), std::string::npos)
        << response;
  }
  // The loop (and its counters) survived all five rejections.
  std::string stats = client.Ask("{\"op\":\"stats\"}");
  EXPECT_EQ(stats.rfind("{\"ok\":true,\"op\":\"stats\"", 0), 0u) << stats;
}

TEST_F(AsyncServerTest, StatsCarriesAdmissionCounters) {
  StartAsync();
  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  std::string stats = client.Ask("{\"op\":\"stats\"}");
  EXPECT_EQ(stats.rfind("{\"ok\":true,\"op\":\"stats\"", 0), 0u) << stats;
  EXPECT_NE(stats.find("\"rejected\":0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"shed\":0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"queue_depth\":"), std::string::npos) << stats;
}

TEST_F(AsyncServerTest, FullQueueRejectsImmediatelyWithUnavailable) {
  serve::AsyncServerOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  // A gate that parks the single worker on its first dequeue, so the
  // queue's fill level is fully under the test's control. The hook runs
  // before that first align does, and the memo filler is held, so the
  // memo stays cold and every line below is a miss that reaches the queue
  // rather than the loop's memo.
  HoldFiller(&options);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool worker_parked = false;
  bool gate_open = false;
  options.worker_hook_for_test = [&] {
    std::unique_lock<std::mutex> lock(gate_mu);
    worker_parked = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  StartAsync(options);

  kg::AlignedPair pair = ServedPair();
  std::string request = StrFormat("{\"op\":\"align\",\"entity\":\"%s\"}",
                                  Pipeline().dataset.kg1.EntityName(
                                      pair.source).c_str());

  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  // First request: popped by the worker, which parks in the gate.
  ASSERT_TRUE(client.Send(request));
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  // The worker is held and the queue is empty: the next two requests
  // fill it, and the two after that must be rejected at admission.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(client.Send(request));
  // Open the gate only once the loop has read all four. Each request
  // leaves the client in its own segment (TCP_NODELAY), so a gate opened
  // as soon as the writes return lets the worker drain the queue before
  // the loop reads the last two.
  for (int waited_ms = 0;
       registry_.CounterValue("serve.rejected") < 2 && waited_ms < 5000;
       ++waited_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_open = true;
    gate_cv.notify_all();
  }

  // Responses still arrive in request order: the rejections were
  // generated first but the loop holds them behind the slower worker
  // responses for the earlier sequence numbers.
  for (int i = 0; i < 3; ++i) {
    std::string response = client.ReadLine();
    EXPECT_EQ(response.rfind("{\"ok\":true,\"op\":\"align\"", 0), 0u)
        << "response " << i << ": " << response;
  }
  for (int i = 3; i < 5; ++i) {
    std::string response = client.ReadLine();
    EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u)
        << "response " << i << ": " << response;
    EXPECT_NE(response.find("UNAVAILABLE"), std::string::npos) << response;
    EXPECT_NE(response.find("queue is full"), std::string::npos) << response;
  }

  EXPECT_EQ(registry_.CounterValue("serve.rejected"), 2u);
  std::string stats = client.Ask("{\"op\":\"stats\"}");
  EXPECT_NE(stats.find("\"rejected\":2"), std::string::npos) << stats;
}

TEST_F(AsyncServerTest, ExpiredRequestIsShedAfterDequeueBeforeEngineWork) {
  serve::AsyncServerOptions options;
  options.workers = 1;
  options.server.deadline_seconds = 0.05;
  // The second dequeue stalls past the deadline its request got when the
  // loop decoded it at admission; the request expires in the hook and
  // must be shed before any engine work.
  std::atomic<int> pops{0};
  options.worker_hook_for_test = [&] {
    if (pops.fetch_add(1) + 1 == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
  };
  HoldFiller(&options);
  StartAsync(options);

  // Three distinct entities nothing has aligned yet, with the memo filler
  // held: each line is a memo miss, so each reaches the queue. (A repeat
  // of the first entity could be answered from the memo on the loop, and
  // nothing would be shed.)
  std::vector<kg::AlignedPair> pairs = Pipeline().repaired.SortedPairs();
  ASSERT_GE(pairs.size(), 3u);
  auto align_request = [&](size_t i) {
    return StrFormat("{\"op\":\"align\",\"entity\":\"%s\"}",
                     Pipeline().dataset.kg1.EntityName(
                         pairs[i].source).c_str());
  };

  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(align_request(0)));
  ASSERT_TRUE(client.Send(align_request(1)));

  std::string first = client.ReadLine();
  EXPECT_EQ(first.rfind("{\"ok\":true,\"op\":\"align\"", 0), 0u) << first;
  std::string second = client.ReadLine();
  EXPECT_EQ(second.rfind("{\"ok\":false", 0), 0u) << second;
  EXPECT_NE(second.find("DEADLINE_EXCEEDED"), std::string::npos) << second;
  EXPECT_NE(second.find("shed from queue"), std::string::npos) << second;

  EXPECT_EQ(registry_.CounterValue("serve.shed"), 1u);
  EXPECT_EQ(registry_.CounterValue("serve.deadline_exceeded"), 1u);
  // A fresh request's deadline starts at its own admission: the server
  // recovered and serves normally.
  std::string third = client.Ask(align_request(2));
  EXPECT_EQ(third.rfind("{\"ok\":true,\"op\":\"align\"", 0), 0u) << third;
  std::string stats = client.Ask("{\"op\":\"stats\"}");
  EXPECT_NE(stats.find("\"shed\":1"), std::string::npos) << stats;
}

// A line's own "deadline_ms" also counts from admission, where the loop
// decodes it: a request held past it in the queue is shed, not answered.
// A batched align always queues (a loop answers single-entity aligns
// only).
TEST_F(AsyncServerTest, DeadlineMsCountsFromAdmission) {
  serve::AsyncServerOptions options;
  options.workers = 1;
  options.worker_hook_for_test = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  StartAsync(options);
  std::string source = Pipeline().dataset.kg1.EntityName(ServedPair().source);

  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  std::string response = client.Ask(StrFormat(
      "{\"op\":\"align\",\"entities\":\"%s\",\"deadline_ms\":\"10\"}",
      source.c_str()));
  EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u) << response;
  EXPECT_NE(response.find("DEADLINE_EXCEEDED"), std::string::npos) << response;
  EXPECT_NE(response.find("shed from queue"), std::string::npos) << response;
  EXPECT_EQ(registry_.CounterValue("serve.shed"), 1u);
  // Decode counted the shed request once, under its op.
  EXPECT_EQ(registry_.CounterValue("serve.requests"), 1u);
  EXPECT_EQ(registry_.CounterValue("serve.op.align"), 1u);
}

TEST_F(AsyncServerTest, ShutdownOpAnswersAndDrains) {
  StartAsync();
  kg::AlignedPair pair = ServedPair();
  std::string request = StrFormat("{\"op\":\"align\",\"entity\":\"%s\"}",
                                  Pipeline().dataset.kg1.EntityName(
                                      pair.source).c_str());

  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(request));
  ASSERT_TRUE(client.Send("{\"op\":\"shutdown\"}"));
  EXPECT_EQ(client.ReadLine().rfind("{\"ok\":true,\"op\":\"align\"", 0), 0u);
  EXPECT_EQ(client.ReadLine(), "{\"ok\":true,\"op\":\"shutdown\"}");
  async_->Wait();  // returns once the drain completes
  EXPECT_EQ(client.ReadLine(), "");  // server closed the connection
}

TEST_F(AsyncServerTest, ConcurrentClientChurnServesEveryReader) {
  serve::AsyncServerOptions options;
  options.workers = 2;
  StartAsync(options);
  kg::AlignedPair pair = ServedPair();
  std::string align = StrFormat("{\"op\":\"align\",\"entity\":\"%s\"}",
                                Pipeline().dataset.kg1.EntityName(
                                    pair.source).c_str());

  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::atomic<int> answered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        AsyncClient client(async_->port());
        ASSERT_TRUE(client.connected());
        ASSERT_TRUE(client.Send(align));
        ASSERT_TRUE(client.Send("{\"op\":\"stats\"}"));
        if ((t + round) % 3 == 0) continue;  // vanish without reading
        for (int i = 0; i < 2; ++i) {
          std::string response = client.ReadLine();
          ASSERT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
          answered.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(answered.load(), 0);
}

// Swap-under-load over the real TCP path: clients stream align requests
// through the epoll loop and workers while another connection
// hot-swaps the engine between two genuinely different bundles. Every
// response must be well-formed and ok — a swap is invisible to in-flight
// traffic except for which version answers. TSAN runs this in CI.
TEST_F(AsyncServerTest, HotSwapUnderConcurrentLoadDropsNothing) {
  serve::AsyncServerOptions options;
  options.workers = 2;
  StartAsync(options);
  std::string a = WriteBundle();
  std::string b = WriteAltBundle();

  std::vector<std::string> requests;
  for (kg::EntityId e = 0; e < Pipeline().dataset.kg1.num_entities(); ++e) {
    requests.push_back(StrFormat(
        "{\"op\":\"align\",\"entity\":\"%s\"}",
        Pipeline().dataset.kg1.EntityName(e).c_str()));
  }
  ASSERT_FALSE(requests.empty());

  constexpr int kClients = 3;
  constexpr int kRounds = 4;
  std::atomic<int> answered{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < kRounds && !stop.load(); ++round) {
        AsyncClient client(async_->port());
        ASSERT_TRUE(client.connected());
        for (size_t i = 0; i < requests.size(); ++i) {
          std::string response =
              client.Ask(requests[(i + static_cast<size_t>(t)) %
                                  requests.size()]);
          ASSERT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
          answered.fetch_add(1);
        }
      }
    });
  }

  std::thread swapper([&] {
    for (int swap = 0; swap < 5; ++swap) {
      AsyncClient client(async_->port());
      ASSERT_TRUE(client.connected());
      std::string response = client.Ask(StrFormat(
          "{\"op\":\"load_snapshot\",\"dir\":\"%s\"}",
          serve::JsonEscape(swap % 2 == 0 ? b : a).c_str()));
      ASSERT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  swapper.join();
  stop.store(true);
  for (std::thread& client : clients) client.join();

  EXPECT_GT(answered.load(), 0);
  EXPECT_EQ(registry_.CounterValue("serve.snapshot.swaps"), 5u);
  EXPECT_EQ(registry_.CounterValue("serve.malformed"), 0u);
}

// A single-entity align whose row the version's memo holds is answered
// on the loop that framed it: it never reaches a worker, and it counts
// exactly what HandleLine counts for the same line.
TEST_F(AsyncServerTest, MemoHitAlignsAnswerOnTheLoopAndCountOnce) {
  serve::AsyncServerOptions options;
  std::atomic<int> dequeued{0};
  options.worker_hook_for_test = [&] { dequeued.fetch_add(1); };
  HoldFiller(&options);  // the first align must miss the memo
  StartAsync(options);
  std::string request = StrFormat(
      "{\"op\":\"align\",\"entity\":\"%s\"}",
      Pipeline().dataset.kg1.EntityName(ServedPair().source).c_str());
  auto reference_engine = serve::QueryEngine::Open(
      (dir_ / "bundle").string(), serve::EngineOptions{});
  ASSERT_TRUE(reference_engine.ok()) << reference_engine.status().ToString();
  serve::Server reference(reference_engine->get(), serve::ServerOptions{});
  std::string expected = reference.HandleLine(request);

  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  // The first align misses the memo: a worker runs its top-k.
  ASSERT_EQ(client.Ask(request), expected);
  EXPECT_EQ(dequeued.load(), 1);
  EXPECT_EQ(registry_.CounterValue("index.exact.queries"), 1u);
  EXPECT_EQ(registry_.CounterValue("serve.align_memo.misses"), 1u);
  EXPECT_EQ(registry_.CounterValue("serve.loop_answered"), 0u);

  auto latency_count = [&] {
    return registry_.HistogramSnapshot("serve.latency_ms").count;
  };
  uint64_t requests = registry_.CounterValue("serve.requests");
  uint64_t aligns = registry_.CounterValue("serve.op.align");
  uint64_t ok = registry_.CounterValue("serve.ok");
  uint64_t samples = latency_count();
  constexpr uint64_t kHits = 25;
  for (uint64_t i = 0; i < kHits; ++i) ASSERT_TRUE(client.Send(request));
  for (uint64_t i = 0; i < kHits; ++i) ASSERT_EQ(client.ReadLine(), expected);

  EXPECT_EQ(dequeued.load(), 1) << "a memo hit reached a worker";
  EXPECT_EQ(registry_.CounterValue("serve.requests"), requests + kHits);
  EXPECT_EQ(registry_.CounterValue("serve.op.align"), aligns + kHits);
  EXPECT_EQ(registry_.CounterValue("serve.ok"), ok + kHits);
  EXPECT_EQ(latency_count(), samples + kHits);
  EXPECT_EQ(registry_.CounterValue("serve.loop_answered"), kHits);
  EXPECT_EQ(registry_.CounterValue("serve.align_memo.misses"), 1u);
  EXPECT_EQ(registry_.CounterValue("index.exact.queries"), 1u);
  EXPECT_EQ(registry_.CounterValue("serve.errors"), 0u);
  EXPECT_EQ(registry_.CounterValue("serve.malformed"), 0u);
}

// What is not a bounded lookup still goes through the queue to a worker:
// an align miss, a batched align (even of memoized rows), an explain the
// cache does not hold, and an align whose name does not resolve.
TEST_F(AsyncServerTest, MissesBatchesAndExplainsStillReachWorkers) {
  serve::AsyncServerOptions options;
  std::atomic<int> dequeued{0};
  options.worker_hook_for_test = [&] { dequeued.fetch_add(1); };
  HoldFiller(&options);  // keeps the first align a miss
  StartAsync(options);
  kg::AlignedPair pair = ServedPair();
  std::string source = Pipeline().dataset.kg1.EntityName(pair.source);
  std::string target = Pipeline().dataset.kg2.EntityName(pair.target);
  std::string align =
      StrFormat("{\"op\":\"align\",\"entity\":\"%s\"}", source.c_str());

  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  int expected = 0;
  auto expect_worker = [&](const std::string& request) {
    std::string response = client.Ask(request);
    EXPECT_EQ(response.rfind("{\"ok\":", 0), 0u) << response;
    EXPECT_EQ(dequeued.load(), ++expected) << "request: " << request;
  };
  expect_worker(align);  // miss
  expect_worker(StrFormat("{\"op\":\"align\",\"entities\":\"%s\"}",
                          source.c_str()));
  expect_worker(StrFormat(
      "{\"op\":\"explain\",\"source\":\"%s\",\"target\":\"%s\"}",
      source.c_str(), target.c_str()));
  expect_worker("{\"op\":\"align\",\"entity\":\"zh/NoSuchEntity\"}");
  // The row is memoized now, so the single-entity form stays on the loop.
  EXPECT_EQ(client.Ask(align).rfind("{\"ok\":true,\"op\":\"align\"", 0), 0u);
  EXPECT_EQ(dequeued.load(), expected);
}

// A line that does not decode is answered on the loop that framed it: it
// takes no queue slot and never reaches a worker, and it counts exactly
// what HandleLine counts for it.
TEST_F(AsyncServerTest, UndecodableLinesAnswerOnTheLoopLikeHandleLine) {
  serve::AsyncServerOptions options;
  std::atomic<int> dequeued{0};
  options.worker_hook_for_test = [&] { dequeued.fetch_add(1); };
  StartAsync(options);
  obs::Registry reference_registry;
  serve::ServerOptions reference_options;
  reference_options.registry = &reference_registry;
  serve::Server reference(engine_.get(), reference_options);

  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  for (const char* line : {"this is not json", "{\"op\":\"frobnicate\"}"}) {
    EXPECT_EQ(client.Ask(line), reference.HandleLine(line)) << line;
  }
  EXPECT_EQ(dequeued.load(), 0) << "an undecodable line reached a worker";
  for (const char* counter :
       {"serve.requests", "serve.malformed", "serve.op.(unknown)",
        "serve.op.(none)", "serve.errors", "serve.ok", "serve.rejected",
        "serve.shed"}) {
    EXPECT_EQ(registry_.CounterValue(counter),
              reference_registry.CounterValue(counter))
        << counter;
  }
  EXPECT_EQ(registry_.CounterValue("serve.errors"), 2u);
  EXPECT_EQ(registry_.HistogramSnapshot("serve.latency_ms").count,
            reference_registry.HistogramSnapshot("serve.latency_ms").count);
}

// A swap between two aligns of one entity: the second is answered from
// the new version (its memo starts empty and the filler is held, so a
// worker fills the row), byte-equal to HandleLine there, and later hits
// come from the new version's memo.
TEST_F(AsyncServerTest, SwapBetweenAlignsAnswersFromTheNewVersion) {
  serve::AsyncServerOptions options;
  HoldFiller(&options);
  StartAsync(options);
  std::string alt = WriteAltBundle();
  std::string request = StrFormat(
      "{\"op\":\"align\",\"entity\":\"%s\"}",
      Pipeline().dataset.kg1.EntityName(ServedPair().source).c_str());
  serve::Server served(engine_.get(), serve::ServerOptions{});

  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  std::string before = client.Ask(request);
  ASSERT_EQ(client.Ask(request), before);  // a memo hit on the old version
  std::string swapped = client.Ask(StrFormat(
      "{\"op\":\"load_snapshot\",\"dir\":\"%s\"}",
      serve::JsonEscape(alt).c_str()));
  ASSERT_EQ(swapped.rfind("{\"ok\":true", 0), 0u) << swapped;

  std::string after = client.Ask(request);
  EXPECT_EQ(after, served.HandleLine(request));
  EXPECT_NE(after, before)
      << "the two fixture bundles must disagree for this test to bite";
  EXPECT_EQ(client.Ask(request), after);  // a memo hit on the new version
  EXPECT_EQ(registry_.CounterValue("index.exact.queries"), 2u);
}

// Once the filler reports the version full, every single-entity align is
// answered on a loop — no dequeue, no request-path top-k — with the bytes
// HandleLine produces on a second, lazily filled engine: filled rows are
// bit-identical to computed ones, under both index policies.
class FilledMemoTest : public AsyncServerTest,
                       public ::testing::WithParamInterface<const char*> {};

TEST_P(FilledMemoTest, EverySingleAlignAnswersOnTheLoop) {
  serve::EngineOptions engine_options;
  engine_options.index_policy = GetParam();
  serve::AsyncServerOptions options;
  std::atomic<int> dequeued{0};
  options.worker_hook_for_test = [&] { dequeued.fetch_add(1); };
  std::string bundle = WriteIvfBundle();
  StartAsyncOn(bundle, engine_options, options);
  AwaitFullMemo();
  serve::EngineStatusResult status = engine_->EngineStatus();
  ASSERT_EQ(status.index, GetParam());
  ASSERT_EQ(status.memo_rows, Pipeline().dataset.kg1.num_entities());
  // The filler computed each row exactly once.
  std::string index_queries = StrFormat("index.%s.queries", GetParam());
  EXPECT_EQ(registry_.CounterValue(index_queries), status.memo_rows);

  obs::Registry reference_registry;
  serve::EngineOptions reference_options;
  reference_options.index_policy = GetParam();
  reference_options.registry = &reference_registry;
  auto reference_engine = serve::QueryEngine::Open(bundle, reference_options);
  ASSERT_TRUE(reference_engine.ok()) << reference_engine.status().ToString();
  serve::Server reference(reference_engine->get(), serve::ServerOptions{});

  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  std::vector<std::string> requests;
  for (kg::EntityId e = 0; e < Pipeline().dataset.kg1.num_entities(); ++e) {
    requests.push_back(StrFormat(
        "{\"op\":\"align\",\"entity\":\"%s\"}",
        Pipeline().dataset.kg1.EntityName(e).c_str()));
    ASSERT_TRUE(client.Send(requests.back()));
  }
  for (const std::string& request : requests) {
    ASSERT_EQ(client.ReadLine(), reference.HandleLine(request)) << request;
  }
  EXPECT_EQ(dequeued.load(), 0) << "an align reached a worker";
  EXPECT_EQ(registry_.CounterValue("serve.loop_answered"), requests.size());
  EXPECT_EQ(registry_.CounterValue("serve.align_memo.misses"), 0u);
  EXPECT_EQ(registry_.CounterValue(index_queries), status.memo_rows);
  // The reference engine computed every row on the request path.
  EXPECT_EQ(reference_registry.CounterValue("serve.align_memo.misses"),
            requests.size());
}

INSTANTIATE_TEST_SUITE_P(IndexPolicies, FilledMemoTest,
                         ::testing::Values("exact", "ivf"));

// neighbors, repair_status and an explain the cache holds are answered on
// the loop, with HandleLine's bytes and the same serve.* and
// serve.explain_cache.* counts; only the explain's first, uncached render
// and an explain whose name does not resolve reach a worker.
TEST_F(AsyncServerTest, LookupsAnswerOnTheLoopLikeHandleLine) {
  serve::AsyncServerOptions options;
  std::atomic<int> dequeued{0};
  options.worker_hook_for_test = [&] { dequeued.fetch_add(1); };
  StartAsync(options);
  obs::Registry reference_registry;
  serve::EngineOptions reference_options;
  reference_options.registry = &reference_registry;
  auto reference_engine =
      serve::QueryEngine::Open((dir_ / "bundle").string(), reference_options);
  ASSERT_TRUE(reference_engine.ok()) << reference_engine.status().ToString();
  serve::Server reference(reference_engine->get(), serve::ServerOptions{});

  kg::AlignedPair pair = ServedPair();
  std::string source = Pipeline().dataset.kg1.EntityName(pair.source);
  std::string target = Pipeline().dataset.kg2.EntityName(pair.target);
  std::string explain = StrFormat(
      "{\"op\":\"explain\",\"source\":\"%s\",\"target\":\"%s\"}",
      source.c_str(), target.c_str());
  std::vector<std::string> requests = {
      StrFormat("{\"op\":\"neighbors\",\"entity\":\"%s\"}", source.c_str()),
      StrFormat("{\"op\":\"neighbors\",\"entity\":\"%s\",\"side\":\"2\"}",
                target.c_str()),
      "{\"op\":\"neighbors\",\"entity\":\"zh/NoSuchEntity\"}",
      StrFormat("{\"op\":\"repair_status\",\"source\":\"%s\","
                "\"target\":\"%s\"}",
                source.c_str(), target.c_str()),
      StrFormat("{\"op\":\"repair_status\",\"source\":\"%s\","
                "\"target\":\"en/NoSuchEntity\"}",
                source.c_str()),
      explain,  // uncached: a worker renders it
      explain,  // cached: the loop answers it
      explain,
      StrFormat("{\"op\":\"explain\",\"source\":\"%s\","
                "\"target\":\"en/NoSuchEntity\"}",
                source.c_str()),
  };

  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  for (const std::string& request : requests) {
    EXPECT_EQ(client.Ask(request), reference.HandleLine(request)) << request;
  }
  EXPECT_EQ(dequeued.load(), 2);
  EXPECT_EQ(registry_.CounterValue("serve.loop_answered"),
            requests.size() - 2);
  for (const char* counter :
       {"serve.requests", "serve.ok", "serve.errors", "serve.malformed",
        "serve.deadline_exceeded", "serve.op.neighbors",
        "serve.op.repair_status", "serve.op.explain",
        "serve.explain_cache.hits", "serve.explain_cache.misses"}) {
    EXPECT_EQ(registry_.CounterValue(counter),
              reference_registry.CounterValue(counter))
        << counter;
  }
  EXPECT_EQ(registry_.CounterValue("serve.explain_cache.hits"), 2u);
  EXPECT_EQ(registry_.HistogramSnapshot("serve.latency_ms").count,
            reference_registry.HistogramSnapshot("serve.latency_ms").count);
  std::string stats = client.Ask("{\"op\":\"stats\"}");
  EXPECT_NE(stats.find(StrFormat("\"loop_answered\":%zu",
                                 requests.size() - 2)),
            std::string::npos)
      << stats;
}

// An explain the cache does not hold is left to a worker, which renders
// it and counts exactly one miss; the loop's declined lookup counts
// nothing.
TEST_F(AsyncServerTest, UncachedExplainReachesAWorkerAndCountsOneMiss) {
  serve::AsyncServerOptions options;
  std::atomic<int> dequeued{0};
  options.worker_hook_for_test = [&] { dequeued.fetch_add(1); };
  StartAsync(options);
  kg::AlignedPair pair = ServedPair();
  std::string explain = StrFormat(
      "{\"op\":\"explain\",\"source\":\"%s\",\"target\":\"%s\"}",
      Pipeline().dataset.kg1.EntityName(pair.source).c_str(),
      Pipeline().dataset.kg2.EntityName(pair.target).c_str());

  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  std::string response = client.Ask(explain);
  EXPECT_EQ(response.rfind("{\"ok\":true,\"op\":\"explain\","
                           "\"cache_hit\":false",
                           0),
            0u)
      << response;
  EXPECT_EQ(dequeued.load(), 1);
  EXPECT_EQ(registry_.CounterValue("serve.explain_cache.misses"), 1u);
  EXPECT_EQ(registry_.CounterValue("serve.explain_cache.hits"), 0u);
  EXPECT_EQ(registry_.CounterValue("serve.loop_answered"), 0u);
}

// A swap while the filler is midway through a version: at its next block
// the filler drops the retired version (the live-versions gauge falls back
// to one) and fills the new one, whose rows match HandleLine on a lazily
// filled engine over the same bundle.
TEST_F(AsyncServerTest, SwapMidFillDropsTheOldVersionAndFillsTheNew) {
  serve::AsyncServerOptions options;
  std::atomic<int> dequeued{0};
  options.worker_hook_for_test = [&] { dequeued.fetch_add(1); };
  std::mutex mu;
  std::condition_variable cv;
  int blocks = 0;
  bool released = false;
  // Parks before the first version's second block, once its first
  // kFillBlockRows rows are filled.
  options.filler_hook_for_test = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (++blocks != 2) return;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  };
  StartAsync(options);
  std::string alt = WriteAltBundle();
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(20),
                            [&] { return blocks >= 2; }));
  }
  constexpr size_t kBlock = serve::ServingState::kFillBlockRows;
  serve::EngineStatusResult mid = engine_->EngineStatus();
  EXPECT_EQ(mid.epoch, 1u);
  EXPECT_EQ(mid.memo_filled, kBlock);
  ASSERT_GT(mid.memo_rows, 2 * kBlock);

  auto epoch = engine_->LoadSnapshot(alt);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  // The parked filler still pins the retired version.
  EXPECT_EQ(registry_.GaugeValue("serve.snapshot.versions"), 2.0);
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  AwaitFullMemo();
  serve::EngineStatusResult filled = engine_->EngineStatus();
  EXPECT_EQ(filled.epoch, *epoch);
  EXPECT_EQ(registry_.GaugeValue("serve.snapshot.versions"), 1.0);
  // One block of the old version, then every row of the new one.
  EXPECT_EQ(registry_.CounterValue("index.exact.queries"),
            kBlock + filled.memo_rows);

  auto reference_engine = serve::QueryEngine::Open(alt, serve::EngineOptions{});
  ASSERT_TRUE(reference_engine.ok()) << reference_engine.status().ToString();
  serve::Server reference(reference_engine->get(), serve::ServerOptions{});
  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  for (kg::EntityId e = 0; e < Pipeline().dataset.kg1.num_entities(); ++e) {
    std::string request =
        StrFormat("{\"op\":\"align\",\"entity\":\"%s\"}",
                  Pipeline().dataset.kg1.EntityName(e).c_str());
    ASSERT_EQ(client.Ask(request), reference.HandleLine(request)) << request;
  }
  EXPECT_EQ(dequeued.load(), 0);
}

// Shutdown() while the filler is midway through a version returns after
// at most the block in progress, not the rest of the fill, and every
// line admitted before it is answered.
TEST_F(AsyncServerTest, ShutdownMidFillReturnsPromptlyAndAnswersAdmitted) {
  serve::AsyncServerOptions options;
  options.workers = 1;
  constexpr auto kBlockDelay = std::chrono::milliseconds(200);
  std::atomic<int> blocks{0};
  options.filler_hook_for_test = [&] {
    blocks.fetch_add(1);
    std::this_thread::sleep_for(kBlockDelay);
  };
  // The worker is slow too, so lines are still queued at Shutdown().
  options.worker_hook_for_test = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  StartAsync(options);
  std::string source = Pipeline().dataset.kg1.EntityName(ServedPair().source);
  std::string batched =
      StrFormat("{\"op\":\"align\",\"entities\":\"%s\"}", source.c_str());
  std::string neighbors =
      StrFormat("{\"op\":\"neighbors\",\"entity\":\"%s\"}", source.c_str());

  AsyncClient client(async_->port());
  ASSERT_TRUE(client.connected());
  constexpr uint64_t kLines = 16;
  for (uint64_t i = 0; i < kLines; ++i) {
    ASSERT_TRUE(client.Send(i % 2 == 0 ? batched : neighbors));
  }
  for (int waited_ms = 0;
       (registry_.CounterValue("serve.requests") < kLines || blocks < 2) &&
       waited_ms < 20000;
       ++waited_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(registry_.CounterValue("serve.requests"), kLines);

  WallTimer shutdown;
  async_->Shutdown();
  double shutdown_s = shutdown.ElapsedSeconds();
  serve::EngineStatusResult status = engine_->EngineStatus();
  size_t blocks_left =
      (status.memo_rows - status.memo_filled) /
      serve::ServingState::kFillBlockRows;
  ASSERT_GE(blocks_left, 4u) << "the fill finished before Shutdown()";
  // The rest of the fill would have taken blocks_left * kBlockDelay.
  double rest_of_fill_s =
      static_cast<double>(blocks_left) *
      std::chrono::duration<double>(kBlockDelay).count();
  EXPECT_LT(shutdown_s, rest_of_fill_s / 2) << "Shutdown() waited out the fill";

  for (uint64_t i = 0; i < kLines; ++i) {
    std::string response = client.ReadLine();
    EXPECT_EQ(response.rfind("{\"ok\":true", 0), 0u)
        << "line " << i << ": " << response;
  }
  EXPECT_EQ(client.ReadLine(), "");  // the server closed the connection
}

}  // namespace
}  // namespace exea
