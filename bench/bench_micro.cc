// Micro-benchmarks (google-benchmark) for the hot kernels of the
// framework: similarity top-k, path enumeration, Eq. (2) path embedding +
// matching, ADG construction/confidence, relation-functionality
// computation, and serial-vs-parallel scaling of the similarity/CSLS
// kernels (the Arg of the */threads:N cases is the worker count). Not tied
// to a paper table; used to track kernel regressions.
//
// Run with --benchmark_format=json to get machine-readable output; the
// context block carries "exea_threads" (the EXEA_THREADS-configured
// default worker count) so recorded numbers are attributable.

#include <unistd.h>

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench/common.h"
#include "eval/csls.h"
#include "explain/exea.h"
#include "kg/functionality.h"
#include "kg/neighborhood.h"
#include "la/simd.h"
#include "la/similarity.h"
#include "la/similarity_index.h"
#include "net/bounded_queue.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace exea;

// Shared fixture state (built once).
struct State {
  data::EaDataset dataset;
  std::unique_ptr<emb::EAModel> model;
  std::unique_ptr<explain::ExeaExplainer> explainer;
  kg::AlignmentSet aligned;

  State() {
    dataset = data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
    model = bench::TrainModel(emb::ModelKind::kMTransE, dataset);
    explainer = std::make_unique<explain::ExeaExplainer>(
        dataset, *model, explain::ExeaConfig{});
    eval::RankedSimilarity ranked = eval::RankTestEntities(*model, dataset);
    aligned = eval::GreedyAlign(ranked);
  }
};

State& GetState() {
  static State* state = bench::LeakySingleton<State>();
  return *state;
}

void BM_TopKCosine(benchmark::State& state) {
  Rng rng(1);
  la::Matrix table(512, 32);
  table.FillNormal(rng, 1.0f);
  la::Vec query(32);
  for (float& v : query) v = rng.UniformFloat(-1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::TopKByCosine(query.data(), table, 10));
  }
}
BENCHMARK(BM_TopKCosine);

void BM_CosineSimilarityMatrix(benchmark::State& state) {
  Rng rng(2);
  la::Matrix a(128, 32);
  la::Matrix b(128, 32);
  a.FillNormal(rng, 1.0f);
  b.FillNormal(rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::CosineSimilarityMatrix(a, b));
  }
}
BENCHMARK(BM_CosineSimilarityMatrix);

void BM_PathEnumeration(benchmark::State& state) {
  State& s = GetState();
  kg::PathEnumerationOptions options;
  options.max_length = 2;
  kg::EntityId e = s.dataset.test_sources[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(kg::EnumeratePaths(s.dataset.kg1, e, options));
  }
}
BENCHMARK(BM_PathEnumeration);

void BM_RelationFunctionality(benchmark::State& state) {
  State& s = GetState();
  for (auto _ : state) {
    kg::RelationFunctionality func(s.dataset.kg1);
    benchmark::DoNotOptimize(func.Func(0));
  }
}
BENCHMARK(BM_RelationFunctionality);

void BM_ExplainPair(benchmark::State& state) {
  State& s = GetState();
  explain::AlignmentContext context(&s.aligned, &s.dataset.train);
  const kg::AlignedPair& pair = s.dataset.test[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s.explainer->Explain(pair.source, pair.target, context));
  }
}
BENCHMARK(BM_ExplainPair);

void BM_AdgConfidence(benchmark::State& state) {
  State& s = GetState();
  explain::AlignmentContext context(&s.aligned, &s.dataset.train);
  const kg::AlignedPair& pair = s.dataset.test[0];
  explain::Explanation explanation =
      s.explainer->Explain(pair.source, pair.target, context);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.explainer->BuildAdg(explanation));
  }
}
BENCHMARK(BM_AdgConfidence);

void BM_TriplesWithinTwoHops(benchmark::State& state) {
  State& s = GetState();
  kg::EntityId e = s.dataset.test_sources[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(kg::TriplesWithinHops(s.dataset.kg1, e, 2));
  }
}
BENCHMARK(BM_TriplesWithinTwoHops);

// ------------------------------------------------------------- serve path
//
// The online-serving cases: snapshot load (the server's startup cost) and
// the cold/warm explain split (the LRU cache is the serving subsystem's
// main latency lever — warm should be orders of magnitude below cold).

// A snapshot bundle frozen from the shared fixture state, written to a
// pid-suffixed temp directory once per process.
const std::string& BundleDir() {
  static const std::string* dir = [] {
    State& s = GetState();
    auto* path = bench::LeakySingleton<std::string>(
        (std::filesystem::temp_directory_path() /
         ("exea_bench_bundle_" + std::to_string(::getpid())))
            .string());
    serve::SnapshotBundle bundle;
    bundle.meta.model_name = s.model->name();
    bundle.meta.dataset_name = "bench";
    bundle.meta.inference = "greedy";
    bundle.meta.has_relation_embeddings = s.model->HasRelationEmbeddings();
    bundle.dataset = s.dataset;
    bundle.emb1 = s.model->EntityEmbeddings(kg::KgSide::kSource);
    bundle.emb2 = s.model->EntityEmbeddings(kg::KgSide::kTarget);
    if (bundle.meta.has_relation_embeddings) {
      bundle.rel1 = s.model->RelationEmbeddings(kg::KgSide::kSource);
      bundle.rel2 = s.model->RelationEmbeddings(kg::KgSide::kTarget);
    }
    bundle.alignment = s.aligned;
    bundle.repaired = s.aligned;
    Status status = serve::WriteSnapshot(bundle, *path);
    if (!status.ok()) {
      std::fprintf(stderr, "bundle write failed: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
    return path;
  }();
  return *dir;
}

void BM_SnapshotLoad(benchmark::State& state) {
  const std::string& dir = BundleDir();
  for (auto _ : state) {
    auto bundle = serve::ReadSnapshot(dir);
    if (!bundle.ok()) state.SkipWithError("snapshot load failed");
    benchmark::DoNotOptimize(bundle);
  }
}
BENCHMARK(BM_SnapshotLoad)->Unit(benchmark::kMillisecond);

void BM_ServeExplainCold(benchmark::State& state) {
  static serve::QueryEngine* engine = [] {
    auto opened = serve::QueryEngine::Open(BundleDir(),
                                           serve::EngineOptions{});
    if (!opened.ok()) {
      std::fprintf(stderr, "engine open failed: %s\n",
                   opened.status().ToString().c_str());
      std::abort();
    }
    return opened->release();
  }();
  State& s = GetState();
  kg::AlignedPair pair = s.aligned.SortedPairs()[0];
  std::string source = s.dataset.kg1.EntityName(pair.source);
  std::string target = s.dataset.kg2.EntityName(pair.target);
  for (auto _ : state) {
    engine->ClearExplainCache();  // every iteration pays the full path
    benchmark::DoNotOptimize(
        engine->Explain(source, target, serve::Deadline::None()));
  }
}
BENCHMARK(BM_ServeExplainCold);

void BM_ServeExplainWarm(benchmark::State& state) {
  static serve::QueryEngine* engine = [] {
    auto opened = serve::QueryEngine::Open(BundleDir(),
                                           serve::EngineOptions{});
    if (!opened.ok()) {
      std::fprintf(stderr, "engine open failed: %s\n",
                   opened.status().ToString().c_str());
      std::abort();
    }
    return opened->release();
  }();
  State& s = GetState();
  kg::AlignedPair pair = s.aligned.SortedPairs()[0];
  std::string source = s.dataset.kg1.EntityName(pair.source);
  std::string target = s.dataset.kg2.EntityName(pair.target);
  // Prime once; every timed iteration is a cache hit.
  engine->Explain(source, target, serve::Deadline::None()).ok();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine->Explain(source, target, serve::Deadline::None()));
  }
}
BENCHMARK(BM_ServeExplainWarm);

// ------------------------------------------------- async serving core

// Lock-and-signal overhead of the admission queue under contention: every
// benchmark thread plays both producer and consumer, so the queue stays
// near-empty and the measured cost is the mutex/condvar handshake itself,
// not useful work.
void BM_BoundedQueuePushPop(benchmark::State& state) {
  static net::BoundedQueue<size_t>* queue =
      bench::LeakySingleton<net::BoundedQueue<size_t>>(1024);
  for (auto _ : state) {
    while (!queue->TryPush(1)) {
    }
    size_t item = 0;
    if (!queue->Pop(&item)) {
      state.SkipWithError("queue closed");
      break;
    }
    benchmark::DoNotOptimize(item);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BoundedQueuePushPop)->Threads(1)->Threads(4);

// The hot-swap cost: read + validate + rebuild the serving state and
// install it, per swap. This is the zero-downtime path — readers never
// block on it — so what matters is throughput (swaps stay off the
// request threads), not tail latency.
void BM_SnapshotSwap(benchmark::State& state) {
  static serve::QueryEngine* engine = [] {
    auto opened = serve::QueryEngine::Open(BundleDir(),
                                           serve::EngineOptions{});
    if (!opened.ok()) {
      std::fprintf(stderr, "engine open failed: %s\n",
                   opened.status().ToString().c_str());
      std::abort();
    }
    return opened->release();
  }();
  for (auto _ : state) {
    auto epoch = engine->LoadSnapshot(BundleDir());
    if (!epoch.ok()) {
      state.SkipWithError("swap failed");
      break;
    }
    benchmark::DoNotOptimize(*epoch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SnapshotSwap)->Unit(benchmark::kMillisecond);

// ------------------------------------------------- observability overhead
//
// The obs primitives sit on serving and pipeline hot paths; these pin what
// one event costs so a regression in the metrics layer itself is visible.

void BM_ObsCounterIncrement(benchmark::State& state) {
  obs::Counter& counter =
      obs::Registry::Global().GetCounter("bench.obs.counter");
  for (auto _ : state) counter.Increment();
}
BENCHMARK(BM_ObsCounterIncrement);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram& histogram =
      obs::Registry::Global().GetHistogram("bench.obs.histogram");
  double value = 0.01;
  for (auto _ : state) {
    histogram.Record(value);
    value *= 1.001;  // sweep upward so the bucket math is exercised
    if (value > 1e4) value = 0.01;
  }
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ObsSpan(benchmark::State& state) {
  for (auto _ : state) {
    obs::Span span("bench.obs.span");
    benchmark::DoNotOptimize(const_cast<std::string*>(&span.path()));
  }
}
BENCHMARK(BM_ObsSpan);

// ---------------------------------------------- serial vs parallel kernels
//
// The Arg is the worker count; .../threads:1 is the serial baseline the
// determinism contract pins the parallel outputs to. The matrices are
// sized so the speedup at 4 threads is measurable (2000x2000x64 for the
// similarity kernel is the acceptance workload).

// Restores the ambient worker count when a scaling case finishes.
class ThreadCountGuard {
 public:
  ThreadCountGuard(size_t n) : previous_(util::ThreadCount()) {
    util::SetThreadCount(n);
  }
  ~ThreadCountGuard() { util::SetThreadCount(previous_); }

 private:
  size_t previous_;
};

void BM_CosineSimilarityMatrixParallel(benchmark::State& state) {
  static const auto* input = [] {
    Rng rng(3);
    auto* m = bench::LeakySingleton<std::pair<la::Matrix, la::Matrix>>(
        la::Matrix(2000, 64), la::Matrix(2000, 64));
    m->first.FillNormal(rng, 1.0f);
    m->second.FillNormal(rng, 1.0f);
    return m;
  }();
  ThreadCountGuard guard(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        la::CosineSimilarityMatrix(input->first, input->second));
  }
}
BENCHMARK(BM_CosineSimilarityMatrixParallel)
    ->Arg(1)->Arg(2)->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

void BM_TopKByCosineAllParallel(benchmark::State& state) {
  static const auto* input = [] {
    Rng rng(4);
    auto* m = bench::LeakySingleton<std::pair<la::Matrix, la::Matrix>>(
        la::Matrix(1000, 64), la::Matrix(2000, 64));
    m->first.FillNormal(rng, 1.0f);
    m->second.FillNormal(rng, 1.0f);
    return m;
  }();
  ThreadCountGuard guard(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        la::TopKByCosineAll(input->first, input->second, 10));
  }
}
BENCHMARK(BM_TopKByCosineAllParallel)
    ->Arg(1)->Arg(2)->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

void BM_CslsAdjustParallel(benchmark::State& state) {
  static const la::Matrix* sim = [] {
    Rng rng(5);
    la::Matrix a(1500, 64);
    la::Matrix b(1500, 64);
    a.FillNormal(rng, 1.0f);
    b.FillNormal(rng, 1.0f);
    util::SetThreadCount(1);  // build the fixture off the scaling knob
    auto* m = bench::LeakySingleton<la::Matrix>(
        la::CosineSimilarityMatrix(a, b));
    util::SetThreadCount(0);
    return m;
  }();
  ThreadCountGuard guard(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::CslsAdjust(*sim, 10));
  }
}
BENCHMARK(BM_CslsAdjustParallel)
    ->Arg(1)->Arg(2)->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------- simd + similarity index

// The dispatched dot kernel at each SIMD level (Arg 0 = scalar,
// Arg 1 = avx2) — the per-level cost of the bit-identity contract.
void BM_SimdDot(benchmark::State& state) {
  la::SimdLevel level = state.range(0) == 0 ? la::SimdLevel::kScalar
                                            : la::SimdLevel::kAvx2;
  if (level == la::SimdLevel::kAvx2 && !la::Avx2Supported()) {
    state.SkipWithError("AVX2 not available on this machine");
    return;
  }
  static const auto* vectors = [] {
    Rng rng(6);
    auto* v = bench::LeakySingleton<
        std::pair<std::vector<float>, std::vector<float>>>();
    v->first.resize(512);
    v->second.resize(512);
    for (float& x : v->first) x = rng.UniformFloat(-1, 1);
    for (float& x : v->second) x = rng.UniformFloat(-1, 1);
    return v;
  }();
  la::SimdLevel original = la::ActiveSimdLevel();
  la::SetSimdLevelForTest(level);
  const la::SimdOps& ops = la::ActiveSimdOps();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.dot(vectors->first.data(),
                                     vectors->second.data(),
                                     vectors->first.size()));
  }
  la::SetSimdLevelForTest(original);
  state.SetLabel(la::SimdLevelName(level));
}
BENCHMARK(BM_SimdDot)->Arg(0)->Arg(1)->ArgName("level");

// Clustered fixture big enough that cluster pruning wins: the recall@k
// vs QPS trade-off sweep ISSUE'd for the IVF index. items_processed is
// queries answered, so the reported rate is QPS; the recall@10 counter
// on each IVF case is measured against the exact scan's answers.
struct IndexBenchFixture {
  la::Matrix table{20000, 64};
  la::Matrix queries{64, 64};
  la::IvfIndexData ivf;
  std::vector<std::vector<la::ScoredIndex>> truth;

  IndexBenchFixture() {
    Rng rng(7);
    const size_t centers = 141;  // ~sqrt(rows)
    la::Matrix center_mat(centers, 64);
    for (size_t c = 0; c < centers; ++c) {
      for (size_t j = 0; j < 64; ++j) {
        center_mat.Row(c)[j] = static_cast<float>(rng.Normal());
      }
    }
    for (size_t r = 0; r < table.rows(); ++r) {
      const float* center = center_mat.Row(r % centers);
      for (size_t j = 0; j < 64; ++j) {
        table.Row(r)[j] =
            center[j] + 0.15f * static_cast<float>(rng.Normal());
      }
    }
    for (size_t q = 0; q < queries.rows(); ++q) {
      const float* row = table.Row(rng.UniformInt(table.rows()));
      for (size_t j = 0; j < 64; ++j) {
        queries.Row(q)[j] =
            row[j] + 0.05f * static_cast<float>(rng.Normal());
      }
    }
    ivf = la::TrainIvfIndex(table, la::IvfOptions{});
    truth = la::ExactIndex(&table).TopKAll(queries, 10);
  }

  double RecallAt10(
      const std::vector<std::vector<la::ScoredIndex>>& got) const {
    double hits = 0, total = 0;
    for (size_t q = 0; q < truth.size(); ++q) {
      total += static_cast<double>(truth[q].size());
      for (const la::ScoredIndex& g : got[q]) {
        for (const la::ScoredIndex& t : truth[q]) {
          if (g.index == t.index) {
            hits += 1;
            break;
          }
        }
      }
    }
    return total == 0 ? 1.0 : hits / total;
  }
};

IndexBenchFixture& GetIndexFixture() {
  static IndexBenchFixture* fixture =
      bench::LeakySingleton<IndexBenchFixture>();
  return *fixture;
}

void BM_ExactIndexTopK(benchmark::State& state) {
  IndexBenchFixture& fx = GetIndexFixture();
  la::ExactIndex index(&fx.table);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.TopKAll(fx.queries, 10));
  }
  state.counters["recall@10"] = 1.0;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fx.queries.rows()));
}
BENCHMARK(BM_ExactIndexTopK)->Unit(benchmark::kMillisecond);

void BM_IvfIndexTopK(benchmark::State& state) {
  IndexBenchFixture& fx = GetIndexFixture();
  la::IvfIndex index(&fx.table, &fx.ivf);
  index.set_nprobe(static_cast<size_t>(state.range(0)));
  double recall = fx.RecallAt10(index.TopKAll(fx.queries, 10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.TopKAll(fx.queries, 10));
  }
  state.counters["recall@10"] = recall;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fx.queries.rows()));
}
BENCHMARK(BM_IvfIndexTopK)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->ArgName("nprobe")
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // EXEA_THREADS sets the ambient worker count (the */threads:N scaling
  // cases override it per-case); record it in the benchmark context so
  // JSON output (--benchmark_format=json) carries the configuration.
  size_t threads = exea::bench::ConfigureThreadsFromEnv();
  benchmark::AddCustomContext("exea_threads", std::to_string(threads));
  benchmark::AddCustomContext("exea_git_sha", exea::bench::BuildGitSha());
  benchmark::AddCustomContext("exea_build_type", exea::bench::BuildType());
  // How many metrics the process-wide obs registry holds at startup, so a
  // recorded run documents its instrumentation surface. Touch one metric
  // first: the count must witness the registry itself is alive.
  exea::obs::Registry::Global().GetGauge("bench.obs.context_stamp").Set(1.0);
  benchmark::AddCustomContext(
      "exea_obs_metrics_count",
      std::to_string(exea::obs::Registry::Global().MetricCount()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
