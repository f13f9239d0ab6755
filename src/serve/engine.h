// QueryEngine: the online half of the serving subsystem. Holds the
// current snapshot version behind a SnapshotManager and answers
// per-entity / per-pair queries against the frozen pipeline state:
//
//   align(e)          — served alignment of a source entity plus the top-k
//                       embedding-similarity candidates, computed once
//                       per entity per version: an align that finds the
//                       row missing runs the version's one SimilarityIndex
//                       (exact or IVF, which fans out on the process-wide
//                       util::ThreadPool) and fills the version's align
//                       memo; later aligns of that entity read the memo.
//                       FillAlignMemos fills every row ahead of the
//                       aligns (the TCP server runs it on one thread),
//   explain(e1, e2)   — the ExEA matching subgraph + ADG for a pair,
//                       rendered to JSON; by far the expensive path, so
//                       results go through an LRU cache,
//   neighbors(e)      — the KG edges around an entity,
//   repair_status(e1, e2) — what the repair pipeline did to a pair,
//   load_snapshot(dir)    — hot swap: install a new bundle as the current
//                       version with zero downtime; in-flight requests
//                       finish on the version they pinned at entry,
//   engine_status()   — version/index introspection.
//
// Explanations are generated with the same AlignmentContext the offline
// CLI uses (raw inference output + seed alignment), so a served `explain`
// response is byte-identical to the offline pipeline's answer for the same
// pair — serve_test pins this.
//
// Versioning: every query pins the current ServingState (a refcounted
// handle from the SnapshotManager) ONCE at entry and answers entirely
// from it. Entity ids, embedding rows, and index borrows are only
// meaningful relative to that pinned version, which is why the explain
// cache key carries the snapshot epoch and why nothing in the engine
// keeps a raw pointer into "the" bundle anymore.
//
// Deadlines: every query takes a deadline (0 = none). The engine checks it
// at entry and again before each expensive stage; an expired deadline
// returns DEADLINE_EXCEEDED instead of blocking the request loop. A cached
// explanation is always served (the cache read is cheaper than the check
// is worth).

#ifndef EXEA_SERVE_ENGINE_H_
#define EXEA_SERVE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <string>
#include <utility>
#include <vector>

#include "explain/exea.h"
#include "obs/metrics.h"
#include "serve/explain_cache.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "util/check.h"
#include "util/timer.h"

namespace exea::serve {

struct EngineOptions {
  size_t explain_cache_capacity = 256;  // entries; 0 disables caching
  size_t top_k = 5;                     // candidates returned by align

  // Which la::SimilarityIndex strategy answers align candidate search:
  //   "auto"  — the bundle's trained IVF index when it has one AND the
  //             target table has at least kIvfMinRows (4096) rows (small
  //             tables scan faster than they probe), else exact
  //   "exact" — always the dense scan
  //   "ivf"   — force the bundle's IVF index; falls back to exact with
  //             a warning when the bundle was frozen without one
  // Open rejects any other value with INVALID_ARGUMENT. The live choice
  // is reported per response (AlignResult::index) and in the stats op.
  std::string index_policy = "auto";

  // Fixed, not settable: every snapshot version serves through one
  // index. Kept only because e2ebench prints it in its context line.
  static constexpr size_t shards = 1;

  // Where the engine registers its metrics (cache hit/miss counters, the
  // cache-size gauge, snapshot version/swap telemetry, query spans).
  // nullptr → obs::Registry::Global(). Tests inject a fresh registry so
  // exact-count assertions never see another test's traffic.
  obs::Registry* registry = nullptr;
};

// A per-request time budget. `seconds <= 0` means no deadline.
class Deadline {
 public:
  explicit Deadline(double seconds) : seconds_(seconds) {}
  static Deadline None() { return Deadline(0); }

  bool Expired() const {
    return seconds_ > 0 && timer_.ElapsedSeconds() > seconds_;
  }

 private:
  double seconds_;
  WallTimer timer_;
};

struct AlignResult {
  std::string source;
  // Served (repaired) targets; usually one, empty if the entity was never
  // aligned.
  std::vector<std::string> aligned;
  // Top-k KG2 entities by embedding cosine, descending.
  std::vector<std::pair<std::string, double>> candidates;
  // Search strategy that produced `candidates` ("exact" | "ivf"), so a
  // client can tell approximate answers from exhaustive ones.
  std::string index;
};

struct ExplainResult {
  std::string json;         // {"explanation":...,"adg":...}
  double confidence = 0.0;  // the ADG's Eq. (9) confidence
  bool cache_hit = false;
};

struct NeighborEdge {
  std::string relation;
  std::string neighbor;
  bool outgoing = true;
};

struct NeighborsResult {
  std::string entity;
  std::vector<NeighborEdge> edges;
};

struct RepairStatusResult {
  bool in_base = false;      // pair was in the raw inference output
  bool in_repaired = false;  // pair survived (or was added by) repair
  // "kept" | "removed" | "replaced" | "added" | "absent"
  std::string verdict;
  // Where the source is aligned after repair (context for removed/replaced).
  std::vector<std::string> repaired_targets;
};

// Snapshot of the engine's versioning and search strategy, for the
// engine_status op and the stats dump.
struct EngineStatusResult {
  uint64_t epoch = 0;          // current version number
  std::string source;          // where the current bundle came from
  std::string index;           // "exact" | "ivf"
  size_t index_size = 0;       // rows reachable through the index
  double live_versions = 0.0;  // current + reader-pinned (gauge)
  uint64_t swaps = 0;          // successful load_snapshot replacements
  size_t explain_cache_size = 0;
  size_t memo_filled = 0;      // the current version's filled memo rows
  size_t memo_rows = 0;        // ... out of its KG1 rows
};

class QueryEngine {
 public:
  // Loads the bundle at `dir` (version + checksum verified) and builds the
  // explainer state once. An index_policy other than auto|exact|ivf is
  // INVALID_ARGUMENT, before the bundle is read.
  [[nodiscard]] static StatusOr<std::unique_ptr<QueryEngine>> Open(
      const std::string& dir, const EngineOptions& options);

  // In-process construction from an already-loaded bundle (tests,
  // benches). options.index_policy must be auto|exact|ivf.
  static std::unique_ptr<QueryEngine> FromBundle(
      std::unique_ptr<SnapshotBundle> bundle, const EngineOptions& options);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Hot swap: read + validate the bundle at `dir`, build a new
  // ServingState, install it as the current version, and invalidate the
  // explain cache. On any error the previous version keeps serving
  // untouched. Returns the new epoch. Rejects dirs containing ".." with
  // INVALID_ARGUMENT and missing/unopenable bundles with NOT_FOUND;
  // malformed bundle contents surface as INVALID_ARGUMENT.
  [[nodiscard]] StatusOr<uint64_t> LoadSnapshot(const std::string& dir);

  // Pins the current snapshot version. The handle keeps every id, row,
  // and index borrow inside it valid; queries that resolve ids against
  // one state MUST answer from that same state.
  std::shared_ptr<const ServingState> AcquireState() const {
    return manager_.Acquire();
  }

  EngineStatusResult EngineStatus() const;

  // `source` is a KG1 entity name. NOT_FOUND for unknown names.
  [[nodiscard]] StatusOr<AlignResult> Align(const std::string& source,
                              const Deadline& deadline) const;

  // Batched variant: resolve every name, check the deadline, answer the
  // sources the version's align memo holds, and send the rest (duplicates
  // included) to one TopKAll dispatch (the thread pool splits the rows),
  // whose rows fill the memo. InvalidArgument for an empty batch,
  // NOT_FOUND (failing the whole batch) for any unknown name. Row i of the
  // result depends only on sources[i], never on what else shares the
  // dispatch or whether the memo answered it.
  [[nodiscard]] StatusOr<std::vector<AlignResult>> AlignBatch(
      const std::vector<std::string>& sources, const Deadline& deadline) const;

  // AlignBatch up to, not including, its top-k: the same pinned version,
  // name resolution, deadline check, memo reads and results, or
  // std::nullopt wherever AlignBatch would fail (an empty batch, an
  // unknown name, an expired deadline) or run a top-k (a row the memo
  // does not hold yet). It never runs a top-k, so an event-loop thread
  // may call it.
  std::optional<std::vector<AlignResult>> AlignBatchFromMemo(
      const std::vector<std::string>& sources, const Deadline& deadline) const;

  // AlignBatch's name-resolution stage alone, against `state`, with the
  // same error semantics. Public so a caller can time resolution apart
  // from the top-k (e2ebench's layer probes do).
  [[nodiscard]] StatusOr<std::vector<kg::EntityId>> ResolveAlignBatch(
      const ServingState& state, const std::vector<std::string>& sources) const;

  // `source` in KG1, `target` in KG2, both by name.
  [[nodiscard]] StatusOr<ExplainResult> Explain(const std::string& source,
                                  const std::string& target,
                                  const Deadline& deadline) const;

  // Explain's cache read alone: the cached rendering for the pair, counted
  // as a hit, or std::nullopt, counting nothing, when either name does not
  // resolve or the cache does not hold the pair (Explain then answers and
  // counts the miss). Never renders, so an event-loop thread may call it.
  std::optional<ExplainResult> ExplainFromCache(
      const std::string& source, const std::string& target) const;

  // `side` is 1 (KG1) or 2 (KG2).
  [[nodiscard]]
  StatusOr<NeighborsResult> Neighbors(const std::string& entity, int side,
                                      const Deadline& deadline) const;

  [[nodiscard]]
  StatusOr<RepairStatusResult> RepairStatus(const std::string& source,
                                            const std::string& target,
                                            const Deadline& deadline) const;

  void ClearExplainCache();  // benches: measure the cold path repeatedly

  // Fills the align memo of each version that becomes current until
  // `stop` is requested: waits for a version it has not seen (no
  // polling; Install wakes it), fills its empty rows block by block
  // (ServingState::FillMemoBlock, one core), and drops the version at the
  // next block once a swap retires it. `before_block` (may be empty) runs
  // before each block; it is a test seam. Call from one dedicated thread.
  void FillAlignMemos(std::stop_token stop,
                      const std::function<void()>& before_block) const;

  // The registry this engine's metrics live in:
  //   span.serve.align_topk                  top-k dispatches of memo misses
  //   serve.align_memo.misses                align rows that ran a top-k on
  //                                          a request path (memo misses)
  //   serve.explain_cache.hits / .misses     counters
  //   serve.explain_cache.invalidations      counter (clears on swap)
  //   serve.explain_cache.size               gauge
  //   serve.snapshot.versions                gauge
  //   serve.snapshot.swaps                   counter
  const obs::Registry& registry() const { return *registry_; }
  obs::Registry* mutable_registry() const { return registry_; }

 private:
  QueryEngine(std::unique_ptr<SnapshotBundle> bundle, std::string source,
              const EngineOptions& options);

  // Builds a ServingState for `bundle` at the next epoch.
  std::unique_ptr<const ServingState> BuildState(
      std::unique_ptr<SnapshotBundle> bundle, std::string source);

  [[nodiscard]] StatusOr<kg::EntityId> ResolveSource(
      const ServingState& state, const std::string& name) const;
  [[nodiscard]] StatusOr<kg::EntityId> ResolveTarget(
      const ServingState& state, const std::string& name) const;

  // The cached rendering under `key`, counted as a hit, or std::nullopt.
  std::optional<ExplainResult> ReadExplainCache(
      const ExplainLruCache::Key& key) const;

  EngineOptions options_;
  obs::Registry* registry_;  // never null; set from options in the ctor
  SnapshotManager manager_;

  // LRU cache over rendered explanations, keyed by (epoch, packed
  // (e1, e2)); internally synchronized and owns the size gauge update
  // (obs-no-adhoc-metrics keeps tallies in the registry).
  mutable ExplainLruCache cache_;
  obs::Counter& cache_hits_;
  obs::Counter& cache_misses_;
  obs::Counter& cache_invalidations_;
  obs::Counter& align_memo_misses_;

  // Serializes LoadSnapshot callers (reads stay lock-free on this path:
  // they only touch the manager's own mutex for the pointer copy).
  // Declared last: nothing below it, so the guarded-by lint pass knows
  // the members above are not under this mutex.
  std::mutex swap_mu_;
};

}  // namespace exea::serve

#endif  // EXEA_SERVE_ENGINE_H_
