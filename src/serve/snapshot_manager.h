// Snapshot residency: the RCU-style core of zero-downtime serving.
//
// A ServingState is one immutable snapshot version plus everything the
// query paths derive from it — the similarity index (exact or IVF), the
// SnapshotModel/ExeaExplainer pair, and the offline AlignmentContext.
// It is built once and every borrow inside it (index → emb2, model →
// bundle, context → alignment) points into the bundle the state itself
// owns, so the whole object graph has exactly one lifetime.
//
// The one thing a version learns after it is built is its align memo:
// one slot per KG1 entity holding that entity's top-k candidates from
// the version's index. The index is deterministic and the embeddings are
// frozen, so whichever computes a slot first — an align that missed it,
// or the TCP server's filler working through FillMemoBlock — fills it
// with the same bits, and every later align on the same version reads
// it. The memo lives and dies with its version, so a swap needs no
// invalidation.
//
// The SnapshotManager holds only the current version, behind a
// refcounted handle:
//
//   Acquire()  — readers pin the version current at request entry; the
//                shared_ptr copy is the read-side critical section, so a
//                request keeps answering from the version it started on
//                no matter how many swaps land mid-flight.
//   Install()  — atomically (one mutex-guarded pointer swap) makes a
//                new version current. The retired handle is dropped
//                after the mutex is released, so freeing an unpinned
//                version never stalls a reader's Acquire(); a version
//                some reader still pins lives exactly until that
//                reader's last handle drops.
//   AwaitNewer() — blocks until Install() makes some other version
//                current (the memo filler's wake-up; no polling).
//
// Metrics (in the engine's registry):
//   serve.snapshot.versions  gauge   — ServingState objects currently
//                                      alive (current + reader-pinned);
//                                      decremented by the handle's
//                                      deleter at the actual free.
//   serve.snapshot.swaps     counter — installs that replaced a live
//                                      current version.

#ifndef EXEA_SERVE_SNAPSHOT_MANAGER_H_
#define EXEA_SERVE_SNAPSHOT_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <vector>

#include "explain/exea.h"
#include "kg/types.h"
#include "la/similarity.h"
#include "la/similarity_index.h"
#include "obs/metrics.h"
#include "serve/snapshot.h"
#include "util/check.h"

namespace exea::serve {

class ServingState {
 public:
  // Takes ownership of `bundle` (never null). `epoch` is the manager's
  // monotonic version number; `source` is where the bundle came from
  // (directory path, or "<memory>" for in-process construction).
  // `use_ivf` serves align through the bundle's trained IVF index (which
  // must then be present) instead of the exact scan. `top_k` is the
  // engine's candidate count, the row length the align memo holds.
  // `registry` may be nullptr (Registry::Global()).
  ServingState(std::unique_ptr<SnapshotBundle> bundle, uint64_t epoch,
               std::string source, bool use_ivf, size_t top_k,
               obs::Registry* registry);

  ServingState(const ServingState&) = delete;
  ServingState& operator=(const ServingState&) = delete;

  const SnapshotBundle& bundle() const { return *bundle_; }
  const la::SimilarityIndex& index() const { return *index_; }
  uint64_t epoch() const { return epoch_; }
  const std::string& source() const { return source_; }

  const explain::ExeaExplainer& explainer() const { return explainer_; }
  const explain::AlignmentContext& context() const { return context_; }

  // The candidate count every memoized row was computed with.
  size_t top_k() const { return top_k_; }

  // KG1 entity `e`'s memoized index().TopKAll row at top_k(), or nullptr
  // until ComputeTopK on this version has covered it. Takes no lock; the
  // row stays valid while the caller pins this state. `e` must be an
  // emb1 row.
  const std::vector<la::ScoredIndex>* MemoizedTopK(kg::EntityId e) const;

  // Runs one index().TopKAll over the emb1 rows of `ids` at top_k() and
  // offers each answer to its memo slot; returns the rows in `ids`
  // order. The first offer fills a slot; an offer for a slot another
  // caller already claimed is dropped without waiting, since both
  // computed the same bits. Every memo row, whether an align that missed
  // or the filler computed it, is made here.
  std::vector<std::vector<la::ScoredIndex>> ComputeTopK(
      const std::vector<kg::EntityId>& ids) const;

  // Rows per FillMemoBlock call: the similarity kernels run a block of
  // this many query rows inline on the calling thread (their kRowGrain),
  // so a fill never fans out over the process-wide pool.
  static constexpr size_t kFillBlockRows = 16;

  // ComputeTopK over the memo slots still empty among rows [first,
  // first + kFillBlockRows). Returns the next block's first row
  // (memo_rows() once every block is done).
  size_t FillMemoBlock(size_t first) const;

  // One memo slot per KG1 entity (emb1 row), and how many of them hold
  // their candidates (a scan of the slots' ready flags).
  size_t memo_rows() const { return topk_memo_.size(); }
  size_t MemoRowsFilled() const;

 private:
  // One align-memo slot. `candidates` is written once, by the offer that
  // moves `state` from kEmpty to kFilling, and published by its release
  // store of kReady; readers touch it only after an acquire load of
  // kReady.
  struct TopKSlot {
    std::atomic<uint8_t> state{0};
    std::vector<la::ScoredIndex> candidates;
  };

  // Declaration order is lifetime order: everything below borrows from
  // bundle_.
  std::unique_ptr<SnapshotBundle> bundle_;
  uint64_t epoch_;
  std::string source_;
  std::unique_ptr<la::SimilarityIndex> index_;
  SnapshotModel model_;
  explain::ExeaExplainer explainer_;
  explain::AlignmentContext context_;
  size_t top_k_;
  // One slot per emb1 row, empty until ComputeTopK first covers it.
  mutable std::vector<TopKSlot> topk_memo_;
};

class SnapshotManager {
 public:
  // `registry` may be nullptr (Registry::Global()); it must outlive
  // every handle this manager ever hands out, because the handle
  // deleter updates the versions gauge.
  explicit SnapshotManager(obs::Registry* registry);

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  // Allocates the next version number (1, 2, ...). Callers build the
  // ServingState with it, then Install.
  uint64_t NextEpoch() { return epoch_.fetch_add(1, std::memory_order_relaxed) + 1; }

  // Makes `state` the version new readers get and releases the
  // manager's hold on the previous one. Returns the new epoch.
  uint64_t Install(std::unique_ptr<const ServingState> state);

  // Pins and returns the current version; never null after the first
  // Install. The handle keeps every borrow inside the state valid until
  // it is dropped.
  std::shared_ptr<const ServingState> Acquire() const;

  // Blocks until the current version's epoch is not `seen` (0 matches
  // none), then pins and returns it; nullptr once `stop` is requested.
  // Install() wakes it.
  std::shared_ptr<const ServingState> AwaitNewer(uint64_t seen,
                                                 std::stop_token stop) const;

 private:
  obs::Gauge& versions_gauge_;
  obs::Counter& swaps_;
  std::atomic<uint64_t> epoch_{0};

  // mu_ protects everything declared after it.
  mutable std::mutex mu_;
  mutable std::condition_variable_any installed_cv_;
  std::shared_ptr<const ServingState> current_ EXEA_GUARDED_BY(mu_);
};

}  // namespace exea::serve

#endif  // EXEA_SERVE_SNAPSHOT_MANAGER_H_
