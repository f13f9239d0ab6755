// Snapshot residency: the RCU-style core of zero-downtime serving.
//
// A ServingState is one immutable snapshot version plus everything the
// query paths derive from it — the similarity index (exact or IVF), the
// SnapshotModel/ExeaExplainer pair, and the offline AlignmentContext.
// It is built once, never mutated, and every borrow inside it (index →
// emb2, model → bundle, context → alignment) points into the bundle the
// state itself owns, so the whole object graph has exactly one lifetime.
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
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "explain/exea.h"
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
  // must then be present) instead of the exact scan. `registry` may be
  // nullptr (Registry::Global()).
  ServingState(std::unique_ptr<SnapshotBundle> bundle, uint64_t epoch,
               std::string source, bool use_ivf, obs::Registry* registry);

  ServingState(const ServingState&) = delete;
  ServingState& operator=(const ServingState&) = delete;

  const SnapshotBundle& bundle() const { return *bundle_; }
  const la::SimilarityIndex& index() const { return *index_; }
  uint64_t epoch() const { return epoch_; }
  const std::string& source() const { return source_; }

  const explain::ExeaExplainer& explainer() const { return explainer_; }
  const explain::AlignmentContext& context() const { return context_; }

 private:
  // Declaration order is lifetime order: everything below borrows from
  // bundle_.
  std::unique_ptr<SnapshotBundle> bundle_;
  uint64_t epoch_;
  std::string source_;
  std::unique_ptr<la::SimilarityIndex> index_;
  SnapshotModel model_;
  explain::ExeaExplainer explainer_;
  explain::AlignmentContext context_;
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

 private:
  obs::Gauge& versions_gauge_;
  obs::Counter& swaps_;
  std::atomic<uint64_t> epoch_{0};

  // mu_ protects everything declared after it.
  mutable std::mutex mu_;
  std::shared_ptr<const ServingState> current_ EXEA_GUARDED_BY(mu_);
};

}  // namespace exea::serve

#endif  // EXEA_SERVE_SNAPSHOT_MANAGER_H_
