#include "serve/snapshot_manager.h"

#include <utility>

namespace exea::serve {

ServingState::ServingState(std::unique_ptr<SnapshotBundle> bundle,
                           uint64_t epoch, std::string source, bool use_ivf,
                           obs::Registry* registry)
    : bundle_(std::move(bundle)),
      epoch_(epoch),
      source_(std::move(source)),
      model_(bundle_.get()),
      explainer_(bundle_->dataset, model_, explain::ExeaConfig{}),
      context_(&bundle_->alignment, &bundle_->dataset.train) {
  EXEA_CHECK(bundle_ != nullptr);
  if (use_ivf) {
    index_ = std::make_unique<la::IvfIndex>(&bundle_->emb2, &bundle_->ivf,
                                            registry);
  } else {
    index_ = std::make_unique<la::ExactIndex>(&bundle_->emb2, registry);
  }
}

SnapshotManager::SnapshotManager(obs::Registry* registry)
    : versions_gauge_((registry != nullptr ? *registry
                                           : obs::Registry::Global())
                          .GetGauge("serve.snapshot.versions")),
      swaps_((registry != nullptr ? *registry : obs::Registry::Global())
                 .GetCounter("serve.snapshot.swaps")) {}

uint64_t SnapshotManager::Install(std::unique_ptr<const ServingState> state) {
  EXEA_CHECK(state != nullptr);
  uint64_t epoch = state->epoch();
  obs::Gauge* versions = &versions_gauge_;
  // The custom deleter is the "retired version actually freed" event:
  // it runs when the LAST handle (the manager's or an in-flight
  // reader's) drops, wherever that thread is.
  std::shared_ptr<const ServingState> handle(
      state.release(), [versions](const ServingState* s) {
        delete s;  // exea-lint: allow(raw-new-delete)
        versions->Add(-1.0);
      });
  versions->Add(1.0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (current_ != nullptr) swaps_.Increment();
    current_.swap(handle);
  }
  // `handle` now holds the retired version, if any. Dropping it here,
  // outside mu_, keeps an unpinned version's free (milliseconds for a
  // large bundle with warm path memos) off every reader's Acquire().
  handle.reset();
  return epoch;
}

std::shared_ptr<const ServingState> SnapshotManager::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

}  // namespace exea::serve
