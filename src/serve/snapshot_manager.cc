#include "serve/snapshot_manager.h"

#include <algorithm>
#include <utility>

namespace exea::serve {

namespace {

// TopKSlot::state values.
constexpr uint8_t kEmpty = 0;
constexpr uint8_t kFilling = 1;
constexpr uint8_t kReady = 2;

}  // namespace

ServingState::ServingState(std::unique_ptr<SnapshotBundle> bundle,
                           uint64_t epoch, std::string source, bool use_ivf,
                           size_t top_k, obs::Registry* registry)
    : bundle_(std::move(bundle)),
      epoch_(epoch),
      source_(std::move(source)),
      model_(bundle_.get()),
      explainer_(bundle_->dataset, model_, explain::ExeaConfig{}),
      context_(&bundle_->alignment, &bundle_->dataset.train),
      top_k_(top_k),
      topk_memo_(bundle_->emb1.rows()) {
  EXEA_CHECK(bundle_ != nullptr);
  if (use_ivf) {
    index_ = std::make_unique<la::IvfIndex>(&bundle_->emb2, &bundle_->ivf,
                                            registry);
  } else {
    index_ = std::make_unique<la::ExactIndex>(&bundle_->emb2, registry);
  }
}

const std::vector<la::ScoredIndex>* ServingState::MemoizedTopK(
    kg::EntityId e) const {
  EXEA_DCHECK_LT(e, topk_memo_.size());
  const TopKSlot& slot = topk_memo_[e];
  if (slot.state.load(std::memory_order_acquire) != kReady) return nullptr;
  return &slot.candidates;
}

std::vector<std::vector<la::ScoredIndex>> ServingState::ComputeTopK(
    const std::vector<kg::EntityId>& ids) const {
  const la::Matrix& emb1 = bundle_->emb1;
  la::Matrix queries(ids.size(), emb1.cols());
  for (size_t j = 0; j < ids.size(); ++j) {
    const float* row = emb1.Row(ids[j]);
    std::copy(row, row + emb1.cols(), queries.Row(j));
  }
  std::vector<std::vector<la::ScoredIndex>> rows =
      index_->TopKAll(queries, top_k_);
  for (size_t j = 0; j < ids.size(); ++j) {
    EXEA_DCHECK_LT(ids[j], topk_memo_.size());
    EXEA_DCHECK_LE(rows[j].size(), top_k_);
    TopKSlot& slot = topk_memo_[ids[j]];
    uint8_t expected = kEmpty;
    if (!slot.state.compare_exchange_strong(expected, kFilling)) continue;
    slot.candidates.assign(rows[j].begin(), rows[j].end());
    slot.state.store(kReady, std::memory_order_release);
  }
  return rows;
}

size_t ServingState::FillMemoBlock(size_t first) const {
  size_t end = std::min(first + kFillBlockRows, topk_memo_.size());
  std::vector<kg::EntityId> empty;
  for (size_t e = first; e < end; ++e) {
    if (topk_memo_[e].state.load(std::memory_order_acquire) == kEmpty) {
      empty.push_back(static_cast<kg::EntityId>(e));
    }
  }
  if (!empty.empty()) ComputeTopK(empty);
  return end;
}

size_t ServingState::MemoRowsFilled() const {
  size_t filled = 0;
  for (const TopKSlot& slot : topk_memo_) {
    if (slot.state.load(std::memory_order_acquire) == kReady) ++filled;
  }
  return filled;
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
  installed_cv_.notify_all();
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

std::shared_ptr<const ServingState> SnapshotManager::AwaitNewer(
    uint64_t seen, std::stop_token stop) const {
  std::unique_lock<std::mutex> lock(mu_);
  bool installed = installed_cv_.wait(lock, stop, [&] {
    return current_ != nullptr && current_->epoch() != seen;
  });
  return installed && !stop.stop_requested() ? current_ : nullptr;
}

}  // namespace exea::serve
